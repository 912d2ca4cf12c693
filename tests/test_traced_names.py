"""Every momt name that the benchmark's layer tracer binds must exist,
and a traced run must still count what the tracer reads off the results.

`perfbench/layertrace.py` wraps momt functions by module and attribute
name; a renamed or deleted one would crash every traced benchmark run.
The table is read from the file's source without executing it.  Its
`_count` also reads fields of some results (a solve's iterations, a
monotonicity report's counts); a field that vanished would crash a traced
run, which the last test drives through `cli.main`.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _table(name):
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {LAYERTRACE.name}")


@pytest.mark.skipif(not LAYERTRACE.exists(), reason="no perfbench checkout")
def test_layer_functions_resolve_in_momt():
    entries = _table("LAYER_FUNCTIONS")
    assert entries
    for modname, attr, _layer in entries:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{modname}.{attr} is traced but missing"
            obj = getattr(obj, part)
        assert callable(obj), f"{modname}.{attr}"
    for modname, _layer in _table("WHOLE_MODULES"):
        importlib.import_module(modname)


@pytest.mark.skipif(not LAYERTRACE.exists(), reason="no perfbench checkout")
def test_traced_runs_complete_and_count(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(LAYERTRACE.parent))
    layertrace = importlib.import_module("layertrace")
    from momt import cli
    from test_cli import THREE_MARGINAL, _write

    path = _write(tmp_path, THREE_MARGINAL)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert cli.main(["diagnose", path, "--out", str(tmp_path / "d.json")]) == 0
        assert cli.main(["scenario", "gangboSwiech", "--n", "6",
                         "--out", str(tmp_path / "gs")]) == 0
    finally:
        tracer.uninstall()
    assert not hasattr(cli.main, "__wrapped_layer__")     # originals are back
    for key in ("cli.ops_n", "costs.cells_n", "lp.solve_n", "lp.pivots_n",
                "lp.cert_n", "lp.active_cells_n", "extremality.monotone_tuples_n",
                "serialize.bytes_n"):
        assert key in tracer.counts, key
    assert tracer.counts["cli.ops_n"] == 2
    # diagnose's solve, the gangboSwiech plan and its two pair problems
    assert tracer.counts["lp.solve_n"] == 4
    assert tracer.counts["extremality.monotone_tuples_n"] == 0
    assert {span[0] for span in tracer.spans} >= {"cli.self", "lp.solve",
                                                  "extremality.monotone"}
