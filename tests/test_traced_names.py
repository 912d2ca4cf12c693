"""Every momt name that the benchmark's layer tracer binds must exist.

`perfbench/layertrace.py` wraps momt functions by module and attribute
name; a renamed or deleted one would crash every traced benchmark run.
The table is read from the file's source without executing it.
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
