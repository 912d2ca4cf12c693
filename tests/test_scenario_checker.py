"""The benchmark's scenario checker must accept what `momt scenario` writes.

`perfbench/check.py::check_scenario` reads a report's `kind`, `seed`,
`value` (or `checks.solver_value`) and `support`, compares the support CSV
with the report, and rebuilds the instance from the first item that the
kind's `gen_*` function returns, to solve it again with HiGHS.  A renamed
report key or a changed `gen_*` return shape would fail every benchmark
run; these commands cover each kind and size that `scenario_suite` runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

from momt import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (kind, --n), 0 for the kind's default size
SUITE_SIZES = [("gromovWasserstein", 0), ("twoMapDemo", 0), ("twoMapDemo", 4),
               ("nestedShells", 0), ("gangboSwiech", 6)]


@pytest.mark.skipif(not (PERFBENCH / "check.py").exists(), reason="no perfbench checkout")
@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("kind, n", SUITE_SIZES)
def test_check_scenario_accepts_the_reports(tmp_path, monkeypatch, kind, n, seed):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    check = importlib.import_module("check")
    argv = ["scenario", kind, "--seed", str(seed), "--out", str(tmp_path)]
    assert cli.main(argv + (["--n", str(n)] if n else [])) == 0
    assert check.check_scenario(kind, seed, n, str(tmp_path / f"{kind}_seed{seed}")) == []
