import json
import os
import subprocess
import sys

import numpy as np
import pytest

import momt
from momt import lp
from momt.cli import (_worker_count, instance_to_dict, load_instance, load_instance_dict,
                      main)
from momt.errors import SchemaError, SolverError
from momt.serialize import dump_text, format_float
from momt.tolerances import MASS_FLOOR

TWO_BY_TWO = {
    "version": 1,
    "spaces": [{"name": "X", "points": [[0.0], [1.0]]},
               {"name": "Y", "points": [[0.0], [1.0]]}],
    "weights": [[0.5, 0.5], [0.5, 0.5]],
    "cost": {"tensor": [[0.0, 1.0], [1.0, 0.0]]},
    "sense": "min",
}

THREE_MARGINAL = {
    "version": 1,
    "spaces": [
        {"name": "X", "points": [[0.0, 0.1], [1.0, 0.0], [0.3, 0.7]]},
        {"name": "Y", "points": [[0.2, 0.0], [0.9, 0.4], [0.1, 0.5]]},
        {"name": "Z", "points": [[0.5, 0.5], [0.0, 1.0], [1.0, 0.2]]},
    ],
    "weights": [[0.3, 0.3, 0.4], [0.2, 0.5, 0.3], [0.4, 0.4, 0.2]],
    "cost": {"builtin": "surplus"},
    "sense": "max",
}


def _write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _cli_env(**extra):
    """The environment for a `python -m momt.cli` child that imports this momt."""
    src = os.path.dirname(os.path.dirname(momt.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_solve_writes_result(tmp_path, capsys):
    path = _write(tmp_path, TWO_BY_TWO)
    out = tmp_path / "result.json"
    assert main(["solve", path, "--out", str(out), "--oracle"]) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == 0.0
    assert doc["support"] == [{"index": [1, 1], "mass": 0.5},
                              {"index": [2, 2], "mass": 0.5}]
    assert doc["certificates"]["oracle"]["agrees"]
    total = sum(row["mass"] for row in doc["support"])
    assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("field,value,where", [
    ("weights", [[0.4, 0.5], [0.5, 0.5]], "weights[0]"),
    ("weights", [["ab", "cd"], [0.5, 0.5]], "weights[0]"),
    ("weights", [[float("nan"), 0.5], [0.5, 0.5]], "weights[0]"),
    ("spaces", [3, {"name": "Y", "points": [[0.0], [1.0]]}], "spaces[0]"),
    ("spaces", [{"name": "X", "points": [[0.0], [1.0]]},
                {"name": "Y", "points": [[float("nan")], [1.0]]}], "spaces[1]"),
    ("spaces", [], "spaces"),
    ("weights", [[0.5, 0.5]], "weights"),
    ("weights", [[1.5, -0.5], [0.5, 0.5]], "weights[0]"),
    ("cost", {"builtin": "tensor"}, "cost.builtin"),
    ("cost", {"builtin": "gromovWasserstein", "xi": [1.0], "A": [[1.0]]}, "cost.xi"),
], ids=["sum", "strings", "nan-weight", "space-not-object", "nan-point", "no-spaces",
        "weight-count", "negative-weight", "builtin-tensor", "xi-list"])
def test_malformed_weights_exit_2(tmp_path, capsys, field, value, where):
    bad = dict(TWO_BY_TWO)
    bad[field] = value
    path = _write(tmp_path, bad)
    assert main(["solve", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}: ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cost", ["surplus", "attractive"])
def test_overflowing_points_exit_3_without_warnings(tmp_path, capsys, cost):
    doc = {
        "version": 1,
        "spaces": [{"name": "X", "points": [[1e308, 0.0], [0.0, -1e308]]},
                   {"name": "Y", "points": [[1e308, 1.0], [-1e308, 0.0]]}],
        "weights": [[0.5, 0.5], [0.5, 0.5]],
        "cost": {"builtin": cost},
        "sense": "min",
    }
    assert main(["solve", _write(tmp_path, doc)]) == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_axes", [2, 3])
@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_overflowing_cost_span_exit_3_without_warnings(tmp_path, capsys, n_axes, command):
    # finite tensor cells of +-9e307 have a span beyond the float range
    values = (np.indices((2,) * n_axes).sum(axis=0) % 2 * 2.0 - 1.0) * 9e307
    doc = {
        "version": 1,
        "spaces": [{"name": f"A{k}", "points": [[0.0], [1.0]]} for k in range(n_axes)],
        "weights": [[0.5, 0.5]] * n_axes,
        "cost": {"tensor": values.tolist()},
        "sense": "min",
    }
    assert main([command, _write(tmp_path, doc)]) == 3
    assert "span overflows" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    assert main(["solve", "/nonexistent/instance.json"]) == 2


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text('{"version": 1,\n "spaces": [')
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: json: line 2: ")


def _scale_basic_solution(monkeypatch):
    basic_solution = lp._basic_solution
    monkeypatch.setattr(lp, "_basic_solution", lambda *args: 1.5 * basic_solution(*args))


def _shift_second_potential(monkeypatch):
    canonical_gauge = lp._canonical_gauge

    def shifted(*args):
        vectors = canonical_gauge(*args)
        vectors[1] = vectors[1] + 1.0
        return vectors

    monkeypatch.setattr(lp, "_canonical_gauge", shifted)


@pytest.mark.parametrize("fault,message", [
    (_scale_basic_solution, "optimal basis violates marginals"),
    (_shift_second_potential, "potentials violate dual feasibility"),
], ids=["marginals", "dual-feasibility"])
@pytest.mark.parametrize("doc", [TWO_BY_TWO, dict(THREE_MARGINAL, sense="min")],
                         ids=["N2", "N3"])
def test_solve_guards_exit_3(tmp_path, capsys, monkeypatch, fault, message, doc):
    # a fault injected past the simplex must trip solve's own checks
    path = _write(tmp_path, doc)
    fault(monkeypatch)
    with pytest.raises(SolverError, match=message):
        lp.solve(load_instance(path))
    assert main(["solve", path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"solver error: {message} by ") and err.count("\n") == 1


def test_schema_version_checked(tmp_path, capsys):
    doc = dict(TWO_BY_TWO)
    doc["version"] = 99
    assert main(["solve", _write(tmp_path, doc)]) == 2


def test_reduce_round_trips_and_reports(tmp_path):
    path = _write(tmp_path, THREE_MARGINAL)
    out = tmp_path / "reduced.json"
    assert main(["reduce", path, "--subset", "1,2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["provenance"]["subset"] == [1, 2]
    assert doc["provenance"]["reduction"]["passed"]
    assert len(doc["spaces"]) == 2
    # the reduced file is itself a loadable instance
    load_instance_dict(doc)


@pytest.mark.parametrize("transform", [lambda v: v * 1e9, lambda v: v + 1e9],
                         ids=["x1e9", "+1e9"])
def test_reduce_passes_on_scaled_and_shifted_costs(tmp_path, transform):
    # the reduction checks use the span-relative rule that solve applies
    for seed in range(3):
        rng = np.random.default_rng(seed)
        weights = [rng.dirichlet(np.ones(4)) for _ in range(3)]
        doc = {
            "version": 1,
            "spaces": [{"name": f"A{k}", "points": [[float(i)] for i in range(4)]}
                       for k in range(3)],
            "weights": [(w / w.sum()).tolist() for w in weights],
            "cost": {"tensor": transform(rng.uniform(0.0, 1.0, (4, 4, 4))).tolist()},
            "sense": "min",
        }
        path = _write(tmp_path, doc)
        for subset in ("1,2", "1,3", "2,3"):
            out = tmp_path / "reduced.json"
            assert main(["reduce", path, "--subset", subset, "--out", str(out)]) == 0
            assert json.loads(out.read_text())["provenance"]["reduction"]["passed"], \
                (seed, subset)


def test_reduce_subset_validation_exit_2(tmp_path, capsys):
    path = _write(tmp_path, THREE_MARGINAL)
    assert main(["reduce", path, "--subset", "1"]) == 2
    assert main(["reduce", path, "--subset", "1,2,3"]) == 2
    assert main(["reduce", path, "--subset", "0,5"]) == 2
    assert main(["reduce", path, "--subset", "a,b"]) == 2


def test_diagnose_bundles_certificates(tmp_path, capsys):
    path = _write(tmp_path, THREE_MARGINAL)
    assert main(["diagnose", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    certs = doc["certificates"]
    assert certs["cyclically_monotone"] is True
    assert certs["is_vertex"] is True
    assert certs["uniqueness"]["status"] in ("unique", "non-unique", "inconclusive")
    assert certs["active_set_size"] >= len(doc["support"])
    # the reported value is consistent with the support against the cost
    pts = [np.asarray(s["points"]) for s in THREE_MARGINAL["spaces"]]
    total = sum(
        row["mass"] * float(
            pts[0][row["index"][0] - 1] @ pts[1][row["index"][1] - 1]
            + pts[0][row["index"][0] - 1] @ pts[2][row["index"][2] - 1]
            + pts[1][row["index"][1] - 1] @ pts[2][row["index"][2] - 1]
        )
        for row in doc["support"]
    )
    assert abs(total - doc["value"]) < 1e-10


def test_diagnose_zero_cost_flags_non_unique(tmp_path, capsys):
    doc = dict(TWO_BY_TWO)
    doc["cost"] = {"tensor": [[0.0, 0.0], [0.0, 0.0]]}
    path = _write(tmp_path, doc)
    assert main(["diagnose", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certificates"]["uniqueness"]["status"] == "non-unique"
    assert out["certificates"]["uniqueness"]["witness"]


def test_diagnose_reports_the_monotonicity_bound(tmp_path, capsys):
    # monotonicity is proved from the potentials for every cycle length:
    # the output carries the bound and the threshold it was compared with,
    # and there is no cycle-length option
    path = _write(tmp_path, THREE_MARGINAL)
    assert main(["diagnose", path]) == 0
    certs = json.loads(capsys.readouterr().out)["certificates"]
    assert certs["cyclically_monotone"] is True
    assert 0.0 <= certs["monotonicity_bound"] <= certs["monotonicity_threshold"]
    assert "monotonicity_checked" not in certs
    assert main(["diagnose", path, "--tol", "0"]) == 0
    exact = json.loads(capsys.readouterr().out)["certificates"]
    # --tol 0 is taken as given, not replaced by the default
    assert exact["monotonicity_threshold"] < 1e-12 < certs["monotonicity_threshold"]
    with pytest.raises(SystemExit) as exc:
        main(["diagnose", path, "--max-cycle", "3"])
    assert exc.value.code == 2
    assert "--max-cycle" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve", "--oracle"], ["diagnose"]])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9", "tight"])
def test_bad_tolerance_exit_2(tmp_path, capsys, command, tol):
    path = _write(tmp_path, TWO_BY_TWO)
    with pytest.raises(SystemExit) as exc:
        main([command[0], path, *command[1:], "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_solve_oracle_uses_the_given_tolerance(tmp_path, capsys):
    # a 3x3 instance whose solve and oracle values differ in the last bits
    # (1.7e-16 here): --tol 0 must not be read as the default
    rng = np.random.default_rng(7)
    cost = rng.uniform(0, 1, (3, 3))
    doc = {"version": 1,
           "spaces": [{"name": n, "points": [[0.0], [1.0], [2.0]]} for n in "XY"],
           "weights": [rng.dirichlet(np.ones(3)).tolist() for _ in range(2)],
           "cost": {"tensor": cost.tolist()},
           "sense": "min"}
    path = _write(tmp_path, doc)
    for tol in ("0", "1e-9"):
        assert main(["solve", path, "--oracle", "--tol", tol]) == 0
        oracle = json.loads(capsys.readouterr().out)["certificates"]["oracle"]
        assert oracle["agrees"] == (oracle["agreement_gap"] <= float(tol))
    assert oracle["agrees"]


@pytest.mark.parametrize("kind", ["gs", "mq", "gw"])
def test_scenario_negative_dimension_exit_2(kind, capsys):
    assert main(["scenario", kind, "--d", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dimension" in err


def test_attractive_far_from_the_origin_keeps_its_optimum(tmp_path, capsys):
    # 0.5 |x - y|^2 tabulated from |x|^2 + |y|^2 - 2<x, y> cancels to zero
    # here; the identity plan is worth 0 and the swap 0.5
    points = [[1e8, 1e8], [1e8 + 1, 1e8]]
    doc = {"version": 1,
           "spaces": [{"name": "X", "points": points}, {"name": "Y", "points": points}],
           "weights": [[0.5, 0.5], [0.5, 0.5]],
           "cost": {"builtin": "attractive"},
           "sense": "max"}
    assert main(["solve", _write(tmp_path, doc)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 0.5
    assert [row["index"] for row in out["support"]] == [[1, 2], [2, 1]]


def test_scenario_unknown_kind_exit_2(capsys):
    assert main(["scenario", "warp"]) == 2


@pytest.mark.parametrize("seeds", [["--seed", "-1"], ["--seeds", "1,-2"]])
def test_scenario_negative_seed_exit_2_before_any_run(tmp_path, capsys, seeds):
    # the whole batch is checked before its first run: seed 1 writes nothing
    out = tmp_path / "runs"
    assert main(["scenario", "gw", *seeds, "--out", str(out)]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["37", "1000"])
def test_scenario_two_map_past_the_grid_cap_exit_3(capsys, n):
    assert main(["scenario", "twomap", "--n", n]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and err.count("\n") == 1


def test_scenario_bad_thread_count_exit_2(monkeypatch, capsys):
    # rejected before any worker process starts
    monkeypatch.setenv("MOMT_THREADS", "abc")
    assert main(["scenario", "gw", "--seeds", "1,2"]) == 2
    assert "MOMT_THREADS" in capsys.readouterr().err
    monkeypatch.delenv("MOMT_THREADS")
    assert main(["scenario", "gw", "--seeds", "1,x"]) == 2


def test_worker_count_is_clamped(monkeypatch):
    cores = os.cpu_count() or 1
    for text, jobs, expected in [("0", 5, 1), ("-3", 5, 1), ("1", 5, 1),
                                 (str(10**9), 10**6, cores), (str(10**9), 2, min(2, cores)),
                                 (" 2 ", 10**6, min(2, cores))]:
        monkeypatch.setenv("MOMT_THREADS", text)
        assert _worker_count(jobs) == expected, text
    monkeypatch.delenv("MOMT_THREADS")
    assert _worker_count(10**6) == cores


def test_mixed_point_dimensions_exit_2(tmp_path, capsys):
    doc = json.loads(json.dumps(THREE_MARGINAL))
    doc["spaces"][2]["points"] = [[0.5], [0.0], [1.0]]
    with pytest.raises(SchemaError):
        load_instance_dict(doc)
    assert main(["solve", _write(tmp_path, doc)]) == 2
    assert "dimension" in capsys.readouterr().err
    # a tensor cost does not read the points, so their dimensions may differ
    doc["cost"] = {"tensor": np.zeros((3, 3, 3)).tolist()}
    load_instance_dict(doc)
    # the two-marginal quadratic cost needs a matrix of the points' dimension
    gw = json.loads(json.dumps(TWO_BY_TWO))
    gw["cost"] = {"builtin": "gromovWasserstein", "xi": 1.0, "A": np.eye(3).tolist()}
    assert main(["solve", _write(tmp_path, gw)]) == 2
    gw["cost"]["A"] = [[2.0]]
    assert main(["solve", _write(tmp_path, gw)]) == 0


MONGE_ON_TWO_SPACES = {
    "version": 1,
    "spaces": [{"name": "X", "points": [[0.0], [1.0]]},
               {"name": "Y", "points": [[0.0], [1.0]]}],
    "weights": [[0.5, 0.5], [0.5, 0.5]],
    "cost": {"builtin": "mongeQuadratic"},
    "sense": "min",
}

GW_ON_THREE_SPACES = {
    "version": 1,
    "spaces": [{"name": f"X{k}", "points": [[0.0], [1.0]]} for k in range(3)],
    "weights": [[0.5, 0.5]] * 3,
    "cost": {"builtin": "gromovWasserstein", "xi": 1.0, "A": [[2.0]]},
    "sense": "max",
}


@pytest.mark.parametrize("doc,argv,message", [
    (MONGE_ON_TWO_SPACES, ["solve"], "error: mongeQuadratic is a three-marginal cost"),
    (MONGE_ON_TWO_SPACES, ["diagnose"], "error: mongeQuadratic is a three-marginal cost"),
    # two axes have no proper subset to reduce to: refused before the cost
    (MONGE_ON_TWO_SPACES, ["reduce", "--subset", "1,2"],
     "error: --subset: reduced problems need a proper subset"),
    (GW_ON_THREE_SPACES, ["solve"], "error: gromovWasserstein is a two-marginal cost"),
    (GW_ON_THREE_SPACES, ["diagnose"], "error: gromovWasserstein is a two-marginal cost"),
    (GW_ON_THREE_SPACES, ["reduce", "--subset", "1,2"],
     "error: gromovWasserstein is a two-marginal cost"),
], ids=["monge-solve", "monge-diagnose", "monge-reduce", "gw-solve", "gw-diagnose",
        "gw-reduce"])
def test_fixed_arity_costs_on_the_wrong_number_of_spaces_exit_2(tmp_path, capsys, doc,
                                                                argv, message):
    path = _write(tmp_path, doc)
    assert main([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


@pytest.mark.parametrize("cost", [{"builtin": "mongeQuadratic"},
                                  {"builtin": "gromovWasserstein", "xi": 1.0,
                                   "A": [[1.0, 0.0], [0.0, 2.0]]}],
                         ids=["monge", "gw"])
@pytest.mark.parametrize("big", [1e160, 1e300])
def test_huge_points_exit_3_under_warnings_as_errors(tmp_path, cost, big):
    n_axes = 3 if cost["builtin"] == "mongeQuadratic" else 2
    doc = {"version": 1,
           "spaces": [{"name": f"X{k}", "points": [[big, 0.0], [0.0, -big]]}
                      for k in range(n_axes)],
           "weights": [[0.5, 0.5]] * n_axes,
           "cost": cost,
           "sense": "min"}
    cmd = [sys.executable, "-W", "error", "-m", "momt.cli", "solve", _write(tmp_path, doc)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_cli_env(),
                          timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == "solver error: cost grid contains non-finite values\n"
    assert proc.stdout == ""


def test_scenario_writes_report_and_csv(tmp_path):
    out = tmp_path / "runs"
    assert main(["scenario", "shells", "--n", "6", "--seed", "2",
                 "--out", str(out)]) == 0
    files = sorted(os.listdir(out))
    assert files == [
        "nestedShells_seed2.collinearity.csv",
        "nestedShells_seed2.fibers.csv",
        "nestedShells_seed2.json",
        "nestedShells_seed2.support.csv",
    ]
    support = (out / "nestedShells_seed2.support.csv").read_text()
    header, first = support.splitlines()[:2]
    assert header == "i1,i2,i3,mass"
    assert len(first.split(",")) == 4
    report = json.loads((out / "nestedShells_seed2.json").read_text())
    assert report["passed"]


def test_scenario_batch_is_deterministic(tmp_path):
    env = _cli_env(MOMT_THREADS="2")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cmd = [sys.executable, "-m", "momt.cli", "scenario", "gw",
               "--n", "6", "--seeds", "3,4", "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(b"".join(
            (out / name).read_bytes() for name in sorted(os.listdir(out))
        ))
    assert outs[0] == outs[1]


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # main builds its parser once per process; later calls, including one
    # after a rejected input, must behave as if each ran in a fresh process
    two, three = _write(tmp_path, TWO_BY_TWO), _write(tmp_path, THREE_MARGINAL, "three.json")
    bad = dict(TWO_BY_TWO, version=99)
    calls = [
        ["solve", two, "--oracle"],
        ["reduce", three, "--subset", "1,3"],
        ["solve", _write(tmp_path, bad, "bad.json")],
        ["reduce", three],                               # argparse: --subset missing
        ["diagnose", three, "--tol", "1e-6"],
        ["scenario", "shells", "--n", "6", "--seed", "2"],
        ["solve", two, "--oracle"],
    ]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "momt.cli", *argv],
                              capture_output=True, text=True, env=_cli_env(),
                              timeout=120)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [c for c, _, _ in in_process] == [0, 0, 2, 2, 0, 0, 0]
    assert in_process == fresh


def test_instance_round_trip_is_byte_identical(tmp_path):
    doc = THREE_MARGINAL
    inst = load_instance_dict(doc)
    once = dump_text(instance_to_dict(inst))
    again = dump_text(instance_to_dict(load_instance_dict(json.loads(once))))
    assert once == again


def test_float_serialization_round_trips():
    rng = np.random.default_rng(5)
    for x in [0.1, 1 / 3, 1e-8, 123456.789, *rng.standard_normal(200).tolist()]:
        assert float(format_float(float(x))) == float(x)


@pytest.mark.filterwarnings("error")
def test_monotonicity_threshold_stays_finite_on_costs_near_the_float_maximum(tmp_path,
                                                                           capsys):
    # M * max|c| overflows at +-8e307, so the rounding floor of the
    # threshold read NaN and the report could not be written
    values = (np.indices((2, 2, 2)).sum(axis=0) % 2 * 2.0 - 1.0) * 8e307
    doc = {"version": 1,
           "spaces": [{"name": f"A{k}", "points": [[0.0], [1.0]]} for k in range(3)],
           "weights": [[0.5, 0.5]] * 3,
           "cost": {"tensor": values.tolist()},
           "sense": "min"}
    assert main(["diagnose", _write(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    certs = json.loads(captured.out)["certificates"]
    assert certs["cyclically_monotone"] is True
    assert 0.0 <= certs["monotonicity_bound"] <= certs["monotonicity_threshold"] < np.inf


_GW = {"version": 1,
       "spaces": [{"name": "X", "points": [[0.0, 0.0], [1.0, 0.0]]},
                  {"name": "Y", "points": [[0.0, 1.0], [1.0, 1.0]]}],
       "weights": [[0.5, 0.5], [0.5, 0.5]],
       "cost": {"builtin": "gromovWasserstein", "xi": 1.0,
                "A": [[1.0, 0.0], [0.0, 2.0]]},
       "sense": "max"}


def _with(doc, path, value):
    """A deep copy of doc with the entry at path (keys and indices) replaced."""
    doc = json.loads(json.dumps(doc))
    at = doc
    for key in path[:-1]:
        at = at[key]
    at[path[-1]] = value
    return doc


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [10**400, -10**400, float("nan"), float("inf")],
                         ids=["huge", "-huge", "nan", "inf"])
@pytest.mark.parametrize("base,path,field", [
    (THREE_MARGINAL, ("spaces", 1, "points", 0, 1), "spaces[1]"),
    (THREE_MARGINAL, ("weights", 2, 0), "weights[2]"),
    (_with(THREE_MARGINAL, ("cost",), {"tensor": np.ones((3, 3, 3)).tolist()}),
     ("cost", "tensor", 1, 2, 0), "cost.tensor"),
    (_GW, ("cost", "xi"), "cost.xi"),
    (_GW, ("cost", "A", 1, 1), "cost.A"),
], ids=["points", "weights", "tensor", "xi", "A"])
@pytest.mark.parametrize("command", [["solve"], ["diagnose"], ["reduce", "--subset", "1,2"]],
                         ids=["solve", "diagnose", "reduce"])
def test_numeric_fields_beyond_the_floats_exit_2(tmp_path, capsys, base, path, field,
                                                 value, command):
    # an integer too large for a float, NaN or infinity in any numeric field
    path_ = _write(tmp_path, _with(base, path, value))
    assert main([command[0], path_, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field}: ")
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
def test_zero_weight_atoms_keep_the_file_indices(tmp_path, capsys):
    doc = {"version": 1,
           "spaces": [{"name": "X", "points": [[0.0], [1.0], [2.0]]},
                      {"name": "Y", "points": [[0.0], [1.0], [2.0]]}],
           "weights": [[0.0, 0.5, 0.5], [0.5, 0.5, 0.0]],
           "cost": {"tensor": [[0.0, 0.0, 0.0], [0.0, 1.0, 5.0], [2.0, 0.0, 5.0]]},
           "sense": "min"}
    assert main(["solve", _write(tmp_path, doc)]) == 0
    out = json.loads(capsys.readouterr().out)
    # X1 and Y3 weigh nothing: the plan moves X2 to Y1 and X3 to Y2
    assert out["support"] == [{"index": [2, 1], "mass": 0.5},
                              {"index": [3, 2], "mass": 0.5}]
    assert out["value"] == 0.0
    assert [len(v) for v in out["potentials"]] == [3, 3]


def _pruned(doc):
    """The document with every atom of weight <= MASS_FLOOR removed."""
    keep = [[i for i, w in enumerate(ws) if w > MASS_FLOOR] for ws in doc["weights"]]
    out = json.loads(json.dumps(doc))
    for k, idx in enumerate(keep):
        out["spaces"][k]["points"] = [doc["spaces"][k]["points"][i] for i in idx]
        w = np.array([doc["weights"][k][i] for i in idx])
        out["weights"][k] = (w / w.sum()).tolist()
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_axes", [2, 3, 4])
def test_tiny_weights_pass_and_match_the_instance_without_them(tmp_path, capsys, n_axes):
    # weights of +-1e-13 (within STORAGE_TOL of 0) and at or below
    # MASS_FLOOR: every command succeeds, the results are indexed like the
    # file, and the optimum and certificates are those of the instance
    # without those atoms
    for seed in range(12):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(2, 5, n_axes)
        weights = []
        for n in sizes:
            w = rng.dirichlet(np.ones(n))
            at = rng.integers(n)
            w[at] = 0.0
            w /= w.sum()
            tiny = (1e-13, -1e-13, 1e-16, 0.0)[(seed + len(weights)) % 4]
            w[at], w[(at + 1) % n] = tiny, w[(at + 1) % n] - tiny
            weights.append(w.tolist())
        doc = {"version": 1,
               "spaces": [{"name": f"X{k}", "points": rng.normal(size=(n, 2)).tolist()}
                          for k, n in enumerate(sizes)],
               "weights": weights,
               "cost": {"builtin": ("surplus", "attractive")[seed % 2]},
               "sense": ("max", "min")[seed % 2]}
        reports = []
        for d in (doc, _pruned(doc)):
            assert main(["diagnose", _write(tmp_path, d)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        full, pruned = reports
        assert [len(v) for v in full["potentials"]] == list(sizes)
        for k, w in enumerate(weights):
            marginal = np.zeros(len(w))
            for row in full["support"]:
                marginal[row["index"][k] - 1] += row["mass"]
            assert np.abs(marginal - np.maximum(w, 0.0)).max() <= 1e-12
        assert full["value"] == pytest.approx(pruned["value"], rel=1e-9, abs=1e-12)
        assert full["certificates"]["cyclically_monotone"] is True
        assert full["certificates"]["is_vertex"] is True
        assert full["certificates"]["c_extreme"] == pruned["certificates"]["c_extreme"]
        assert (full["certificates"]["uniqueness"]["status"]
                == pruned["certificates"]["uniqueness"]["status"])
        if n_axes > 2:
            assert main(["reduce", _write(tmp_path, doc), "--subset", "1,2"]) == 0
            capsys.readouterr()
