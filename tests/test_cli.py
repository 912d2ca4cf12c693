import json
import os
import subprocess
import sys

import numpy as np
import pytest

from momt.cli import _worker_count, instance_to_dict, load_instance_dict, main
from momt.errors import SchemaError
from momt.serialize import dump_text, format_float

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


def test_malformed_weights_exit_2(tmp_path, capsys):
    bad = dict(TWO_BY_TWO)
    bad["weights"] = [[0.4, 0.5], [0.5, 0.5]]
    path = _write(tmp_path, bad)
    assert main(["solve", path]) == 2
    assert "weights" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    assert main(["solve", "/nonexistent/instance.json"]) == 2


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


def test_scenario_unknown_kind_exit_2(capsys):
    assert main(["scenario", "warp"]) == 2


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
    env = dict(os.environ, MOMT_THREADS="2")
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
