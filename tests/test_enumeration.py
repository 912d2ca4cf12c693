"""Vertex enumeration over lexicographically feasible bases, against the
search over every feasible basis that it replaced.

`enumerate_vertices` takes the marginal weight vectors of a transport
polytope and pivots on implicit columns from the least-cost start.  The
every-basis search (`conftest.every_basis_vertices`) runs on the dense
model, `PolytopeModel` with a phase-1 start: that model is the tests'
reference, and no command reaches it.  `PolytopeModel`, `standard_model`
and `solve_model` stay in `momt.lp` because the benchmark's layer tracer
binds them.
"""

import itertools

import numpy as np
import pytest

from momt import cli, lp, scenarios
from momt.errors import InstanceTooLarge
from momt.scenarios import ScenarioConfig, run_scenario
from conftest import every_basis_vertices, pair_model, random_instance, tensor_instance
from test_acceptance import criterion_03_instances
from test_cli import THREE_MARGINAL, TWO_BY_TWO, _write
from test_simplex import point_instance


def assert_vertices_match(got, want):
    """`got` and `want` are the same vertex list in `_vertex_key` order."""
    assert [lp._vertex_key(x) for x in got] == [lp._vertex_key(x) for x in want]
    # a degenerate vertex may be solved on another of its bases
    assert max(float(np.abs(g - w).max()) for g, w in zip(got, want)) <= 1e-15


# criterion 3's battery but its 5x5 and 3x3x3 cases (14 220 and 18 510
# vertices); its 4x4 and 2x3x3 cases have uniform weights
BATTERY = [inst for inst in criterion_03_instances()
           if inst.arities not in ((5, 5), (3, 3, 3))]


@pytest.mark.parametrize("inst", BATTERY, ids=lambda inst: str(inst.arities))
def test_transport_vertices_match_every_basis_search(inst):
    got = lp.enumerate_vertices([m.weights for m in inst.measures])
    assert_vertices_match(got, every_basis_vertices(lp.standard_model(inst.measures)))


@pytest.mark.parametrize("weights", [
    [[0.5, 0.0, 0.5], [0.25, 0.25, 0.0, 0.5]],
    [[0.0, 0.6, 0.4], [0.3, 0.7, 0.0], [0.5, 0.0, 0.5]],
    [[0.2, 0.3, 0.5, 0.0], [0.6, 0.4, 0.0]],
], ids=["middle", "first-and-last", "last"])
def test_transport_vertices_keep_the_index_of_a_zero_weight_atom(weights):
    inst = tensor_instance(np.zeros([len(w) for w in weights]), weights)
    got = lp.enumerate_vertices([m.weights for m in inst.measures])
    assert_vertices_match(got, every_basis_vertices(lp.standard_model(inst.measures)))
    for x in got:
        grid = x.reshape(inst.arities)
        for k, w in enumerate(weights):
            assert not np.moveaxis(grid, k, 0)[np.asarray(w) == 0.0].any()


@pytest.mark.parametrize("n", [0, 4])
def test_two_map_polytope_vertices_match_every_basis_search(monkeypatch, n):
    # the scenario checks the per-fiber vertices; their products, the
    # vertices of the whole pair-constrained polytope, must be those of the
    # search over every feasible basis
    calls = []
    pair_polytope_fibers = scenarios.pair_polytope_fibers

    def spy(target_xy, target_xz):
        fibers = pair_polytope_fibers(target_xy, target_xz)
        calls.append((target_xy, target_xz, fibers))
        return fibers

    monkeypatch.setattr(scenarios, "pair_polytope_fibers", spy)
    for seed in range(3):
        report = run_scenario(ScenarioConfig("twoMapDemo", seed=seed,
                                             sizes=(n,) if n else ()))
        assert report["checks"]["vertex_count_ok"]
    monkeypatch.undo()
    assert len(calls) == 3
    for target_xy, target_xz, fibers in calls:
        got = sorted((np.stack(choice).reshape(-1) for choice in itertools.product(*fibers)),
                     key=lp._vertex_key)
        assert_vertices_match(got, every_basis_vertices(pair_model(target_xy, target_xz)))


@pytest.mark.parametrize("arities", [(4, 4), (2, 3, 2), (3, 4)], ids=str)
def test_generic_vertices_are_bitwise_those_of_every_basis_search(arities):
    # a vertex of generic weights has one basis, solved by the same LAPACK
    # call whether its frontier is stacked or not
    for seed in range(20):
        rng = np.random.default_rng([seed, *arities])
        weights = [rng.dirichlet(np.ones(n)) for n in arities]
        inst = tensor_instance(np.zeros(arities), weights)
        got = lp.enumerate_vertices([m.weights for m in inst.measures])
        want = every_basis_vertices(lp.standard_model(inst.measures))
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want], seed


@pytest.mark.parametrize("arities", [(4, 4), (2, 3, 3)], ids=str)
def test_degenerate_vertices_do_not_depend_on_the_block_size(monkeypatch, arities):
    # a frontier is solved in stacked blocks; how it is cut into blocks must
    # not move a degenerate vertex, which is solved on its least basis
    weights = [m.weights for m in tensor_instance(np.zeros(arities)).measures]
    want = lp.enumerate_vertices(weights)
    monkeypatch.setattr(lp, "_BASIS_BLOCK", 7)
    got = lp.enumerate_vertices(weights)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_solve_oracle_builds_one_coupling(monkeypatch, tmp_path):
    # the oracle's vertices give a count and values; only the solve's own
    # plan becomes a Coupling
    calls = []
    coupling_from_x = lp._coupling_from_x

    def counted(*args):
        calls.append(args)
        return coupling_from_x(*args)

    monkeypatch.setattr(lp, "_coupling_from_x", counted)
    path = _write(tmp_path, TWO_BY_TWO)
    assert cli.main(["solve", path, "--oracle", "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 1


def test_solve_oracle_still_checks_vertex_mass(monkeypatch, tmp_path, capsys):
    enumerate_vertices = lp.enumerate_vertices

    def off_by_1e6(weights):
        vertices = enumerate_vertices(weights)
        vertices[-1] = vertices[-1] * (1.0 + 1e-6)
        return vertices

    monkeypatch.setattr(lp, "enumerate_vertices", off_by_1e6)
    path = _write(tmp_path, TWO_BY_TWO)
    assert cli.main(["solve", path, "--oracle"]) == 3
    assert "is not a probability" in capsys.readouterr().err


def test_uniform_square_visits_few_bases_on_transport_columns(monkeypatch):
    # 24 vertices: all 3 072 feasible bases, but 384 lexicographic ones
    weights = [m.weights for m in tensor_instance(np.zeros((4, 4))).measures]
    monkeypatch.setattr(lp, "MAX_BASES", 384)
    assert len(lp.enumerate_vertices(weights)) == 24
    monkeypatch.setattr(lp, "MAX_BASES", 383)
    with pytest.raises(InstanceTooLarge):
        lp.enumerate_vertices(weights)


def test_oracle_and_two_map_demo_build_no_dense_model_and_run_no_phase_one(
        monkeypatch, tmp_path):
    # the dense model is the tests' reference: no command may reach it
    def refuse(*args, **kwargs):
        raise AssertionError("dense model built or phase 1 run")

    monkeypatch.setattr(lp.PolytopeModel, "__init__", refuse)
    monkeypatch.setattr(lp._DenseColumns, "__init__", refuse)
    for name in ("standard_model", "solve_model", "_feasible_basis"):
        monkeypatch.setattr(lp, name, refuse)
    assert len(lp.oracle_enumerate(point_instance(1, (3, 4)))) > 1
    assert len(lp.oracle_enumerate(point_instance(2, (2, 3, 2), uniform=False))) > 1
    for n in (0, 4):
        report = run_scenario(ScenarioConfig("twoMapDemo", seed=5, sizes=(n,) if n else ()))
        assert report["passed"]
    path = _write(tmp_path, THREE_MARGINAL)
    commands = [["solve", path], ["solve", path, "--oracle"], ["diagnose", path],
                ["reduce", path, "--subset", "1,2"]]
    commands += [["scenario", kind, "--seed", "1"] for kind in scenarios.RUNNERS]
    for i, argv in enumerate(commands):
        assert cli.main([*argv, "--out", str(tmp_path / f"out{i}")]) == 0, argv


def test_uniform_five_by_five_fits_the_oracle_caps():
    # the permutation matrices; the every-basis search exceeds 200 000 bases
    verts = lp.oracle_enumerate(point_instance(0, (5, 5)))
    assert len(verts) == 120
    for plan, _ in verts:
        assert sorted(plan.entries.values()) == pytest.approx([0.2] * 5)


def test_coupling_from_x_matches_per_cell_loop():
    rng = np.random.default_rng(8)
    for arities in [(3, 4), (2, 3, 2), (2, 2, 2, 3)]:
        x = rng.uniform(size=int(np.prod(arities)))
        x[rng.uniform(size=x.size) < 0.5] = 0.0
        x[0] = 1e-16
        x /= x.sum()
        plan = lp._coupling_from_x(x, arities)
        total = float(x.sum())
        want = {tuple(int(i) for i in np.unravel_index(c, arities)): float(x[c]) / total
                for c in np.flatnonzero(x > lp.MASS_FLOOR)}
        assert list(plan.entries) == list(want)
        assert all(plan.entries[k] == v for k, v in want.items())
