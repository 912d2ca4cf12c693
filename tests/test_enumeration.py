"""Vertex enumeration over lexicographically feasible bases, against the
search over every feasible basis that it replaced.

`enumerate_vertices` takes a dense `PolytopeModel` (phase-1 start) or the
marginal weight vectors of a transport polytope (least-cost start over
implicit columns); the every-basis search always runs on the dense model.
"""

import numpy as np
import pytest

from momt import lp, scenarios
from momt.errors import InstanceTooLarge
from momt.scenarios import ScenarioConfig, run_scenario
from conftest import tensor_instance
from test_acceptance import criterion_03_instances
from test_simplex import point_instance


def every_basis_vertices(model, max_bases=200_000):
    """Vertices found by pivoting through every feasible basis (the oracle).

    Each entering column may leave on any row that ties the ratio test, so
    every basis of a degenerate vertex is visited.
    """
    A, b, keep_cols = lp._presolve_zero_cells(model.A, model.b)
    m, n = A.shape
    start = tuple(sorted(lp._feasible_basis(A, b).basis))
    seen_bases = {start}
    queue = [start]
    vertices = {}
    while queue:
        if len(seen_bases) > max_bases:
            raise InstanceTooLarge(f"basis graph exceeded {max_bases} bases")
        basis = list(queue.pop())
        B = A[:, basis]
        xB = np.linalg.solve(B, b)
        x = np.zeros(model.n_cols)
        for p, col in enumerate(basis):
            x[keep_cols[col]] = max(xB[p], 0.0)
        vertices.setdefault(lp._vertex_key(x), x)
        in_basis = set(basis)
        directions = np.linalg.solve(B, A)
        for e in range(n):
            if e in in_basis:
                continue
            d = directions[:, e]
            pos = d > lp.RATIO_TOL
            if not pos.any():
                continue
            ratios = np.full(m, np.inf)
            ratios[pos] = np.maximum(xB[pos], 0.0) / d[pos]
            rmin = ratios.min()
            for p in np.flatnonzero(ratios <= rmin + 1e-10 * (1.0 + rmin)):
                nb = basis.copy()
                nb[p] = e
                key = tuple(sorted(nb))
                if key not in seen_bases:
                    seen_bases.add(key)
                    queue.append(key)
    return [vertices[k] for k in sorted(vertices)]


def assert_vertices_match(got, want):
    """`got` and `want` are the same vertex list in `_vertex_key` order."""
    assert [lp._vertex_key(x) for x in got] == [lp._vertex_key(x) for x in want]
    # a degenerate vertex may be solved on another of its bases
    assert max(float(np.abs(g - w).max()) for g, w in zip(got, want)) <= 1e-15


def assert_same_vertices(model):
    got = lp.enumerate_vertices(model)
    assert_vertices_match(got, every_basis_vertices(model))
    return got


# criterion 3's battery but its 5x5 and 3x3x3 cases (14 220 and 18 510
# vertices); its 4x4 and 2x3x3 cases have uniform weights
BATTERY = [inst for inst in criterion_03_instances()
           if inst.arities not in ((5, 5), (3, 3, 3))]


@pytest.mark.parametrize("inst", BATTERY, ids=lambda inst: str(inst.arities))
def test_vertices_match_every_basis_search(inst):
    assert_same_vertices(lp.standard_model(inst.measures))


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
    # the scenario takes the products of per-fiber vertices; the whole
    # pair-constrained polytope, searched over every feasible basis, must
    # have the same vertices
    calls = []
    pair_polytope_vertices = scenarios.pair_polytope_vertices

    def spy(target_xy, target_xz):
        vertices = pair_polytope_vertices(target_xy, target_xz)
        calls.append((target_xy, target_xz, vertices))
        return vertices

    monkeypatch.setattr(scenarios, "pair_polytope_vertices", spy)
    for seed in range(3):
        report = run_scenario(ScenarioConfig("twoMapDemo", seed=seed,
                                             sizes=(n,) if n else ()))
        assert report["checks"]["vertex_count_ok"]
    monkeypatch.undo()
    assert len(calls) == 3
    for target_xy, target_xz, vertices in calls:
        model = lp.PolytopeModel(target_xy.shape + target_xz.shape[1:],
                                 [lp.MarginalConstraint((0, 1), target_xy),
                                  lp.MarginalConstraint((0, 2), target_xz)])
        got = sorted((v.reshape(-1) for v in vertices), key=lp._vertex_key)
        assert_vertices_match(got, every_basis_vertices(model))


def test_uniform_square_visits_few_bases(monkeypatch):
    # 24 vertices: all 3 072 feasible bases, but 384 lexicographic ones
    model = lp.standard_model(tensor_instance(np.zeros((4, 4))).measures)
    monkeypatch.setattr(lp, "MAX_BASES", 384)
    assert len(lp.enumerate_vertices(model)) == 24
    monkeypatch.setattr(lp, "MAX_BASES", 383)
    with pytest.raises(InstanceTooLarge):
        lp.enumerate_vertices(model)


def test_uniform_square_visits_few_bases_on_transport_columns(monkeypatch):
    # the least-cost start visits as many lexicographic bases as phase 1's
    weights = [m.weights for m in tensor_instance(np.zeros((4, 4))).measures]
    monkeypatch.setattr(lp, "MAX_BASES", 384)
    assert len(lp.enumerate_vertices(weights)) == 24
    monkeypatch.setattr(lp, "MAX_BASES", 383)
    with pytest.raises(InstanceTooLarge):
        lp.enumerate_vertices(weights)


def test_oracle_and_two_map_demo_build_no_dense_model_and_run_no_phase_one(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense model built or phase 1 run")

    monkeypatch.setattr(lp.PolytopeModel, "__init__", refuse)
    monkeypatch.setattr(lp, "_feasible_basis", refuse)
    assert len(lp.oracle_enumerate(point_instance(1, (3, 4)))) > 1
    assert len(lp.oracle_enumerate(point_instance(2, (2, 3, 2), uniform=False))) > 1
    for n in (0, 4):
        report = run_scenario(ScenarioConfig("twoMapDemo", seed=5, sizes=(n,) if n else ()))
        assert report["passed"]


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
