from itertools import combinations

import numpy as np
import pytest

from momt import lp
from momt.errors import InstanceTooLarge, MarginalMismatch, NonFiniteCost
from momt.measure import Coupling, DiscreteMeasure, Space
from momt.scenarios import ScenarioConfig, gen_sphere_reflection
from conftest import random_instance, tensor_instance


def test_diagonal_matching():
    inst = tensor_instance([[0.0, 1.0], [1.0, 0.0]])
    res = lp.solve(inst)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.plan.entries == {(0, 0): pytest.approx(0.5),
                                (1, 1): pytest.approx(0.5)}


def test_singleton_axes():
    inst = tensor_instance(np.full((1, 1, 1), 4.25))
    res = lp.solve(inst)
    assert res.value == pytest.approx(4.25)
    assert res.plan.entries == {(0, 0, 0): pytest.approx(1.0)}


def test_value_matches_enumeration_oracle_seed3():
    inst = random_instance(3, n_axes=3, max_atoms=3, kind="surplus", sense="min")
    res = lp.solve(inst)
    oracle = lp.oracle_enumerate(inst)
    assert abs(min(v for _, v in oracle) - res.value) < 1e-9


def test_nonfinite_cost_rejected():
    vals = np.zeros((2, 2))
    vals[0, 0] = np.nan
    with pytest.raises(NonFiniteCost):
        tensor_instance(vals).cost_grid()


def test_grid_cap():
    inst = random_instance(0, n_axes=3, max_atoms=4)
    with pytest.raises(InstanceTooLarge):
        lp.solve(inst, grid_cap=10)


def test_solve_batch_invariants():
    # strong duality, complementary slackness, full-grid dual feasibility,
    # and basic (vertex) output over a hundred seeded instances
    for seed in range(100):
        inst = random_instance(
            seed,
            n_axes=2 + seed % 3,
            max_atoms=4,
            kind=("surplus", "attractive", "repulsive")[seed % 3],
            sense=("min", "max")[seed % 2],
            uniform=seed % 4 == 0,
        )
        res = lp.solve(inst)
        assert res.duality_gap <= 1e-8
        assert res.slack_residual <= 1e-8
        assert res.potentials.feasibility_violation(inst.cost_grid()) <= 1e-9
        assert lp.is_vertex(res.plan, inst.measures)
        dual = res.potentials.dual_value(inst.measures)
        assert abs(dual - res.value) <= 1e-8


def test_potentials_gauge_zero_means():
    inst = random_instance(12, n_axes=3)
    res = lp.solve(inst)
    for k in range(1, 3):
        mean = res.potentials.vectors[k] @ inst.measures[k].weights
        assert abs(mean) < 1e-10


def test_minimizing_set_contains_support():
    inst = random_instance(6, n_axes=3, sense="max")
    res = lp.solve(inst)
    mset = lp.minimizing_set(inst, res.potentials)
    for idx in res.plan.support():
        assert idx in mset


# -- vertex test --------------------------------------------------------------

def test_graph_coupling_is_vertex():
    X = Space("X", np.array([[0.0], [1.0], [2.0]]))
    mu = DiscreteMeasure(X, np.array([0.2, 0.3, 0.5]))
    plan = Coupling((3, 3), {(0, 1): 0.2, (1, 2): 0.3, (2, 0): 0.5})
    nu = DiscreteMeasure(X, plan.axis_marginal(1))
    assert lp.is_vertex(plan, [mu, nu])


def test_uniform_product_is_not_vertex():
    X = Space("X", np.array([[0.0], [1.0]]))
    mu = DiscreteMeasure(X, np.array([0.5, 0.5]))
    plan = Coupling.from_dense(np.full((2, 2), 0.25))
    assert not lp.is_vertex(plan, [mu, mu])


def test_is_vertex_checks_feasibility():
    X = Space("X", np.array([[0.0], [1.0]]))
    mu = DiscreteMeasure(X, np.array([0.5, 0.5]))
    bad = DiscreteMeasure(X, np.array([0.25, 0.75]))
    plan = Coupling.from_dense(np.full((2, 2), 0.25))
    with pytest.raises(MarginalMismatch):
        lp.is_vertex(plan, [mu, bad])


def test_every_three_marginal_vertex_is_pair_constrained_vertex():
    # vertices of the full polytope remain vertices after pinning their own
    # two-axis restriction together with the remaining single marginal
    inst = random_instance(21, n_axes=3, max_atoms=2, uniform=True)
    for plan, _ in lp.oracle_enumerate(inst):
        model = lp.PolytopeModel(
            plan.arities,
            [lp.MarginalConstraint((0, 1), plan.marginal_on((0, 1))),
             lp.MarginalConstraint((2,), plan.axis_marginal(2))],
        )
        assert lp.is_vertex(plan, model)


# -- enumeration oracle --------------------------------------------------------

def test_two_by_two_uniform_has_two_vertices():
    inst = tensor_instance(np.zeros((2, 2)))
    verts = lp.oracle_enumerate(inst)
    assert len(verts) == 2
    supports = sorted(tuple(sorted(v.entries)) for v, _ in verts)
    assert supports == [((0, 0), (1, 1)), ((0, 1), (1, 0))]


def test_single_point_grid_has_one_vertex():
    inst = tensor_instance(np.zeros((1, 1, 1)))
    assert len(lp.oracle_enumerate(inst)) == 1


def support_enumerate(model):
    """Brute-force vertex enumeration over support patterns.

    Independent cross-check for the pivoting oracle; only viable on grids of
    a dozen cells or so.
    """
    A, b = model.A, model.b
    m, n = A.shape
    if n > 12:
        raise InstanceTooLarge("support enumeration is capped at 12 grid cells")
    rank = int(np.linalg.matrix_rank(A, tol=lp.VERTEX_PIVOT_TOL))
    found: dict[tuple, np.ndarray] = {}
    for size in range(1, rank + 1):
        for cols in combinations(range(n), size):
            sub = A[:, cols]
            if np.linalg.matrix_rank(sub, tol=lp.VERTEX_PIVOT_TOL) < size:
                continue
            sol, res, *_ = np.linalg.lstsq(sub, b, rcond=None)
            if (sol <= 1e-12).any():
                continue
            if np.abs(sub @ sol - b).max() > 1e-9:
                continue
            x = np.zeros(n)
            x[list(cols)] = sol
            found.setdefault(lp._vertex_key(x), x)
    return [found[k] for k in sorted(found)]


def test_oracle_matches_support_enumeration_2x2x2():
    inst = random_instance(14, n_axes=3, max_atoms=2, uniform=True)
    verts_pivot = lp.oracle_enumerate(inst)
    model = lp.standard_model(inst.measures)
    verts_brute = support_enumerate(model)

    def key(x):
        return tuple((int(c), round(float(x[c]), 10))
                     for c in np.flatnonzero(x > 1e-10))

    flat = {key(v.to_dense().reshape(-1)) for v, _ in verts_pivot}
    assert flat == {key(x) for x in verts_brute}


def test_oracle_caps_enforced():
    with pytest.raises(InstanceTooLarge):
        lp.oracle_enumerate(tensor_instance(np.zeros((5, 5, 5))))
    # within the cell cap but beyond the atom cap
    with pytest.raises(InstanceTooLarge):
        lp.oracle_enumerate(tensor_instance(np.zeros((7, 7))))


def test_oracle_agreement_random_batch():
    for seed in range(12):
        inst = random_instance(seed + 100, n_axes=(2, 3)[seed % 2], max_atoms=3,
                               sense=("min", "max")[seed % 2])
        res = lp.solve(inst)
        values = [v for _, v in lp.oracle_enumerate(inst)]
        best = min(values) if inst.sense == "min" else max(values)
        assert abs(best - res.value) < 1e-9


# -- uniqueness certificate ----------------------------------------------------

def test_unique_diagonal_certificate():
    inst = tensor_instance([[0.0, 1.0], [1.0, 0.0]])
    res = lp.solve(inst)
    assert res.second_vertex is None
    cert = lp.uniqueness_certificate(inst, res)
    assert cert.status == "unique"
    assert cert.witness is None
    assert cert.face_probe_value_gap == cert.max_tv_gap == 0.0


def test_zero_cost_is_non_unique_with_witness():
    inst = tensor_instance(np.zeros((2, 2)))
    res = lp.solve(inst)
    cert = lp.uniqueness_certificate(inst, res)
    assert cert.status == "non-unique"
    assert cert.witness is not None
    grid = inst.cost_grid()
    value = sum(grid[idx] * m for idx, m in cert.witness.entries.items())
    assert abs(value - res.value) <= 1e-8
    assert cert.witness.total_variation(res.plan) > 1e-6


def test_reflection_witness_on_minimal_mirror_instance():
    # one cluster of two plane atoms against a single mirror pair: the
    # optimal face has exactly the two assignments, so the probe witness is
    # exactly the reflected plan
    config = ScenarioConfig("sphereReflection", seed=3, sizes=(1,))
    inst, reflection, _ = gen_sphere_reflection(config)
    res = lp.solve(inst)
    reflected = res.plan.push_axis_map(2, reflection)
    cert = lp.uniqueness_certificate(inst, res)
    assert cert.status == "non-unique"
    assert cert.witness.total_variation(reflected) < 1e-12
