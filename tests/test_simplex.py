"""Simplex core: pivot rules, scale handling, strictly complementary duals."""

import numpy as np
import pytest

from momt import lp
from momt.costs import CostSpec
from momt.instance import DiscreteInstance
from momt.measure import DiscreteMeasure, Space
from momt.scenarios import ScenarioConfig, gen_gangbo_swiech
from momt.tolerances import DUAL_FEAS_TOL, GAP_TOL
from conftest import random_instance, tensor_instance, twin_surplus_instance


def point_instance(seed, shape, kind="surplus", sense="min", uniform=True):
    rng = np.random.default_rng(seed)
    spaces = [Space(f"S{k}", rng.normal(size=(n, 2))) for k, n in enumerate(shape)]
    weights = [np.ones(n) if uniform else rng.uniform(0.3, 1.0, n) for n in shape]
    measures = [DiscreteMeasure(s, w / w.sum()) for s, w in zip(spaces, weights)]
    return DiscreteInstance(spaces, measures, CostSpec(kind, sense))


def assert_optimal_certificate(inst, res):
    span = float(np.ptp(inst.cost_grid())) or 1.0
    assert res.potentials.feasibility_violation(inst.cost_grid()) <= DUAL_FEAS_TOL * span
    assert res.duality_gap <= GAP_TOL * span
    assert lp.is_vertex(res.plan, inst.measures)


# -- pivot rules -----------------------------------------------------------------

# Beale's example: Dantzig pricing with lowest-index leaving cycles from the
# slack basis; the optimum is -1/20 at x4 = 1/25, x6 = 1, x1 = 3/100
BEALE_A = np.array([[1.0, 0.0, 0.0, 0.25, -60.0, -1 / 25, 9.0],
                    [0.0, 1.0, 0.0, 0.5, -90.0, -1 / 50, 3.0],
                    [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
BEALE_B = np.array([0.0, 0.0, 1.0])
BEALE_C = np.array([0.0, 0.0, 0.0, -0.75, 150.0, -1 / 50, 6.0])


@pytest.mark.parametrize("stall", [0, 1, lp._STALL_PIVOTS])
def test_beale_cycling_lp_terminates_at_optimum(monkeypatch, stall):
    # stall 0 runs Bland's rule throughout, 1 switches at every degenerate pivot
    monkeypatch.setattr(lp, "_STALL_PIVOTS", stall)
    x, y, _ = lp._simplex(BEALE_A, BEALE_B, BEALE_C, basis=[0, 1, 2])
    assert BEALE_C @ x == pytest.approx(-0.05, abs=1e-12)
    assert x == pytest.approx([0.03, 0.0, 0.0, 0.04, 0.0, 1.0, 0.0], abs=1e-12)
    assert y @ BEALE_B == pytest.approx(-0.05, abs=1e-12)
    # phase 1 from artificials reaches the same optimum
    x1, _, _ = lp._simplex(BEALE_A, BEALE_B, BEALE_C)
    assert BEALE_C @ x1 == pytest.approx(-0.05, abs=1e-12)


@pytest.mark.parametrize("shape", [(3, 3), (4, 4), (2, 2, 2), (2, 2, 3)])
def test_degenerate_uniform_instances_match_oracle(shape):
    inst = point_instance(len(shape) * 10 + shape[-1], shape)
    res = lp.solve(inst)
    best = min(v for _, v in lp.oracle_enumerate(inst))
    assert abs(res.value - best) <= 1e-9
    assert_optimal_certificate(inst, res)


def test_degenerate_large_uniform_instances_finish():
    for inst in (point_instance(8, (8, 8, 8)),
                 gen_gangbo_swiech(ScenarioConfig("gs", seed=3, sizes=(8,)))):
        res = lp.solve(inst)
        assert_optimal_certificate(inst, res)


@pytest.mark.parametrize("stall,refactor", [(0, 1), (1, 3), (10**9, 10**9)])
def test_pivot_settings_reach_the_same_optimum(monkeypatch, stall, refactor):
    # Bland throughout, frequent fallbacks with frequent refactorisations,
    # and pure Dantzig pricing on rank-one updates alone all agree
    expected = [lp.solve(point_instance(s, (5, 4, 4))).value for s in range(4)]
    monkeypatch.setattr(lp, "_STALL_PIVOTS", stall)
    monkeypatch.setattr(lp, "_REFACTOR_EVERY", refactor)
    for s, value in enumerate(expected):
        inst = point_instance(s, (5, 4, 4))
        res = lp.solve(inst)
        assert abs(res.value - value) <= 1e-9
        assert_optimal_certificate(inst, res)


def test_values_match_highs_beyond_oracle_caps():
    linprog = pytest.importorskip("scipy.optimize").linprog
    atoms = {2: (10, 21), 3: (5, 9), 4: (4, 6), 5: (3, 5)}   # every grid > 81 cells
    for seed in range(20):
        n_axes = 2 + seed % 4
        shape = np.random.default_rng(seed).integers(*atoms[n_axes], n_axes)
        inst = point_instance(seed + 300, shape,
                              kind=("surplus", "attractive", "repulsive")[seed % 3],
                              sense=("min", "max")[seed % 2], uniform=seed % 5 == 0)
        grid = inst.cost_grid()
        assert grid.size > lp.ORACLE_GRID_CAP
        model = lp.standard_model(inst.measures)
        sign = 1.0 if inst.sense == "min" else -1.0
        ref = linprog(sign * grid.reshape(-1), A_eq=model.A_full, b_eq=model.b_full,
                      bounds=(0, None), method="highs")
        assert ref.status == 0
        res = lp.solve(inst)
        assert abs(res.value - sign * ref.fun) <= GAP_TOL * np.ptp(grid), seed


def test_staircase_basis_is_feasible_and_full_rank():
    for seed in range(10):
        inst = random_instance(seed + 500, n_axes=2 + seed % 4, max_atoms=5,
                               uniform=seed % 2 == 0)
        model = lp.standard_model(inst.measures)
        cells = lp._staircase_basis(inst.measures)
        assert len(cells) == sum(inst.arities) - inst.n_axes + 1 == model.A.shape[0]
        B = model.A[:, cells]
        assert np.linalg.matrix_rank(B) == len(cells)
        assert (np.linalg.solve(B, model.b) >= -1e-12).all()


# -- scale ---------------------------------------------------------------------------

def _scaled_pair(seed, scale, shift):
    rng = np.random.default_rng(seed)
    shape = (4, 5, 3)
    base = rng.uniform(-1, 1, shape)
    weights = [rng.dirichlet(np.ones(n)) for n in shape]
    sense = ("min", "max")[seed % 2]
    return (tensor_instance(base, weights, sense),
            tensor_instance(base * scale + shift, weights, sense))


@pytest.mark.parametrize("scale,shift", [(1e-10, 0.0), (1e12, 0.0), (1.0, 1e9)])
def test_scaled_or_shifted_cost_keeps_the_optimum(scale, shift):
    for seed in range(8):
        inst, moved = _scaled_pair(seed, scale, shift)
        res = lp.solve(inst)
        out = lp.solve(moved)
        expected = res.value * scale + shift
        span = float(np.ptp(moved.cost_grid()))
        # a value near 1e9 is only representable to the spacing of doubles there
        assert abs(out.value - expected) <= GAP_TOL * span + np.spacing(abs(expected)), seed
        assert sorted(out.plan.entries) == sorted(res.plan.entries), seed
        assert out.potentials.feasibility_violation(moved.cost_grid()) <= (
            DUAL_FEAS_TOL * span + 3 * np.spacing(np.abs(moved.cost_grid()).max()))


def _twin_tensor(rng, n=5):
    """Tensor cost whose axis-1 atoms 0 and 1 have identical cost slices.

    The twins weigh 1/3 each and every axis-0 atom less than 2/3, so no
    vertex can give both twins one fiber: swapping them in an optimal plan
    gives a second optimal plan, and the optimum is never unique.
    """
    values = rng.uniform(0.0, 1.0, (n, n, n))
    values[:, 1] = values[:, 0]
    weights = [rng.dirichlet(np.ones(n)) for _ in range(3)]
    weights[1] = np.r_[1 / 3, 1 / 3, weights[1][2:] / weights[1][2:].sum() / 3]
    weights[0] = (weights[0] + 1.0 / n) / 2
    return values, weights


@pytest.mark.parametrize("scale,shift", [(1e12, 0.0), (1e-10, 0.0),
                                         (1.0, 1e9), (1.0, -1e9)])
def test_uniqueness_certificate_ignores_cost_scale_and_shift(scale, shift):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        unique = rng.uniform(0.0, 1.0, (5, 5, 5))
        weights = [rng.dirichlet(np.ones(5)) for _ in range(3)]
        twin, twin_weights = _twin_tensor(rng)
        for values, w, status in ((unique, weights, "unique"),
                                  (twin, twin_weights, "non-unique")):
            for sense in ("min", "max"):
                inst = tensor_instance(values * scale + shift, w, sense)
                res = lp.solve(inst)
                cert = lp.uniqueness_certificate(inst, res.plan, res.value)
                assert cert.status == status, (seed, sense)
                if status == "non-unique":
                    assert cert.witness.total_variation(res.plan) > 1e-6


# -- strictly complementary potentials ----------------------------------------------

def test_unique_optimum_has_the_support_as_minimizing_set():
    unique = 0
    for seed in range(40):
        inst = random_instance(seed + 700, n_axes=2 + seed % 3, max_atoms=4,
                               kind=("surplus", "attractive")[seed % 2],
                               sense=("min", "max")[seed % 3 == 0],
                               uniform=seed % 4 == 0)
        res = lp.solve(inst)
        active = lp.minimizing_set(inst, res.potentials).indices
        assert set(res.plan.support()) <= active
        cert = lp.uniqueness_certificate(inst, res.plan, res.value)
        if cert.status == "unique":
            unique += 1
            assert active == frozenset(res.plan.support()), seed
    assert unique >= 30
    # a second optimal plan lives on the active set too
    for seed in range(4):
        inst = twin_surplus_instance(seed, n=4)
        res = lp.solve(inst)
        active = lp.minimizing_set(inst, res.potentials).indices
        cert = lp.uniqueness_certificate(inst, res.plan, res.value)
        assert cert.status == "non-unique"
        # probe witnesses can carry dust of order 1e-15 on other cells
        witness = {idx for idx, m in cert.witness.entries.items() if m > 1e-12}
        assert set(res.plan.support()) | witness <= active
        assert active != frozenset(res.plan.support())


def test_twin_atoms_stay_active_together():
    # every optimal plan can move mass between the twins, so the union of
    # optimal supports, and the active set, treats both alike
    inst = twin_surplus_instance(3, n=5)
    res = lp.solve(inst)
    active = lp.minimizing_set(inst, res.potentials).indices
    twin_of = {0: 4, 4: 0}
    for idx in list(active):
        if idx[2] in twin_of:
            assert idx[:2] + (twin_of[idx[2]],) in active
