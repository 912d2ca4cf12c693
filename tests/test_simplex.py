"""Simplex core: pivot rules, scale handling, strictly complementary duals."""

import numpy as np
import pytest

from momt import lp
from momt.costs import CostSpec
from momt.instance import DiscreteInstance
from momt.measure import DiscreteMeasure, Space
from momt.scenarios import ScenarioConfig, gen_gangbo_swiech
from momt.tolerances import DUAL_FEAS_TOL, GAP_TOL
from conftest import (dense_simplex, dense_solve, random_instance,
                      tensor_instance, twin_surplus_instance, twin_tensor)


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
    # stall 0 runs the lexicographic leaving rule throughout, 1 anchors it
    # at every degenerate pivot
    monkeypatch.setattr(lp, "_STALL_PIVOTS", stall)
    x, y, _ = dense_simplex(BEALE_A, BEALE_B, BEALE_C, basis=[0, 1, 2])
    assert BEALE_C @ x == pytest.approx(-0.05, abs=1e-12)
    assert x == pytest.approx([0.03, 0.0, 0.0, 0.04, 0.0, 1.0, 0.0], abs=1e-12)
    assert y @ BEALE_B == pytest.approx(-0.05, abs=1e-12)
    # phase 1 from artificials reaches the same optimum
    x1, _, _ = dense_simplex(BEALE_A, BEALE_B, BEALE_C)
    assert BEALE_C @ x1 == pytest.approx(-0.05, abs=1e-12)


@pytest.mark.parametrize("shape", [(3, 3), (4, 4), (2, 2, 2), (2, 2, 3)])
def test_degenerate_uniform_instances_match_oracle(shape):
    inst = point_instance(len(shape) * 10 + shape[-1], shape)
    res = lp.solve(inst)
    best = min(v for _, v in lp.oracle_enumerate(inst))
    assert abs(res.value - best) <= 1e-9
    assert_optimal_certificate(inst, res)


def test_stalled_degenerate_instance_takes_few_pivots():
    # three clouds of 40 uniform points in [-1, 1]^2, surplus cost: Bland's
    # rule as the stall fallback took 4 592 pivots here, the lexicographic
    # rule 1 015 (965 with no fallback at all)
    rng = np.random.default_rng(0)
    spaces = [Space(f"X{k}", rng.uniform(-1, 1, (40, 2))) for k in range(3)]
    w = np.full(40, 1.0 / 40)
    inst = DiscreteInstance(spaces, [DiscreteMeasure(s, w / w.sum()) for s in spaces],
                            CostSpec("surplus", "min"))
    res = lp.solve(inst)
    assert res.iterations <= 2000
    assert_optimal_certificate(inst, res)


def test_degenerate_large_uniform_instances_finish():
    for inst in (point_instance(8, (8, 8, 8)),
                 gen_gangbo_swiech(ScenarioConfig("gs", seed=3, sizes=(8,)))):
        res = lp.solve(inst)
        assert_optimal_certificate(inst, res)


@pytest.mark.parametrize("stall,refactor", [(0, 1), (1, 3), (10**9, 10**9)])
def test_pivot_settings_reach_the_same_optimum(monkeypatch, stall, refactor):
    # the lexicographic rule throughout, frequent fallbacks to it with
    # frequent refactorisations, and pure Dantzig pricing on rank-one
    # updates alone all agree
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


def _start_instances():
    for seed in range(10):
        yield random_instance(seed + 500, n_axes=2 + seed % 4, max_atoms=5,
                              uniform=seed % 2 == 0)
    rng = np.random.default_rng(11)
    for shape in [(4, 4), (3, 5, 2), (2, 3, 1, 4), (3, 3, 3, 2, 2)]:
        uniform = [np.ones(n) / n for n in shape]
        dirichlet = [rng.dirichlet(np.ones(n)) for n in shape]
        yield tensor_instance(np.zeros(shape), uniform)        # constant cost
        yield tensor_instance(np.zeros(shape), dirichlet)
        # exact ties among few cost levels, degenerate and generic weights
        yield tensor_instance(rng.integers(0, 3, shape).astype(float), uniform)
        yield tensor_instance(rng.integers(0, 2, shape).astype(float), dirichlet)


def test_least_cost_basis_is_feasible_and_full_rank():
    for inst in _start_instances():
        model = lp.standard_model(inst.measures)
        c = inst.cost_grid().reshape(-1)
        c = (c - c.min()) / (float(np.ptp(c)) or 1.0)
        cells, masses = lp._least_cost_basis([m.weights for m in inst.measures], c)
        assert cells[0] == int(np.argmin(c))
        assert len(cells) == sum(inst.arities) - inst.n_axes + 1 == model.A.shape[0]
        B = model.A[:, cells]
        assert np.linalg.matrix_rank(B) == len(cells)
        xB = np.linalg.solve(B, model.b)
        assert (xB >= -1e-12).all()
        assert np.abs(xB - masses).max() <= 1e-12


# -- pivot path ------------------------------------------------------------------------

def _reference_price(cols, y):
    if isinstance(cols, lp._DenseColumns):
        return y @ cols.A
    padded = np.append(y, 0.0)
    total = padded[cols.rows[0]]
    for r in cols.rows[1:]:
        total = np.add.outer(total, padded[r])
    return total.reshape(-1)


def _reference_refactor(cols, state):
    m = len(state.basis)
    try:
        state.inverse = np.linalg.solve(cols.matrix(state.basis), np.eye(m))
    except np.linalg.LinAlgError as exc:
        raise lp.SolverError(f"singular basis: {exc}") from exc
    state.updates = 0


def _reference_exchange(state, p, entering, d):
    inv = state.inverse
    row = inv[p] / d[p]
    inv -= np.outer(d, row)
    inv[p] = row
    state.basis[p] = entering
    state.updates += 1


def _reference_pivot_loop(cols, b, costs, state, allow_enter, max_iter=lp._MAX_PIVOTS):
    """`lp._pivot_loop` as it was with numpy calls for every step: the oracle."""
    m, n = len(b), cols.n
    blocked = ~allow_enter
    basic = np.asarray(state.basis)
    blocked[basic[basic < n]] = True
    rejected = []
    stalled = 0
    anchor = None
    while True:
        if state.inverse is None or state.updates >= lp._REFACTOR_EVERY:
            _reference_refactor(cols, state)
        inv = state.inverse
        xB = inv @ b
        y = costs[state.basis] @ inv
        reduced = costs[:n] - _reference_price(cols, y)
        np.putmask(reduced, blocked, np.inf)
        entering = int(np.argmin(reduced))
        if not reduced[entering] < -lp.REDUCED_COST_TOL:
            if state.updates == 0:
                return xB, y
            state.inverse = None
            continue
        if stalled >= lp._STALL_PIVOTS and anchor is None:
            anchor = list(state.basis)
        d = inv @ cols.column(entering)
        pos = d > lp.RATIO_TOL
        if not pos.any():
            raise lp.SolverError("unbounded direction on a mass polytope")
        ratios = np.full(m, np.inf)
        ratios[pos] = np.maximum(xB[pos], 0.0) / d[pos]
        rmin = ratios.min()
        tied = np.flatnonzero(ratios <= rmin + 1e-10 * (1.0 + rmin))
        if anchor is not None and len(tied) > 1:
            leaving = tied[lp._lex_leaving(np.ones((len(tied), 1), dtype=bool),
                                           d[tied, None],
                                           inv[tied] @ cols.matrix(anchor))[0]]
        else:
            leaving = tied[np.argmax(d[tied])]
        dmax = np.abs(d).max()
        if state.updates and d[leaving] < lp._SMALL_PIVOT * dmax:
            state.inverse = None
            continue
        if d[leaving] < lp._TINY_PIVOT * dmax:
            blocked[entering] = True
            rejected.append(entering)
            continue
        if rejected:
            blocked[rejected] = False
            rejected.clear()
        state.iterations += 1
        if state.iterations > max_iter:
            raise lp.SolverError("simplex iteration cap exceeded")
        stalled = stalled + 1 if rmin <= lp.RATIO_TOL else 0
        if not stalled:
            anchor = None
        if state.basis[leaving] < n:
            blocked[state.basis[leaving]] = not allow_enter[state.basis[leaving]]
        blocked[entering] = True
        _reference_exchange(state, leaving, entering, d)


def _copy_state(state):
    inverse = None if state.inverse is None else state.inverse.copy()
    return lp._SimplexState(list(state.basis), state.iterations, inverse, state.updates)


@pytest.fixture
def pivot_calls(monkeypatch):
    """Run the oracle beside every `_pivot_loop` call and require the same path.

    Yields the number of calls made and of lexicographic tie-breaks taken.
    """
    seen = {"calls": 0, "lex": 0}
    loop, lex = lp._pivot_loop, lp._lex_leaving

    def counted_lex(*args):
        seen["lex"] += 1
        return lex(*args)

    def checked(cols, b, costs, state, allow_enter, *rest):
        twin = _copy_state(state)
        xB_ref, y_ref = _reference_pivot_loop(cols, b, costs, twin, allow_enter.copy(),
                                              *rest)
        xB, y = loop(cols, b, costs, state, allow_enter, *rest)
        assert state.basis == twin.basis
        assert state.iterations == twin.iterations
        assert state.updates == twin.updates
        assert xB.tobytes() == xB_ref.tobytes()
        assert y.tobytes() == y_ref.tobytes()
        assert state.inverse.tobytes() == twin.inverse.tobytes()
        seen["calls"] += 1
        return xB, y

    monkeypatch.setattr(lp, "_pivot_loop", checked)
    monkeypatch.setattr(lp, "_lex_leaving", counted_lex)
    yield seen


@pytest.mark.parametrize("n_axes,n", [(2, 12), (2, 20), (3, 7), (4, 5), (5, 3), (5, 4)])
def test_pivot_path_matches_the_oracle(pivot_calls, n_axes, n):
    # `solve` runs two-marginal instances on the tree core, so those drive
    # `_pivot_loop` on their implicit transport columns directly
    for seed in range(4):
        rng = np.random.default_rng([seed, n_axes, n])
        spaces = [Space(f"X{k}", rng.uniform(-1, 1, (n, 2))) for k in range(n_axes)]
        weights = [np.full(n, 1.0 / n) if seed % 2 else rng.dirichlet(np.ones(n))
                   for _ in range(n_axes)]
        sense = ("min", "max")[seed % 2]
        cost = (CostSpec("tensor", sense, {"values": rng.uniform(0, 1, (n,) * n_axes)})
                if seed == 3 else CostSpec(("surplus", "attractive", "repulsive")[seed],
                                           sense))
        inst = DiscreteInstance(spaces, [DiscreteMeasure(s, w / w.sum())
                                         for s, w in zip(spaces, weights)], cost)
        dense_solve(inst) if n_axes == 2 else lp.solve(inst)
    assert pivot_calls["calls"] >= 4


def test_pivot_path_matches_the_oracle_through_the_lexicographic_rule(pivot_calls):
    rng = np.random.default_rng(0)
    spaces = [Space(f"X{k}", rng.uniform(-1, 1, (40, 2))) for k in range(3)]
    w = np.full(40, 1.0 / 40)
    inst = DiscreteInstance(spaces, [DiscreteMeasure(s, w / w.sum()) for s in spaces],
                            CostSpec("surplus", "min"))
    lp.solve(inst)
    assert pivot_calls["lex"] > 0


def test_pivot_path_matches_the_oracle_through_the_face_lp(pivot_calls):
    for seed in range(4):
        res = lp.solve(twin_surplus_instance(seed, n=4))
        assert res.second_vertex is not None
    assert pivot_calls["calls"] >= 8            # each solve ran a face LP


def test_pivot_path_matches_the_oracle_in_phase_one(pivot_calls):
    for seed in range(6):
        inst = random_instance(seed + 900, n_axes=2 + seed % 3, max_atoms=4,
                               uniform=seed % 2 == 0)
        model = lp.standard_model(inst.measures)
        lp.solve_model(model, inst.cost_grid().reshape(-1))
    dense_simplex(BEALE_A, BEALE_B, BEALE_C)
    assert pivot_calls["calls"] == 14          # phase 1 and phase 2 of each


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


@pytest.mark.parametrize("scale,shift", [(1e12, 0.0), (1e-10, 0.0),
                                         (1.0, 1e9), (1.0, -1e9)])
def test_uniqueness_certificate_ignores_cost_scale_and_shift(scale, shift):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        unique = rng.uniform(0.0, 1.0, (5, 5, 5))
        weights = [rng.dirichlet(np.ones(5)) for _ in range(3)]
        twin, twin_weights = twin_tensor(rng)
        for values, w, status in ((unique, weights, "unique"),
                                  (twin, twin_weights, "non-unique")):
            for sense in ("min", "max"):
                inst = tensor_instance(values * scale + shift, w, sense)
                res = lp.solve(inst)
                cert = lp.uniqueness_certificate(inst, res)
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
        cert = lp.uniqueness_certificate(inst, res)
        if cert.status == "unique":
            unique += 1
            assert active == frozenset(res.plan.support()), seed
    assert unique >= 30
    # a second optimal plan lives on the active set too
    for seed in range(4):
        inst = twin_surplus_instance(seed, n=4)
        res = lp.solve(inst)
        active = lp.minimizing_set(inst, res.potentials).indices
        cert = lp.uniqueness_certificate(inst, res)
        assert cert.status == "non-unique"
        assert set(res.plan.support()) | set(cert.witness.entries) <= active
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
