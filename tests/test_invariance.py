"""Invariance of `lp.solve` under cost scaling, shifting, per-axis terms,
point translation and axis permutation, on the tree core (N=2) and the
dense core (N=3), and the paper's pair reduction theorem as an independent
check of the uniqueness certificate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from momt import lp
from momt.costs import CostSpec
from momt.errors import NotAGraph
from momt.instance import DiscreteInstance
from momt.measure import DiscreteMeasure, Space
from momt.reduction import reconstruct_from_pair_reductions, solve_pair_reductions
from momt.scenarios import ScenarioConfig, gen_gangbo_swiech
from momt.tolerances import DUAL_FEAS_TOL, GAP_TOL, cost_scaled
from conftest import random_instance, tensor_instance, twin_surplus_instance, twin_tensor


def tensor_case(seed, n_axes, twin):
    """Generic Dirichlet tensor instance, or one whose optimum is never unique."""
    rng = np.random.default_rng(seed)
    if twin:
        values, weights = twin_tensor(rng)
        if n_axes == 2:
            values, weights = values[:, :, 0], weights[:2]
        return values, weights
    shape = tuple(rng.integers(2, 7 if n_axes == 2 else 5, n_axes))
    return rng.uniform(0.0, 1.0, shape), [rng.dirichlet(np.ones(n)) for n in shape]


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_axes=st.sampled_from([2, 3]),
       twin=st.booleans(), sense=st.sampled_from(["min", "max"]),
       log_scale=st.floats(-12.0, 12.0), shift=st.floats(-1.0, 1.0))
def test_scaling_and_shifting_the_cost_keeps_the_answer(seed, n_axes, twin, sense,
                                                        log_scale, shift):
    # a shift means something only while the scaled span stays far above
    # the shift's rounding, so |t| is also held below s * 2**16
    values, weights = tensor_case(seed, n_axes, twin)
    s = 10.0 ** log_scale
    t = shift * min(1e9, s * 2.0**16)
    inst = tensor_instance(values, weights, sense)
    moved = tensor_instance(values * s + t, weights, sense)
    res, out = lp.solve(inst), lp.solve(moved)
    grid = moved.cost_grid()
    expected = res.value * s + t
    assert abs(out.value - expected) <= GAP_TOL * np.ptp(grid) + 4 * np.spacing(abs(t))
    status = lp.uniqueness_certificate(inst, res).status
    assert lp.uniqueness_certificate(moved, out).status == status
    if status == "unique":
        assert set(out.plan.entries) == set(res.plan.entries)
    assert out.potentials.feasibility_violation(grid) <= cost_scaled(DUAL_FEAS_TOL, grid)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_axes=st.sampled_from([2, 3]),
       sense=st.sampled_from(["min", "max"]), data=st.data())
def test_permuting_axes_permutes_plan_and_potentials(seed, n_axes, sense, data):
    values, weights = tensor_case(seed, n_axes, twin=False)
    perm = data.draw(st.permutations(range(n_axes)))
    inst = tensor_instance(values, weights, sense)
    moved = tensor_instance(values.transpose(perm), [weights[k] for k in perm], sense)
    res, out = lp.solve(inst), lp.solve(moved)
    span = np.ptp(values)
    assert abs(out.value - res.value) <= GAP_TOL * span
    # generic weights and costs: the optimum is unique and nondegenerate, so
    # the plan and (up to gauge) the potentials are too
    assert lp.uniqueness_certificate(inst, res).status == "unique"
    plan = {tuple(idx[k] for k in perm): m for idx, m in res.plan.entries.items()}
    assert set(out.plan.entries) == set(plan)
    assert max(abs(out.plan.entries[idx] - m) for idx, m in plan.items()) <= 1e-12
    back = [None] * n_axes
    for pos, k in enumerate(perm):
        back[k] = out.potentials.vectors[pos]
    for mine, theirs in zip(res.potentials.vectors,
                            lp._canonical_gauge(back, inst.measures)):
        assert np.abs(mine - theirs).max() <= 1e-9 * span


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_axes=st.sampled_from([2, 3]),
       sense=st.sampled_from(["min", "max"]), twin=st.booleans())
def test_per_axis_terms_keep_the_status_and_a_unique_support(seed, n_axes, sense, twin):
    # c + sum_k f_k(x_k) changes every plan's cost by the same constant; on
    # integers both grids are exact, so only the solver's path may differ
    rng = np.random.default_rng(seed)
    if twin:
        values, weights = tensor_case(seed, n_axes, twin=True)
        values = np.round(values * 8.0)
    else:
        shape = tuple(rng.integers(2, 6, n_axes))
        values = rng.integers(0, 6, shape).astype(float)
        weights = [rng.dirichlet(np.ones(n)) for n in shape]
    terms = [rng.integers(-20, 21, n).astype(float) for n in values.shape]
    moved = values.copy()
    for k, f in enumerate(terms):
        moved += f.reshape((1,) * k + (-1,) + (1,) * (n_axes - k - 1))
    inst = tensor_instance(values, weights, sense)
    other = tensor_instance(moved, weights, sense)
    res, out = lp.solve(inst), lp.solve(other)
    constant = sum(float(f @ w) for f, w in zip(terms, weights))
    assert abs(out.value - (res.value + constant)) <= cost_scaled(GAP_TOL, moved)
    status = lp.uniqueness_certificate(inst, res).status
    assert lp.uniqueness_certificate(other, out).status == status
    if status == "unique":
        assert set(out.plan.entries) == set(res.plan.entries)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["attractive", "repulsive", "mongeQuadratic"]),
       data=st.data())
def test_translating_dyadic_points_keeps_the_plan_bit_for_bit(seed, kind, data):
    # quarter-integer points and power-of-two offsets: every shifted point
    # and every difference is exact, so the translated instance is the same
    # problem in floats, and these kinds are tabulated from differences
    rng = np.random.default_rng(seed)
    n_axes = 3 if kind == "mongeQuadratic" else data.draw(st.sampled_from([2, 3]))
    d = data.draw(st.integers(1, 3))
    offset = np.array([data.draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** data.draw(
        st.integers(0, 40)) for _ in range(d)])
    sense = data.draw(st.sampled_from(["min", "max"]))
    sizes = rng.integers(2, 6, n_axes)
    points = []
    for n in sizes:
        first = rng.choice(np.arange(-32, 33), n, replace=False)[:, None]
        points.append(np.hstack([first, rng.integers(-32, 33, (n, d - 1))]) / 4.0)
    weights = [rng.dirichlet(np.ones(n)) for n in sizes]

    def instance(shift):
        spaces = [Space(f"X{k}", p + shift) for k, p in enumerate(points)]
        return DiscreteInstance(spaces, [DiscreteMeasure(s, w)
                                         for s, w in zip(spaces, weights)],
                                CostSpec(kind, sense))

    inst, moved = instance(0.0), instance(offset)
    assert moved.cost_grid().tobytes() == inst.cost_grid().tobytes()
    res, out = lp.solve(inst), lp.solve(moved)
    assert out.plan.entries == res.plan.entries
    assert out.value == res.value


def _pair_theorem_holds(inst, res):
    """Every pair reduction (0, j) is certified unique and a graph over axis 0,
    and the plan rebuilt from them is the solve's."""
    pairs = solve_pair_reductions(inst, res.potentials)
    try:
        _, report = reconstruct_from_pair_reductions(inst, pairs, res.plan)
    except NotAGraph:
        return False
    graph = all(len(f) == 1 for f in pairs[inst.n_axes - 1][1].plan.fibers(0).values())
    return graph and report.hypothesis_holds and report.passed


def _theorem_cases():
    for seed in range(12):
        yield gen_gangbo_swiech(ScenarioConfig("gs", seed=seed, sizes=(6,)))
    for seed in range(6):
        for n_axes in (3, 4):
            yield gen_gangbo_swiech(ScenarioConfig("gs", seed=seed, sizes=(4,),
                                                   extras={"n_axes": n_axes}))
    for seed in range(24):
        yield random_instance(seed + 1200, n_axes=3 + seed % 2, max_atoms=4,
                              kind=("surplus", "attractive")[seed % 2],
                              sense=("min", "max")[seed % 3 == 0], uniform=seed % 4 == 0)
    for seed in range(4):                       # never unique
        yield twin_surplus_instance(seed, n=4)
        yield tensor_instance(*twin_tensor(np.random.default_rng(seed)))


def test_pair_reduction_theorem_agrees_with_the_face_lp():
    # the pair problems solve on the tree and the full problem on the dense
    # core: two independent proofs of uniqueness that must never disagree
    outcomes = set()
    for inst in _theorem_cases():
        res = lp.solve(inst)
        holds = _pair_theorem_holds(inst, res)
        status = lp.uniqueness_certificate(inst, res).status
        if holds:
            assert status == "unique"
        if status == "non-unique":
            assert not holds
        outcomes.add((holds, status))
    assert {(True, "unique"), (False, "unique"), (False, "non-unique")} <= outcomes
