"""Invariance of `lp.solve` under cost scaling, shifting and axis permutation,
on the tree core (N=2) and the dense core (N=3), and the paper's pair
reduction theorem as an independent check of the uniqueness certificate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from momt import lp
from momt.errors import NotAGraph
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


def _pair_theorem_holds(inst, res):
    """Every pair reduction (0, j) is certified unique and a graph over axis 0,
    and the plan rebuilt from them is the solve's."""
    pairs = solve_pair_reductions(inst, res.potentials)
    try:
        _, report = reconstruct_from_pair_reductions(inst, pairs, inst.n_axes - 1, res.plan)
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
