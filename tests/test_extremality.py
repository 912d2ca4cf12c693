from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momt import lp
from momt.errors import SingularMatrix, ZeroXi
from momt.extremality import (
    NotDecomposable,
    OrderedPartition,
    _gain_thresholds,
    check_c_extreme,
    check_cyclical_monotonicity,
    detect_map_decomposition,
    fiber_report,
    gw_second_solution,
    gw_twist_count,
)
from momt.measure import Coupling
from conftest import random_instance, tensor_instance


# -- cyclical monotonicity ------------------------------------------------------

def _cycle_gain(points, perms, cost_grid, sign):
    """Original total minus permuted total, oriented so positive = violation."""
    base = sum(cost_grid[p] for p in points)
    permuted = 0.0
    M = len(points)
    for m in range(M):
        idx = tuple(
            points[perm[m]][axis] if perm is not None else points[m][axis]
            for axis, perm in enumerate(perms)
        )
        permuted += cost_grid[idx]
    return sign * (base - permuted)


def _reference_monotonicity(support, cost_grid, sense, max_cycle, tol=1e-9):
    """The first cycle of 2..max_cycle points that gains more than the
    threshold, as (points, permutation tuple, gain), or None: every subset
    against every permutation tuple of axes 1..N-1, one `_cycle_gain` call
    per tuple (the oracle)."""
    support = sorted(tuple(p) for p in support)
    n_axes = cost_grid.ndim
    sign = 1.0 if sense == "min" else -1.0
    threshold = _gain_thresholds(cost_grid, tol)

    def all_perm_tuples(M):
        per_axis = list(permutations(range(M)))
        def rec(axis):
            if axis == n_axes:
                yield ()
                return
            for tail in rec(axis + 1):
                for p in per_axis:
                    yield (p,) + tail
        for tail in rec(1):
            yield (None,) + tail

    for M in range(2, min(max_cycle, len(support)) + 1):
        identity = tuple(range(M))
        for points in combinations(support, M):
            for perms in all_perm_tuples(M):
                if all(p is None or p == identity for p in perms):
                    continue
                gain = _cycle_gain(points, perms, cost_grid, sign)
                if gain > threshold(M):
                    return points, perms, gain
    return None


def _potentials_of(grid, weights=None, sense="min"):
    return lp.solve(tensor_instance(grid, weights, sense)).potentials


def _slack_bound(support, grid, potentials):
    """r + v of the proof, computed independently: the largest |sigma| on
    the support plus the worst dual violation."""
    sign = 1.0 if potentials.sense == "min" else -1.0
    total = sum(np.expand_dims(phi, [a for a in range(grid.ndim) if a != k])
                for k, phi in enumerate(potentials.vectors))
    sigma = sign * (grid - total)
    return max(abs(sigma[p]) for p in support) + max(0.0, -sigma.min())


def test_optimal_support_is_monotone():
    inst = random_instance(15, n_axes=3, max_atoms=4, sense="max")
    res = lp.solve(inst)
    report = check_cyclical_monotonicity(res.plan.support(), inst.cost_grid(),
                                         res.potentials)
    assert report.passed
    assert 0.0 <= report.bound <= report.threshold
    assert _reference_monotonicity(res.plan.support(), inst.cost_grid(), "max", 3) is None


def test_product_support_violates_for_bilinear_cost():
    # minimizing x*y on {0,1}^2: the diagonal support loses to the swap
    grid = np.array([[0.0, 0.0], [0.0, 1.0]])
    diagonal = [(0, 0), (1, 1)]
    points, _, gain = _reference_monotonicity(diagonal, grid, "min", 2)
    assert set(points) == set(diagonal)
    assert gain == pytest.approx(1.0)
    report = check_cyclical_monotonicity(diagonal, grid, _potentials_of(grid))
    assert not report.passed
    # the bound dominates every cycle's gain, this one's included
    assert report.bound >= gain > report.threshold


def test_singleton_support_passes():
    grid = np.array([[3.0]])
    report = check_cyclical_monotonicity([(0, 0)], grid, _potentials_of(grid))
    assert report.passed
    assert report.bound == 0.0


def test_every_cycle_length_is_covered():
    # the proof covers cycles of every size up to the support's, which the
    # enumerator confirms here by trying all of them
    inst = random_instance(2, n_axes=2, max_atoms=4)
    res = lp.solve(inst)
    support = res.plan.support()
    report = check_cyclical_monotonicity(support, inst.cost_grid(), res.potentials)
    assert report.passed
    assert len(support) >= 4
    assert _reference_monotonicity(support, inst.cost_grid(), "min", len(support)) is None


@st.composite
def _cycle_cases(draw):
    n_axes = draw(st.integers(2, 4))
    shape = tuple(draw(st.lists(st.integers(2, 4), min_size=n_axes, max_size=n_axes)))
    # few distinct values, so ties and zero gains are common; an irrational
    # scale and an offset make the sums round
    codes = draw(st.lists(st.integers(0, 3), min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
    scale = draw(st.sampled_from([1.0, 0.1, np.pi, 1e-3]))
    offset = draw(st.sampled_from([0.0, 0.7, -2.5]))
    grid = np.asarray(codes, dtype=float).reshape(shape) * scale + offset
    weights = [np.asarray(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)),
                          dtype=float) for n in shape]
    sense = draw(st.sampled_from(["min", "max"]))
    res = lp.solve(tensor_instance(grid, [w / w.sum() for w in weights], sense))
    cells = [tuple(int(i) for i in t) for t in np.ndindex(*shape)]
    optimal = res.plan.support()
    # the optimal support, a few cells added to or swapped into it, or any cells
    extra = draw(st.lists(st.sampled_from(cells), max_size=3, unique=True))
    support = draw(st.sampled_from([
        optimal,
        sorted(set(optimal) | set(extra)),
        sorted(set(optimal[len(extra):]) | set(extra)) or optimal,
        sorted(set(extra[:1] + draw(st.lists(st.sampled_from(cells), min_size=1,
                                             max_size=5, unique=True)))),
    ]))
    tol = draw(st.sampled_from([0.0, 1e-9, 0.05, 0.3, 1.0]))
    return grid, support, res.potentials, tol, support == optimal


@settings(max_examples=150, deadline=None)
@given(_cycle_cases())
def test_proof_agrees_with_the_cycle_enumerator(case):
    grid, support, potentials, tol, optimal = case
    report = check_cyclical_monotonicity(support, grid, potentials, tol=tol)
    violation = _reference_monotonicity(support, grid, potentials.sense, 3, tol)
    # a violating cycle of at most 3 points fails the proof, so a passing
    # proof leaves the enumerator nothing to find
    if violation is not None:
        points, _, gain = violation
        assert not report.passed, violation
        # the duality inequality behind the proof, up to the rounding floor
        M = len(points)
        assert gain <= (M * _slack_bound(support, grid, potentials)
                        + _gain_thresholds(grid, 0.0)(M))
    if optimal and tol > 0:
        assert report.passed
    # the decisive size's bound and threshold decide the verdict
    assert report.passed == (report.bound <= report.threshold)
    assert report.checked_exhaustive == report.checked_sampled == 0


def test_plan_moved_off_optimum_fails_the_proof():
    rng = np.random.default_rng(11)
    for _ in range(5):
        grid = rng.uniform(0.0, 1.0, (5, 5))
        weights = [rng.dirichlet(np.ones(5)) for _ in range(2)]
        res = lp.solve(tensor_instance(grid, weights))
        support = res.plan.support()
        assert check_cyclical_monotonicity(support, grid, res.potentials).passed
        # swap mass along a 2-cycle: two cells of the support give mass to
        # the two cells with their second coordinates exchanged
        (a, b), (c, d) = next((p, q) for p, q in combinations(support, 2)
                              if p[0] != q[0] and p[1] != q[1])
        moved = sorted(set(support) | {(a, d), (c, b)})
        report = check_cyclical_monotonicity(moved, grid, res.potentials)
        assert not report.passed
        assert report.bound > report.threshold


@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_perturbed_potentials_fail_the_proof(shift):
    # moving one atom's potential breaks dual feasibility (up) or tightness
    # on the support (down); both fail the proof on the optimal support
    inst = random_instance(15, n_axes=3, max_atoms=4)
    res = lp.solve(inst)
    grid = inst.cost_grid()
    support = res.plan.support()
    vectors = [v.copy() for v in res.potentials.vectors]
    vectors[1][0] += shift * float(np.ptp(grid))
    bent = lp.Potentials(vectors, res.potentials.sense)
    if shift > 0:
        assert bent.feasibility_violation(grid) > 0
    report = check_cyclical_monotonicity(support, grid, bent)
    assert not report.passed
    assert check_cyclical_monotonicity(support, grid, res.potentials).passed


def test_tight_but_infeasible_potentials_fail_the_proof():
    # potentials tight on the diagonal of the bilinear grid but above the
    # cost at (1, 0): r = 0, so only the dual violation v = 1 catches the
    # swap, which gains 1
    grid = np.array([[0.0, 0.0], [0.0, 1.0]])
    bent = lp.Potentials([np.array([0.0, 1.0]), np.array([0.0, 0.0])], "min")
    assert bent.feasibility_violation(grid) == 1.0
    report = check_cyclical_monotonicity([(0, 0), (1, 1)], grid, bent)
    assert not report.passed
    assert report.bound == 2.0


def test_the_largest_cycle_decides():
    # a uniform slack d on the support: every M-cycle is bounded by M * d,
    # so the support size, not the pair, is the size that must fit
    inst = random_instance(15, n_axes=3, max_atoms=4)
    res = lp.solve(inst)
    grid = inst.cost_grid()
    support = res.plan.support()
    s = len(support)
    threshold = _gain_thresholds(grid, 1e-9)
    for d, passed in ((threshold(s) / (s + 1), True), (threshold(2) / 3, False)):
        vectors = [v.copy() for v in res.potentials.vectors]
        vectors[0] -= d
        report = check_cyclical_monotonicity(support, grid, lp.Potentials(vectors, "min"))
        assert report.passed == passed, d
        assert report.bound == pytest.approx(s * d, rel=1e-3)
        assert report.threshold == threshold(s)


@pytest.mark.parametrize("seed", [161, 554, 1474, 1979])
def test_three_cycle_violation_fails_the_proof(seed):
    # supports whose first violation is a 3-cycle: no dual-feasible
    # potentials certify them, so the proof fails under the grid's own
    rng = np.random.default_rng(seed)
    grid = rng.uniform(-1, 1, (3, 3, 3)) * np.pi + 0.7
    cells = [tuple(int(i) for i in t) for t in np.ndindex(3, 3, 3)]
    support = [cells[i] for i in rng.choice(27, 3, replace=False)]
    points, _, gain = _reference_monotonicity(support, grid, "min", 3)
    assert len(points) == 3
    potentials = _potentials_of(grid)
    report = check_cyclical_monotonicity(support, grid, potentials)
    assert not report.passed
    assert 3 * _slack_bound(support, grid, potentials) >= gain


def test_thirteen_cell_support_fails_the_proof_in_both_senses():
    rng = np.random.default_rng(3)
    grid = rng.uniform(0.0, 1.0, (3, 3, 3, 3))
    cells = [tuple(int(i) for i in t) for t in np.ndindex(3, 3, 3, 3)]
    support = [cells[i] for i in rng.choice(len(cells), 13, replace=False)]
    for sense in ("min", "max"):
        assert _reference_monotonicity(support, grid, sense, 3) is not None
        report = check_cyclical_monotonicity(support, grid,
                                             _potentials_of(grid, sense=sense))
        assert not report.passed


def test_report_counts_stay_zero():
    # the benchmark's layer trace reads checked_exhaustive + checked_sampled
    grid = np.zeros((3, 3, 3, 3))
    support = [tuple(int(i) for i in t) for t in np.ndindex(3, 3, 3, 3)][:13]
    report = check_cyclical_monotonicity(support, grid, _potentials_of(grid))
    assert report.passed
    assert (report.checked_exhaustive, report.checked_sampled) == (0, 0)
    assert report.bound == 0.0


def test_long_cycles_are_proved_without_a_cap():
    # every cycle up to 13 points: those of up to 8 points alone are about
    # 2.1e12 permutation tuples, beyond any enumeration
    i = np.arange(13.0)
    grid = ((i[:, None, None] - i[None, :, None]) ** 2
            + (i[None, :, None] - i[None, None, :]) ** 2)
    res = lp.solve(tensor_instance(grid))
    support = res.plan.support()
    assert support == [(k, k, k) for k in range(13)]
    report = check_cyclical_monotonicity(support, grid, res.potentials)
    assert report.passed


def _tensor_pair(seed, scale=1.0, shift=0.0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, (6, 6, 6))
    weights = [rng.dirichlet(np.ones(6)) for _ in range(3)]
    moved = base * scale + shift
    res = lp.solve(tensor_instance(moved, weights))
    # the maximizer's support is a cycle-violating support for the minimum
    worst = lp.solve(tensor_instance(base, weights, "max")).plan.support()
    return base, moved, res, worst


@pytest.mark.parametrize("scale,shift", [(1e12, 0.0), (1e-12, 0.0),
                                         (1.0, 1e9), (1.0, -1e9)])
def test_monotonicity_ignores_cost_scale_and_shift(scale, shift):
    for seed in range(3):
        base, moved, res, worst = _tensor_pair(seed, scale, shift)
        optimal = res.plan.support()
        assert check_cyclical_monotonicity(optimal, moved, res.potentials).passed, seed
        assert not check_cyclical_monotonicity(worst, moved, res.potentials).passed, seed
        # the same verdicts as on the unmoved cost
        _, _, res0, _ = _tensor_pair(seed)
        assert check_cyclical_monotonicity(optimal, base, res0.potentials).passed, seed
        assert not check_cyclical_monotonicity(worst, base, res0.potentials).passed, seed


# -- fibers and extremality -----------------------------------------------------

def test_graph_support_has_singleton_fibers():
    support = [(0, 2), (1, 0), (2, 1)]
    grid = np.zeros((3, 3))
    report = fiber_report(support, grid, ((0,), (1,)))
    assert report.is_graph()
    for entry in report.per_atom.values():
        assert entry.argmax == entry.fiber


def test_two_point_fiber_argmax():
    grid = np.array([[2.0, 1.0], [0.0, 0.0]])
    report = fiber_report([(0, 0), (0, 1)], grid, ((0,), (1,)))
    entry = report.per_atom[(0,)]
    assert entry.fiber == [(0,), (1,)]
    assert entry.argmax == [(0,)]


def test_partition_selects_least_block():
    grid = np.zeros((1, 4))
    partition = OrderedPartition.from_lists([[(0,), (1,)], [(2,), (3,)]])
    report = fiber_report([(0, 2), (0, 3)], grid, ((0,), (1,)), partition)
    assert report.per_atom[(0,)].block_index == 1
    report2 = fiber_report([(0, 0), (0, 3)], grid, ((0,), (1,)), partition)
    assert report2.per_atom[(0,)].block_index == 0
    assert report2.per_atom[(0,)].argmax == [(0,)]


def test_shell_partition_picks_innermost_on_generated_instance():
    from momt.scenarios import ScenarioConfig, gen_nested_shells

    config = ScenarioConfig("nestedShells", seed=2, sizes=(7,),
                            radii=(1.0, 1.6, 2.3))
    inst, meta = gen_nested_shells(config)
    res = lp.solve(inst)
    partition = OrderedPartition.from_lists(
        [[(int(z),) for z in np.flatnonzero(meta["shell_of"] == l)]
         for l in range(3)]
    )
    report = fiber_report(res.plan.support(), inst.cost_grid(), ((0, 1), (2,)),
                          partition)
    for entry in report.per_atom.values():
        shells = [int(meta["shell_of"][b[0]]) for b in entry.fiber]
        assert entry.block_index == min(shells)


def test_c_extreme_passes_on_graph():
    grid = np.zeros((3, 3))
    report = fiber_report([(0, 1), (1, 0), (2, 2)], grid, ((0,), (1,)))
    assert check_c_extreme(report).passed


def test_c_extreme_violation_at_shared_atom():
    # fibers {a, b} and {a, c} with argmaxes b and c leave the shared atom a
    # uncovered by every selection
    grid = np.array([[0.0, 5.0, 0.0], [3.0, 0.0, 7.0]])
    support = [(0, 0), (0, 1), (1, 0), (1, 2)]
    report = fiber_report(support, grid, ((0,), (1,)))
    result = check_c_extreme(report)
    assert not result.passed
    x1, x2, shared = result.violation
    assert shared == (0,)


def test_c_extreme_pass_implies_unique_certificate():
    # build-stopping implication, checked on a randomized batch with fibers
    # taken from the active set of the dual inequality
    for seed in range(40):
        inst = random_instance(seed + 300, n_axes=(2, 3)[seed % 2], max_atoms=4,
                               kind=("surplus", "attractive")[seed % 2],
                               sense=("min", "max")[seed % 2],
                               uniform=seed % 3 == 0)
        res = lp.solve(inst)
        mset = lp.minimizing_set(inst, res.potentials)
        n = inst.n_axes
        report = fiber_report(sorted(mset.indices), inst.cost_grid(),
                              (tuple(range(n - 1)), (n - 1,)))
        if check_c_extreme(report).passed:
            cert = lp.uniqueness_certificate(inst, res)
            assert cert.status == "unique", f"counterexample at seed {seed}"


# -- map decompositions -----------------------------------------------------------

def test_graph_coupling_decomposes_to_one_map():
    plan = Coupling((3, 3), {(0, 1): 0.2, (1, 2): 0.5, (2, 0): 0.3})
    dec = detect_map_decomposition(plan, 0)
    assert dec.max_fiber == 1
    assert len(dec.maps) == 1
    assert np.allclose(dec.weights[0], 1.0)


def test_two_map_mixture_decomposition():
    w = np.array([0.5, 0.5])
    entries = {(0, 1): 0.25, (0, 0): 0.25, (1, 0): 0.25, (1, 1): 0.25}
    plan = Coupling((2, 2), entries)
    dec = detect_map_decomposition(plan, 0)
    assert dec.max_fiber == 2
    assert np.allclose(dec.weights[0], 0.5)
    rebuilt = dec.recombine(w, plan.arities)
    assert rebuilt.total_variation(plan) < 1e-14


def test_decomposition_roundtrip_random():
    rng = np.random.default_rng(23)
    for _ in range(10):
        dense = rng.uniform(0.0, 1.0, (3, 4))
        dense[dense < 0.45] = 0.0
        if dense.sum() == 0:
            dense[0, 0] = 1.0
        dense = dense / dense.sum()
        plan = Coupling.from_dense(dense)
        dec = detect_map_decomposition(plan, 0)
        mu = plan.axis_marginal(0)
        rebuilt = dec.recombine(mu, plan.arities)
        assert rebuilt.total_variation(plan) < 1e-12


def test_decomposition_cap():
    dense = np.full((1, 3), 1 / 3)
    plan = Coupling.from_dense(dense)
    out = detect_map_decomposition(plan, 0, max_maps=2)
    assert isinstance(out, NotDecomposable)
    assert out.max_fiber == 3


def test_singleton_fibers_are_pair_vertices():
    # graph couplings over an axis are vertices of the two-marginal polytope
    inst = random_instance(44, n_axes=2, max_atoms=4, uniform=True)
    res = lp.solve(inst)
    dec = detect_map_decomposition(res.plan, 0)
    if dec.max_fiber == 1:
        assert lp.is_vertex(res.plan, inst.measures)


def test_gw_optimum_rides_on_two_maps():
    from momt.scenarios import ScenarioConfig, gen_gromov_wasserstein

    inst = gen_gromov_wasserstein(ScenarioConfig("gromovWasserstein", seed=3,
                                                 sizes=(6,)))
    res = lp.solve(inst)
    dec = detect_map_decomposition(res.plan, 0)
    assert dec.max_fiber <= 2


# -- twist counting ---------------------------------------------------------------

def test_zero_base_point_returns_only_anchor():
    cands = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 3.0]])
    count = gw_twist_count(np.zeros(2), np.array([1.0, 1.0]), np.eye(2), 1.0,
                           cands)
    assert count == 1


def test_anchor_alone_counts_one():
    y0 = np.array([0.5, -0.5])
    assert gw_twist_count(np.array([1.0, 0.0]), y0, np.eye(2), 2.0,
                          y0[None, :]) == 1


def test_invalid_parameters():
    with pytest.raises(ZeroXi):
        gw_twist_count(np.ones(2), np.ones(2), np.eye(2), 0.0, np.ones((1, 2)))
    with pytest.raises(SingularMatrix):
        gw_twist_count(np.ones(2), np.ones(2), np.zeros((2, 2)), 1.0,
                       np.ones((1, 2)))


def test_constructed_second_solution_is_counted():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.uniform(-1, 1, (2, 2))
        if abs(np.linalg.det(A)) < 0.2:
            continue
        xi = float(rng.uniform(0.5, 2.0))
        x0 = rng.uniform(-1, 1, 2)
        y0 = rng.uniform(-1, 1, 2)
        second = gw_second_solution(x0, y0, A, xi)
        cands = [y0]
        if second is not None:
            cands.append(second)
        count = gw_twist_count(x0, y0, A, xi, np.vstack(cands))
        assert count == len(cands) <= 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_twist_count_never_exceeds_two(seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, (3, 3)) + np.eye(3)
    if abs(np.linalg.det(A)) < 1e-3:
        return
    xi = float(rng.uniform(0.2, 3.0) * (1 if rng.random() < 0.5 else -1))
    x0 = rng.uniform(-1, 1, 3)
    y0 = rng.uniform(-1, 1, 3)
    sphere = rng.normal(size=(80, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    cands = [y0[None, :], sphere * float(rng.uniform(0.3, 2.0))]
    second = gw_second_solution(x0, y0, A, xi)
    if second is not None:
        cands.append(second[None, :])
    assert gw_twist_count(x0, y0, A, xi, np.vstack(cands)) <= 2
