from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momt import extremality, lp
from momt.errors import InstanceTooLarge, SingularMatrix, ZeroXi
from momt.extremality import (
    MonotonicityReport,
    NotDecomposable,
    OrderedPartition,
    _cycle_gain,
    _gain_thresholds,
    check_c_extreme,
    check_cyclical_monotonicity,
    detect_map_decomposition,
    exhaustive_cycle_count,
    fiber_report,
    gw_second_solution,
    gw_twist_count,
)
from momt.measure import Coupling
from conftest import random_instance, tensor_instance


# -- cyclical monotonicity ------------------------------------------------------

def test_optimal_support_is_monotone():
    inst = random_instance(15, n_axes=3, max_atoms=4, sense="max")
    res = lp.solve(inst)
    report = check_cyclical_monotonicity(res.plan.support(), inst.cost_grid(),
                                         sense="max", max_cycle=3, samples=40)
    assert report.passed


def test_product_support_violates_for_bilinear_cost():
    # minimizing x*y on {0,1}^2: the diagonal support loses to the swap
    grid = np.array([[0.0, 0.0], [0.0, 1.0]])
    report = check_cyclical_monotonicity([(0, 0), (1, 1)], grid, sense="min",
                                         max_cycle=2)
    assert not report.passed
    points, perms, gain = report.violation
    assert set(points) == {(0, 0), (1, 1)}
    assert gain == pytest.approx(1.0)


def test_singleton_support_passes():
    grid = np.array([[3.0]])
    report = check_cyclical_monotonicity([(0, 0)], grid, sense="min")
    assert report.passed


def test_sampled_long_cycles_run():
    inst = random_instance(2, n_axes=2, max_atoms=4)
    res = lp.solve(inst)
    report = check_cyclical_monotonicity(res.plan.support(), inst.cost_grid(),
                                         sense="min", max_cycle=2, samples=25,
                                         seed=4)
    assert report.passed
    assert report.checked_sampled > 0


def _reference_monotonicity(support, cost_grid, sense, max_cycle, tol):
    """The exhaustive phase as one `_cycle_gain` call per tuple (the oracle)."""
    support = sorted(tuple(p) for p in support)
    n_axes = cost_grid.ndim
    sign = 1.0 if sense == "min" else -1.0
    threshold = _gain_thresholds(cost_grid, tol)
    checked = 0

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
                checked += 1
                gain = _cycle_gain(points, perms, cost_grid, sign)
                if gain > threshold(M):
                    return MonotonicityReport(False, checked, 0, (points, perms, gain))
    return MonotonicityReport(True, checked, 0)


def _assert_same_report(got, want):
    assert (got.passed, got.checked_exhaustive, got.checked_sampled) == (
        want.passed, want.checked_exhaustive, want.checked_sampled)
    if want.violation is None:
        assert got.violation is None
        return
    assert got.violation[:2] == want.violation[:2]
    assert np.float64(got.violation[2]).tobytes() == np.float64(want.violation[2]).tobytes()


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
    max_cycle = draw(st.integers(2, 4))
    cells = [tuple(int(i) for i in t) for t in np.ndindex(*shape)]
    size = 1
    while (size < len(cells)
           and exhaustive_cycle_count(size + 1, n_axes, max_cycle) <= 3000):
        size += 1
    support = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=size,
                            unique=True))
    return (grid, support, draw(st.sampled_from(["min", "max"])), max_cycle,
            draw(st.sampled_from([0.0, 1e-9, 0.05, 0.3, 1.0])),
            draw(st.sampled_from([1, 7, extremality._GAIN_BLOCK])))


@settings(max_examples=150, deadline=None)
@given(_cycle_cases())
def test_blocked_enumeration_matches_per_tuple_loop(case):
    grid, support, sense, max_cycle, tol, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extremality, "_GAIN_BLOCK", block)
        got = check_cyclical_monotonicity(support, grid, sense=sense,
                                          max_cycle=max_cycle, samples=0, tol=tol)
    _assert_same_report(got, _reference_monotonicity(support, grid, sense,
                                                     max_cycle, tol))


def test_blocks_split_at_subset_and_tuple_boundaries(monkeypatch):
    # 13 support cells of a 4-axis grid: 78 pairs x 7 tuples + 286 triples x
    # 215 tuples; blocks of 7 take one subset of pairs per pass and split the
    # triples' tuples, blocks of 1 split everything
    rng = np.random.default_rng(3)
    grid = rng.uniform(0.0, 1.0, (3, 3, 3, 3))
    cells = [tuple(int(i) for i in t) for t in np.ndindex(3, 3, 3, 3)]
    support = [cells[i] for i in rng.choice(len(cells), 13, replace=False)]
    assert exhaustive_cycle_count(13, 4, 3) == 62_036
    for sense in ("min", "max"):
        want = _reference_monotonicity(support, grid, sense, 3, 1e-9)
        assert not want.passed
        for block in (1, 7, 100, 4096):
            monkeypatch.setattr(extremality, "_GAIN_BLOCK", block)
            got = check_cyclical_monotonicity(support, grid, sense=sense, samples=0)
            _assert_same_report(got, want)


@pytest.mark.parametrize("seed", [161, 554, 1474, 1979])
def test_three_cycle_violation_keeps_the_loop_gain_bits(seed, monkeypatch):
    # supports whose first violation is a 3-cycle whose gain rounds
    # differently when the sums run in another order
    rng = np.random.default_rng(seed)
    grid = rng.uniform(-1, 1, (3, 3, 3)) * np.pi + 0.7
    cells = [tuple(int(i) for i in t) for t in np.ndindex(3, 3, 3)]
    support = [cells[i] for i in rng.choice(27, 3, replace=False)]
    want = _reference_monotonicity(support, grid, "min", 3, 1e-9)
    assert len(want.violation[0]) == 3
    for block in (1, 7, 4096):
        monkeypatch.setattr(extremality, "_GAIN_BLOCK", block)
        _assert_same_report(check_cyclical_monotonicity(support, grid, samples=0), want)


def test_exhaustive_count_is_the_closed_form():
    grid = np.zeros((3, 3, 3, 3))
    support = [tuple(int(i) for i in t) for t in np.ndindex(3, 3, 3, 3)][:13]
    report = check_cyclical_monotonicity(support, grid, max_cycle=3, samples=0)
    assert report.passed
    assert report.checked_exhaustive == exhaustive_cycle_count(13, 4, 3) == 62_036
    report = check_cyclical_monotonicity(support, grid, max_cycle=3, samples=7)
    assert (report.checked_exhaustive, report.checked_sampled) == (62_036, 7)
    assert exhaustive_cycle_count(5, 2, 4) == 10 * 1 + 10 * 5 + 5 * 23
    assert exhaustive_cycle_count(1, 3, 3) == 0


def test_cycle_enumeration_above_the_cap_refuses_to_start():
    # about 2.1e12 tuples: the count is refused before anything is priced
    support = [(i, i, i) for i in range(13)]
    assert exhaustive_cycle_count(13, 3, 8) > extremality._MAX_CYCLE_TUPLES
    with pytest.raises(InstanceTooLarge):
        check_cyclical_monotonicity(support, np.zeros((13, 13, 13)), max_cycle=8)


def _tensor_pair(seed):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, (6, 6, 6))
    weights = [rng.dirichlet(np.ones(6)) for _ in range(3)]
    optimal = lp.solve(tensor_instance(base, weights)).plan.support()
    # the maximizer's support is a cycle-violating support for the minimum
    worst = lp.solve(tensor_instance(base, weights, "max")).plan.support()
    return base, optimal, worst


@pytest.mark.parametrize("scale,shift", [(1e12, 0.0), (1e-12, 0.0),
                                         (1.0, 1e9), (1.0, -1e9)])
def test_monotonicity_ignores_cost_scale_and_shift(scale, shift):
    for seed in range(3):
        base, optimal, worst = _tensor_pair(seed)
        moved = base * scale + shift
        for support in (optimal, worst):
            want = check_cyclical_monotonicity(support, base)
            got = check_cyclical_monotonicity(support, moved)
            assert got.passed == want.passed, seed
            assert got.checked_exhaustive == want.checked_exhaustive, seed
            if want.violation is not None:
                assert got.violation[:2] == want.violation[:2], seed
        assert check_cyclical_monotonicity(optimal, moved).passed
        assert not check_cyclical_monotonicity(worst, moved).passed


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
            cert = lp.uniqueness_certificate(inst, res.plan, res.value)
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
