import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momt import costs, lp
from momt.costs import (
    ConjugateTable,
    CostSpec,
    build_gs_conjugates,
    conjugate_argmax_ties,
    cost_array,
    dual_gradient_selection,
    evaluate,
    gangbo_swiech_maps,
    legendre_conjugate,
)
from momt.errors import (
    DimensionMismatch,
    EmptyTable,
    InvariantViolation,
    NonFiniteCost,
    NotSurplusCost,
    SingularMatrix,
    ZeroXi,
)
from momt.instance import DiscreteInstance
from momt.lp import Potentials
from momt.measure import DiscreteMeasure, Space
from momt.reduction import reduce
from momt.scenarios import ScenarioConfig, gen_gangbo_swiech
from conftest import random_instance


def test_surplus_three_unit_vectors():
    e1 = np.array([1.0, 0.0])
    assert evaluate(CostSpec("surplus", "max"), [e1, e1, e1]) == pytest.approx(3.0)


def test_attractive_collapses_on_equal_points():
    p = np.array([0.3, -0.7, 2.0])
    assert evaluate(CostSpec("attractive"), [p, p, p, p]) == 0.0


def test_monge_quadratic_345():
    x = np.array([0.0, 0.0])
    y = np.array([3.0, 4.0])
    z = np.array([0.0, 0.0])
    assert evaluate(CostSpec("mongeQuadratic"), [x, y, z]) == pytest.approx(30.0)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evaluate(CostSpec("surplus"), [np.array([1.0]), np.array([1.0, 2.0])])


def test_gw_spec_validation():
    with pytest.raises(ZeroXi):
        CostSpec("gromovWasserstein", "max", {"xi": 0.0, "A": np.eye(2)})
    with pytest.raises(SingularMatrix):
        CostSpec("gromovWasserstein", "max", {"xi": 1.0, "A": np.zeros((2, 2))})
    for params in ({"xi": float("nan"), "A": np.eye(2)},
                   {"xi": float("inf"), "A": np.eye(2)},
                   {"xi": 1.0, "A": np.array([[1.0, 0.0], [0.0, np.nan]])},
                   {"xi": 1.0, "A": np.array([[np.inf, 0.0], [0.0, 1.0]])}):
        with pytest.raises(NonFiniteCost):
            CostSpec("gromovWasserstein", "max", params)


def test_gw_evaluation_formula_and_negated_objective():
    A = np.array([[1.0, 0.5], [0.0, 2.0]])
    spec = CostSpec("gromovWasserstein", "max", {"xi": 1.5, "A": A})
    x = np.array([0.4, -1.0])
    y = np.array([2.0, 0.3])
    raw = (x @ x) * (y @ y) + 1.5 * float((A @ x) @ y)
    assert evaluate(spec, [x, y]) == pytest.approx(raw)
    # maximizing the raw surplus is the negated form of minimizing its
    # opposite: both senses must select the same plans with opposite values
    rng = np.random.default_rng(8)
    X = Space("X", rng.uniform(-1, 1, (3, 2)))
    Y = Space("Y", rng.uniform(-1, 1, (3, 2)))
    w = np.ones(3) / 3
    inst_max = DiscreteInstance([X, Y], [DiscreteMeasure(X, w), DiscreteMeasure(Y, w)],
                                CostSpec("gromovWasserstein", "max",
                                         {"xi": 1.5, "A": A}))
    grid = inst_max.cost_grid()
    neg = DiscreteInstance([X, Y], [DiscreteMeasure(X, w), DiscreteMeasure(Y, w)],
                           CostSpec("tensor", "min", {"values": -grid}))
    r1 = lp.solve(inst_max)
    r2 = lp.solve(neg)
    assert r1.value == pytest.approx(-r2.value, abs=1e-12)
    assert r1.plan.total_variation(r2.plan) < 1e-12


def _pointwise_grid(spec, spaces):
    """The grid cell by cell through `evaluate`, the pointwise definition."""
    out = np.empty(tuple(s.size for s in spaces))
    for idx in np.ndindex(out.shape):
        out[idx] = evaluate(spec, [s.points[i] for s, i in zip(spaces, idx)])
    return out


# few distinct values, so coordinates and whole points repeat within and
# across spaces (zero differences, equal norms), plus arbitrary ones
_COORD = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.0, 3.0]),
                   st.floats(-10, 10, allow_nan=False, allow_infinity=False))


@st.composite
def _cost_case(draw):
    kind = draw(st.sampled_from([k for k in costs.BUILTIN_KINDS if k != "tensor"]))
    d = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.integers(-4, 4))
    order = draw(st.sampled_from("CF"))
    n_axes = {"mongeQuadratic": 3, "gromovWasserstein": 2}.get(kind) \
        or draw(st.integers(2, 4))
    spaces = []
    for k in range(n_axes):
        rows = draw(st.lists(st.tuples(*[_COORD] * d), min_size=1, max_size=7,
                             unique=True))
        points = np.asarray(np.array(rows) * scale, order=order)
        try:
            spaces.append(Space(f"S{k}", points))
        except InvariantViolation:      # two atoms closer than the storage tolerance
            assume(False)
    params = {}
    if kind == "gromovWasserstein":
        A = np.array(draw(st.lists(_COORD, min_size=d * d, max_size=d * d))).reshape(d, d)
        with np.errstate(all="ignore"):     # a subnormal pivot divides by zero
            det = np.linalg.det(A)
        assume(abs(det) > 1e-10)
        xi = draw(st.one_of(st.sampled_from([1.0, -1.0, 0.5]),
                            st.floats(-10, 10, allow_nan=False).filter(lambda v: v != 0)))
        params = {"A": A, "xi": xi}
    return CostSpec(kind, "min", params), spaces


@settings(max_examples=300, deadline=None)
@given(_cost_case())
def test_whole_array_grid_is_bit_identical_to_evaluate(case):
    spec, spaces = case
    grid = cost_array(spec, spaces)
    assert grid.tobytes() == _pointwise_grid(spec, spaces).tobytes()


@pytest.mark.parametrize("kind", [k for k in costs.BUILTIN_KINDS if k != "tensor"])
def test_cost_array_never_evaluates_cell_by_cell(monkeypatch, kind):
    rng = np.random.default_rng(4)
    n_axes = {"mongeQuadratic": 3, "gromovWasserstein": 2}.get(kind, 3)
    spaces = [Space(f"S{k}", rng.normal(size=(4, 2))) for k in range(n_axes)]
    params = {"A": np.array([[1.0, 0.5], [0.0, 2.0]]), "xi": 1.5} \
        if kind == "gromovWasserstein" else {}
    spec = CostSpec(kind, "min", params)
    expected = _pointwise_grid(spec, spaces)

    def refuse(*args):
        raise AssertionError("cost_array called evaluate")

    monkeypatch.setattr(costs, "evaluate", refuse)
    grid = cost_array(spec, spaces)
    assert grid.shape == (4,) * n_axes
    assert np.allclose(grid, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind,n_axes,message", [
    ("mongeQuadratic", 2, "three-marginal"),
    ("mongeQuadratic", 4, "three-marginal"),
    ("gromovWasserstein", 3, "two-marginal"),
])
def test_cost_array_refuses_the_wrong_arity(kind, n_axes, message):
    params = {"A": np.eye(2), "xi": 1.0} if kind == "gromovWasserstein" else {}
    spaces = [Space(f"S{k}", np.eye(2)) for k in range(n_axes)]
    with pytest.raises(DimensionMismatch, match=message):
        cost_array(CostSpec(kind, "min", params), spaces)


@pytest.mark.parametrize("kind", [k for k in costs.BUILTIN_KINDS if k != "tensor"])
def test_cost_array_refuses_mixed_point_dimensions(kind):
    n_axes = 2 if kind == "gromovWasserstein" else 3
    params = {"A": np.eye(2), "xi": 1.0} if kind == "gromovWasserstein" else {}
    spaces = [Space(f"S{k}", np.eye(2)) for k in range(n_axes - 1)]
    spaces.append(Space("Z", np.eye(3)))
    with pytest.raises(DimensionMismatch, match=r"point dimensions differ: \[\(2,\), \(3,\)\]"):
        cost_array(CostSpec(kind, "min", params), spaces)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["mongeQuadratic", "gromovWasserstein"])
@pytest.mark.parametrize("big", [1e160, 1e300])
def test_overflowing_cells_raise_non_finite_without_warnings(kind, big):
    n_axes = 3 if kind == "mongeQuadratic" else 2
    spaces = [Space(f"S{k}", [[big, 0.0], [0.0, -big]]) for k in range(n_axes)]
    params = {"A": np.diag([1.0, 2.0]), "xi": 1.0} if kind == "gromovWasserstein" else {}
    with pytest.raises(NonFiniteCost):
        cost_array(CostSpec(kind, "min", params), spaces)


def test_surplus_attractive_identity_on_grid():
    inst = random_instance(3, n_axes=3, max_atoms=3)
    surplus = cost_array(CostSpec("surplus"), inst.spaces)
    attractive = cost_array(CostSpec("attractive"), inst.spaces)
    n = len(inst.spaces)
    additive = np.zeros(inst.arities)
    for k, s in enumerate(inst.spaces):
        shape = [1] * n
        shape[k] = s.size
        additive = additive + ((n - 1) / 2 * (s.points**2).sum(1)).reshape(shape)
    assert np.abs(attractive - (additive - surplus)).max() < 1e-12
    repulsive = cost_array(CostSpec("repulsive"), inst.spaces)
    assert np.abs(repulsive + attractive).max() < 1e-15


def test_attractive_min_equals_surplus_max_as_couplings():
    for seed in (1, 5, 9):
        inst_s = random_instance(seed, n_axes=3, max_atoms=3, kind="surplus",
                                 sense="max")
        inst_a = DiscreteInstance(inst_s.spaces, inst_s.measures,
                                  CostSpec("attractive", "min"))
        r_s = lp.solve(inst_s)
        r_a = lp.solve(inst_a)
        assert r_s.plan.total_variation(r_a.plan) < 1e-12


# -- conjugate tables ---------------------------------------------------------

def test_conjugate_of_half_square_on_grid():
    t = np.linspace(-2, 2, 81)[:, None]
    table = ConjugateTable(t, 0.5 * (t**2).sum(1))
    for s in (-1.3, 0.0, 0.7):
        val, idx = legendre_conjugate(table, np.array([s]))
        assert val == pytest.approx(0.5 * s * s, abs=2e-3)
        assert abs(t[idx, 0] - s) <= 0.05 + 1e-12


def test_conjugate_single_sample_is_affine():
    t0 = np.array([0.4, -1.0])
    table = ConjugateTable(t0[None, :], np.array([2.5]))
    for s in (np.zeros(2), np.array([3.0, 1.0])):
        val, idx = legendre_conjugate(table, s)
        assert idx == 0
        assert val == pytest.approx(float(s @ t0) - 2.5)


def test_fenchel_young_equality_at_argmax():
    rng = np.random.default_rng(4)
    t = rng.normal(size=(30, 2))
    u = (t**2).sum(1) + rng.uniform(0, 0.5, 30)
    table = ConjugateTable(t, u)
    for s in rng.normal(size=(10, 2)):
        val, idx = legendre_conjugate(table, s)
        # inequality on all samples, equality at the argmax
        assert (u + val - t @ s >= -1e-12).all()
        assert u[idx] + val - float(t[idx] @ s) == pytest.approx(0.0, abs=1e-12)


def test_empty_table_rejected():
    with pytest.raises(EmptyTable):
        ConjugateTable(np.zeros((0, 2)), np.zeros(0))


def test_tie_reporting():
    t = np.array([[0.0], [1.0], [1.0 + 1e-13]])
    table = ConjugateTable(t, np.zeros(3))
    ties = conjugate_argmax_ties(table, np.array([1.0]))
    assert 1 in ties and 2 in ties


# -- transport maps from dual data -------------------------------------------

def _gs_instance(seed, n=8, n_axes=3):
    rng = np.random.default_rng(seed)
    spaces = [Space(f"X{k}", rng.uniform(-1, 1, (n, 2))) for k in range(n_axes)]
    measures = [DiscreteMeasure(s, np.ones(n) / n) for s in spaces]
    return DiscreteInstance(spaces, measures, CostSpec("surplus", "max"))


def _conjugates(inst, potentials):
    """build_gs_conjugates on the reduced pair tables, as the driver builds them."""
    if inst.n_axes == 2:
        return build_gs_conjugates(inst, {1: inst.cost_grid()})
    return build_gs_conjugates(inst, {
        j: reduce(inst, potentials, (0, j)).reduced_cost
        for j in range(1, inst.n_axes)})


def _maps(inst, potentials, plan=None):
    return gangbo_swiech_maps(inst, potentials, _conjugates(inst, potentials),
                              plan=plan)


def test_maps_need_maximized_surplus():
    inst = random_instance(2, kind="attractive", sense="min")
    res = lp.solve(inst)
    with pytest.raises(NotSurplusCost):
        gangbo_swiech_maps(inst, res.potentials, {})
    with pytest.raises(NotSurplusCost):
        build_gs_conjugates(inst, {})


def test_single_atom_fixed_point():
    a = np.array([[0.3, -0.2]])
    spaces = [Space(f"P{k}", a) for k in range(3)]
    measures = [DiscreteMeasure(s, np.array([1.0])) for s in spaces]
    inst = DiscreteInstance(spaces, measures, CostSpec("surplus", "max"))
    res = lp.solve(inst)
    maps, report = _maps(inst, res.potentials, plan=res.plan)
    for j in (1, 2):
        assert np.allclose(maps[j][0], a[0], atol=1e-12)
    assert report["agreement_fraction"] == 1.0


def test_seed42_agreement_is_exact():
    inst = _gs_instance(42)
    res = lp.solve(inst)
    maps, report = _maps(inst, res.potentials, plan=res.plan)
    assert report["agreement_fraction"] == 1.0
    assert report["max_point_distance"] < 1e-9


def test_maps_well_defined_per_atom():
    inst = _gs_instance(7, n=6)
    res = lp.solve(inst)
    maps, _ = _maps(inst, res.potentials, plan=res.plan)
    for j, images in maps.items():
        assert images.shape == (6, 2)
        assert np.isfinite(images).all()


def test_maps_invariant_under_constant_regauge():
    # moving additive constants between potentials leaves every selection
    # argmax unchanged, hence the maps too
    inst = _gs_instance(11, n=5)
    res = lp.solve(inst)
    maps_a, _ = _maps(inst, res.potentials)
    shifted = [v.copy() for v in res.potentials.vectors]
    shifted[0] = shifted[0] + 3.7
    shifted[1] = shifted[1] - 1.2
    shifted[2] = shifted[2] - 2.5
    maps_b, _ = _maps(inst, Potentials(shifted, "max"))
    for j in maps_a:
        assert np.allclose(maps_a[j], maps_b[j], atol=1e-10)


def test_dual_gradient_matches_support_selection():
    inst = _gs_instance(3, n=5)
    res = lp.solve(inst)
    grads, tied = dual_gradient_selection(inst, res.potentials)
    fibers = res.plan.fibers(0)
    for a, fib in fibers.items():
        if tied[a] or len(fib) != 1:
            continue
        rest = next(iter(fib))
        expected = np.sum(
            [inst.spaces[k + 1].points[i] for k, i in enumerate(rest)], axis=0
        )
        assert np.allclose(grads[a], expected, atol=1e-9)


def test_conjugate_tables_sample_all_pair_sums():
    inst = _gs_instance(5, n=4)
    res = lp.solve(inst)
    tables = _conjugates(inst, res.potentials)
    assert sorted(tables) == [1, 2]
    assert tables[1].samples.shape == (16, 2)
    # Fenchel-Young holds on the table itself
    for s in inst.spaces[0].points:
        val, idx = legendre_conjugate(tables[1], s)
        assert (tables[1].values + val - tables[1].samples @ s >= -1e-10).all()


# -- conjugate tables against an independent fold of the complement ----------

def _complement_terms(instance, potentials, j):
    """Vectors sum(x_k), cross-products and potential sums over the
    complement grid of axes {0, j}."""
    axes = [k for k in range(instance.n_axes) if k not in (0, j)]
    shapes = [instance.arities[k] for k in axes]
    sums, offsets = [], []
    for combo in np.ndindex(tuple(shapes)):
        pts = [instance.spaces[k].points[i] for k, i in zip(axes, combo)]
        s = np.sum(pts, axis=0) if pts else np.zeros(instance.spaces[0].dim)
        cross = 0.0
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                cross += float(np.dot(pts[a], pts[b]))
        phi = sum(float(potentials.vectors[k][i]) for k, i in zip(axes, combo))
        sums.append(s)
        offsets.append(cross - phi)
    return np.array(sums), np.array(offsets)


def fold_complement(instance, potentials, j, targets: np.ndarray) -> np.ndarray:
    """psi_j evaluated at each target vector (max over the complement grid)."""
    sums, offsets = _complement_terms(instance, potentials, j)
    scores = np.atleast_2d(targets) @ sums.T + offsets[None, :]
    return scores.max(axis=1)


@pytest.mark.parametrize("n_axes,n", [(2, 6), (3, 8), (3, 6), (4, 4)])
def test_conjugate_tables_match_the_complement_fold(n_axes, n):
    for seed in range(4):
        inst = _gs_instance(seed, n=n, n_axes=n_axes)
        res = lp.solve(inst)
        tables = _conjugates(inst, res.potentials)
        assert sorted(tables) == list(range(1, n_axes))
        for j, table in tables.items():
            psi = fold_complement(inst, res.potentials, j, table.samples)
            expected = 0.5 * (table.samples**2).sum(1) + psi
            assert np.all(np.abs(table.values - expected)
                          <= 1e-12 * (1.0 + np.abs(expected))), (seed, j)


# -- the map pass against the atom-by-atom algorithm it replaced --------------

def _reference_gradients(instance, potentials):
    """One unravel_index and np.sum per winner, atom by atom."""
    grid = instance.cost_grid()
    n0 = instance.arities[0]
    comp_shape = instance.arities[1:]
    slack = grid.copy()
    for k in range(1, instance.n_axes):
        shape = [1] * instance.n_axes
        shape[k] = instance.arities[k]
        slack = slack - potentials.vectors[k].reshape(shape)
    grads = np.zeros((n0, instance.spaces[0].dim))
    tied = np.zeros(n0, dtype=bool)
    for a in range(n0):
        flat = slack[a].reshape(-1)
        best = flat.max()
        winners = np.flatnonzero(flat >= best - 1e-9)
        selections = []
        for w in winners:
            combo = np.unravel_index(w, comp_shape)
            selections.append(np.sum(
                [instance.spaces[k + 1].points[i] for k, i in enumerate(combo)], axis=0))
        grads[a] = selections[0]
        for s in selections[1:]:
            if np.linalg.norm(s - selections[0]) > 1e-9:
                tied[a] = True
                break
    return grads, tied


def _reference_maps(instance, potentials, conjugates, plan):
    """legendre_conjugate plus conjugate_argmax_ties per atom, then a fiber
    loop per atom and axis."""
    grads, dual_tied = _reference_gradients(instance, potentials)
    p0 = instance.spaces[0].points
    n0 = instance.arities[0]
    maps = {}
    tie_flags = dual_tied.copy()
    for j, table in sorted(conjugates.items()):
        images = np.zeros((n0, p0.shape[1]))
        for a in range(n0):
            s = p0[a] + grads[a]
            _, idx = legendre_conjugate(table, s)
            ties = conjugate_argmax_ties(table, s)
            if any(np.linalg.norm(table.samples[t] - table.samples[idx]) > 1e-9
                   for t in ties):
                tie_flags[a] = True
            images[a] = table.samples[idx] - p0[a]
        maps[j] = images
    report = {"tied_atoms": sorted(int(i) for i in np.flatnonzero(tie_flags))}
    fibers = plan.fibers(0)
    agree_untied = considered = agree_all = total = 0
    worst = 0.0
    for a in range(n0):
        if a not in fibers:
            continue
        dists = []
        for j in sorted(maps):
            pts = instance.spaces[j].points
            fiber_pts = [pts[rest[j - 1]] for rest in fibers[a]]
            dists.append(min(np.linalg.norm(maps[j][a] - q) for q in fiber_pts))
        hit = max(dists) <= 1e-8
        total += 1
        agree_all += hit
        if not tie_flags[a]:
            considered += 1
            agree_untied += hit
            worst = max(worst, max(dists))
    report["agreement_fraction"] = agree_untied / considered if considered else 1.0
    report["agreement_fraction_all"] = agree_all / total if total else 1.0
    report["max_point_distance"] = worst
    return grads, dual_tied, maps, report


@st.composite
def _gs_case(draw):
    """A maximized surplus instance; lattice points make ties likely, and a
    negated lattice has coordinates -0.0."""
    n_axes, n, d = draw(st.integers(2, 4)), draw(st.integers(2, 7)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = draw(st.booleans())
    grid = np.stack(np.meshgrid(*[np.linspace(-1, 1, 9)] * d), -1).reshape(-1, d)
    spaces = []
    for k in range(n_axes):
        if lattice:
            pts = grid[rng.choice(len(grid), n, replace=False)] * rng.choice([1.0, -1.0])
        else:
            pts = rng.uniform(-1, 1, (n, d))
        spaces.append(Space(f"X{k}", pts))
    weights = [np.ones(n) / n for _ in spaces]
    if draw(st.booleans()):         # a zero-weight first-axis atom leaves the support
        weights[0] = np.r_[0.0, np.ones(n - 1) / (n - 1)]
    kind = draw(st.sampled_from(["surplus", "gangboSwiech"]))
    return DiscreteInstance(spaces, [DiscreteMeasure(s, w) for s, w in zip(spaces, weights)],
                            CostSpec(kind, "max"))


def _assert_maps_match_reference(inst):
    res = lp.solve(inst)
    conjugates = _conjugates(inst, res.potentials)
    grads, tied = dual_gradient_selection(inst, res.potentials)
    maps, report = gangbo_swiech_maps(inst, res.potentials, conjugates, plan=res.plan)
    r_grads, r_tied, r_maps, r_report = _reference_maps(inst, res.potentials,
                                                        conjugates, res.plan)
    # byte equality: signed zeros too
    assert grads.tobytes() == r_grads.tobytes() and np.array_equal(tied, r_tied)
    assert sorted(maps) == sorted(r_maps)
    for j in maps:
        assert maps[j].tobytes() == r_maps[j].tobytes()
    assert report == r_report
    return report


@settings(max_examples=200, deadline=None)
@given(_gs_case())
def test_map_pass_matches_the_atom_by_atom_reference(inst):
    _assert_maps_match_reference(inst)


@pytest.mark.parametrize("n_axes,n,d,seed", [(3, 6, 3, 13), (3, 7, 2, 55), (4, 4, 2, 24)])
def test_map_pass_matches_the_reference_on_tied_atoms(n_axes, n, d, seed):
    # gangboSwiech studies whose dual gradients tie at some atoms, so the
    # tie rules decide part of the report
    inst = gen_gangbo_swiech(ScenarioConfig("gs", seed=seed, sizes=(n,), dimension=d,
                                            extras={"n_axes": n_axes}))
    assert _assert_maps_match_reference(inst)["tied_atoms"]


def test_map_pass_memory_stays_per_atom():
    # N=2 n=150: one table of 22 500 samples; scoring every atom at once
    # would hold 150 x 22 500 scores (about 27 MB)
    inst = _gs_instance(0, n=150, n_axes=2)
    res = lp.solve(inst)
    conjugates = _conjugates(inst, res.potentials)
    tracemalloc.start()
    try:
        gangbo_swiech_maps(inst, res.potentials, conjugates, plan=res.plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
