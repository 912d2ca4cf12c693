import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momt import lp
from momt.errors import (
    EmptySubset,
    IndexOutOfRange,
    InvariantViolation,
    MarginalMismatch,
)
from momt.measure import (
    Coupling,
    DiscreteMeasure,
    Space,
    disintegrate,
    glue,
    pushforward,
    recombine,
)
from momt.reduction import reduce
from momt.tolerances import MASS_FLOOR, STORAGE_TOL
from conftest import dense_is_vertex, every_basis_vertices, pair_model, random_instance


def marginals_match(plan: Coupling, measures: list[DiscreteMeasure],
                    tol: float = 1e-8) -> float:
    """Largest deviation between the plan's axis marginals and the targets
    (a test oracle)."""
    worst = 0.0
    for axis, m in enumerate(measures):
        dev = float(np.abs(plan.axis_marginal(axis) - m.weights).max())
        worst = max(worst, dev)
        if dev > tol:
            raise MarginalMismatch(axis, dev)
    return worst


def test_space_rejects_duplicate_points():
    with pytest.raises(InvariantViolation):
        Space("X", np.array([[0.0, 0.0], [0.0, 0.0]]))


def coincident_pair(name, pts):
    """The dense check Space once made, as the reference: its message for the
    closest pair of atoms within STORAGE_TOL (least (i, j) on ties), else None."""
    with np.errstate(over="ignore"):
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
    np.fill_diagonal(dist, np.inf)
    if dist.min() > STORAGE_TOL:
        return None
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    return f"space {name!r}: atoms {i} and {j} coincide within {STORAGE_TOL}"


@st.composite
def spaces_with_near_duplicates(draw):
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 3))
    coordinate = draw(st.sampled_from([st.floats(-4, 4), st.integers(0, 2).map(float)]))
    pts = np.array(draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                                 min_size=n, max_size=n)))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        offset = draw(st.sampled_from([0.0, 1e-12, 5e-10, 1e-9, 2e-9, 1e-6]))
        direction = draw(st.lists(st.floats(-1, 1), min_size=d, max_size=d))
        pts[b] = pts[a] + offset * np.array(direction)
    return pts


@settings(max_examples=300, deadline=None)
@given(pts=spaces_with_near_duplicates())
def test_space_names_the_closest_coincident_pair(pts):
    want = coincident_pair("X", pts)
    if want is None:
        Space("X", pts)
    else:
        with pytest.raises(InvariantViolation) as info:
            Space("X", pts)
        assert str(info.value) == want


def test_a_large_space_builds_in_linear_memory():
    # 200 000 atoms on one axis fit the grid cap; a dense distance matrix
    # of them would take 298 GiB
    pts = np.random.default_rng(0).uniform(0, 1, (200_000, 3))
    tracemalloc.start()
    try:
        Space("X", pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_space_rejects_empty():
    with pytest.raises(InvariantViolation):
        Space("X", np.zeros((0, 2)))


def test_measure_weight_validation():
    X = Space("X", np.array([[0.0], [1.0]]))
    with pytest.raises(InvariantViolation):
        DiscreteMeasure(X, np.array([0.4, 0.4]))
    with pytest.raises(InvariantViolation):
        DiscreteMeasure(X, np.array([-0.1, 1.1]))
    # a weight within STORAGE_TOL below 0 is the dust of an empty atom
    w = np.array([-1e-13, 1.0])
    assert DiscreteMeasure(X, w).weights.tolist() == [0.0, 1.0]
    assert w[0] == -1e-13


def test_coupling_prunes_dust_and_checks_mass():
    c = Coupling((2, 2), {(0, 0): 0.5, (1, 1): 0.5, (0, 1): 1e-16})
    assert (0, 1) not in c.entries
    with pytest.raises(InvariantViolation):
        Coupling((2, 2), {(0, 0): 0.7})


def _loop_coupling(arities, entries):
    """The entry-by-entry validation `Coupling` ran before it used arrays."""
    clean = {}
    total = 0.0
    for idx, mass in entries.items():
        idx = tuple(int(i) for i in idx)
        if len(idx) != len(arities):
            raise InvariantViolation(f"index {idx} has wrong length")
        for ax, (i, n) in enumerate(zip(idx, arities)):
            if not 0 <= i < n:
                raise IndexOutOfRange(f"index {idx} out of bounds on axis {ax}")
        if mass <= MASS_FLOOR:
            continue
        clean[idx] = clean.get(idx, 0.0) + float(mass)
        total += mass
    if abs(total - 1.0) > STORAGE_TOL:
        raise InvariantViolation(f"total mass {total!r} differs from 1")
    return clean


def _outcome(build, arities, entries):
    """Entries with the types and bits of keys and masses, or the error raised."""
    try:
        out = build(arities, entries)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(out, Coupling):
        out = out.entries
    return [(tuple((type(i), i) for i in k), type(v), float(v).hex())
            for k, v in out.items()]


def _assert_matches_loop(arities, entries):
    assert _outcome(Coupling, arities, entries) == _outcome(_loop_coupling, arities,
                                                            entries)


def test_coupling_validation_matches_the_entry_loop():
    rng = np.random.default_rng(5)
    for trial in range(300):
        arities = tuple(rng.integers(1, 5, rng.integers(1, 5)).tolist())
        k = int(rng.integers(0, 12))
        keys = [tuple(int(rng.integers(0, n)) for n in arities) for _ in range(k)]
        if trial % 3 == 0:         # numpy integers, and floats that int() truncates
            keys = [tuple(np.int64(i) for i in key) for key in keys]
        elif trial % 3 == 1 and keys:
            keys[0] = tuple(i + 0.5 for i in keys[0])
        w = rng.dirichlet(np.ones(max(k, 1)))[:k]
        w[rng.uniform(size=k) < 0.2] = MASS_FLOOR * rng.choice([0.5, 1.0, 2.0])
        masses = w.tolist() if trial % 2 else list(w)       # floats or np.float64
        _assert_matches_loop(arities, dict(zip(keys, masses)))


@pytest.mark.parametrize("entries", [
    {},
    {(0, 0): 0.7},
    {(0, 0): 0.5, (0.9, 0): 0.5},                    # int() merges the keys
    {(0, 1): 0.5, (0, 1.2): 0.25, (1, 0): 0.25},
    {(0, 0): np.float64(0.5), (1, 1): 0.5},
    {(0, 0): 1, (1, 1): 0.0},
    {(0, 0): float("nan")},
    {(0, 0, 0): 1.0},
    {(2, 0): 1.0},
    {(0, -1): 1.0},
    {(0, 2**70): 1.0},
    {(0, 2**64 - 1): 1.0},
    {(0, 0): 0.5, (1,): 0.5},
    {(0, 0): 0.5, ("a", 1): 0.5},
    {(0, 0): 0.5, (None, 1): 0.5},
    {(0, 0): 0.5, 7: 0.5},
    {(0, 0): "x", (5, 5): 1.0},                      # the mass fails first
    {(5, 5): 1.0, (0, 0): "x"},                      # the index fails first
    {(5, 5): 1.0, ("a", 0): 0.5},
    {("a", 0): 0.5, (5, 5): 1.0},
    {(0, 0): 0.5, (0, 0, 1): 0.5, (3, 0): 0.0},
    {(0, 0): 0.5, (3, 0): 0.0, (0, 0, 1): 0.5},
    {(0, 0): 0.5, (1, 1): np.array([0.5, 0.5])},
])
def test_coupling_errors_and_edge_cases_match_the_entry_loop(entries):
    _assert_matches_loop((2, 2), entries)


def _loop_from_dense(array):
    """`Coupling.from_dense` as it was: one cell at a time over np.ndindex."""
    array = np.asarray(array, dtype=float)
    entries = {
        tuple(int(i) for i in idx): float(array[idx])
        for idx in np.ndindex(array.shape)
        if array[idx] > MASS_FLOOR
    }
    return Coupling(array.shape, entries)


def _dense_cases():
    rng = np.random.default_rng(11)
    for trial in range(200):
        shape = tuple(rng.integers(1, 6, rng.integers(1, 5)).tolist())
        dense = np.where(rng.uniform(size=shape) < 0.3, rng.uniform(size=shape), 0.0)
        if dense.sum() == 0:
            dense.flat[0] = 1.0
        dense = dense / dense.sum()
        if trial % 4 == 1:          # dust at, just above and below the floor
            dense.flat[rng.integers(dense.size, size=3)] = \
                MASS_FLOOR * np.array([0.5, 1.0, 2.0])
        elif trial % 4 == 2:        # Fortran layout: keys stay in C order
            dense = np.asfortranarray(dense)
        elif trial % 4 == 3:        # negative cells and a total off 1 by far
            dense.flat[0] = -0.25
        yield dense
    yield np.array(1.0)
    yield np.array(0.0)
    yield [[0.5, 0], [0, 0.5]]
    yield np.array([[1, 0], [0, 0]])


def test_from_dense_matches_the_cell_loop():
    def build(_, dense):
        return Coupling.from_dense(dense)

    def loop(_, dense):
        return _loop_from_dense(dense)

    for dense in _dense_cases():
        assert _outcome(build, None, dense) == _outcome(loop, None, dense)


def test_is_graph_matches_single_cell_fibers():
    rng = np.random.default_rng(4)
    outcomes = set()
    for arities in [(3, 4), (4, 2, 3)]:
        for _ in range(40):
            x = rng.uniform(size=arities) * (rng.uniform(size=arities) < 0.25)
            if not x.any():
                continue
            plan = Coupling.from_dense(x / x.sum())
            want = all(len(f) == 1 for f in plan.fibers(0).values())
            assert plan.is_graph() == want
            outcomes.add(want)
    assert outcomes == {True, False}


def test_product_coupling_marginalizes_to_product():
    dense = np.full((2, 2, 2), 1 / 8)
    plan = Coupling.from_dense(dense)
    pushed = pushforward(plan, (0, 2))
    assert np.allclose(pushed.to_dense(), np.full((2, 2), 0.25), atol=1e-15)


def test_dirac_pushforward():
    plan = Coupling((2, 2, 2), {(0, 1, 1): 1.0})
    pushed = pushforward(plan, (1, 2))
    assert pushed.entries == {(1, 1): 1.0}


def test_pushforward_rejects_empty_subset():
    plan = Coupling((2, 2), {(0, 0): 0.5, (1, 1): 0.5})
    with pytest.raises(EmptySubset):
        pushforward(plan, ())


def test_pushforward_of_optimum_hits_reduced_optimum():
    # both routes: the simplex on the reduced table and the exhaustive
    # enumeration oracle agree with the pushed-forward value
    inst = random_instance(17, n_axes=3, max_atoms=3, kind="surplus", sense="min")
    res = lp.solve(inst)
    red = reduce(inst, res.potentials, (0, 1))
    pushed = pushforward(res.plan, (0, 1))
    pushed_value = sum(red.reduced_cost[idx] * m for idx, m in pushed.entries.items())
    reduced = lp.solve(red.instance)
    assert abs(pushed_value - reduced.value) < 1e-9
    oracle = lp.oracle_enumerate(red.instance)
    assert abs(min(v for _, v in oracle) - reduced.value) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_axis_marginals_are_probabilities(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 4, size=int(rng.integers(2, 4))))
    dense = rng.uniform(0.0, 1.0, shape)
    dense[dense < 0.3] = 0.0
    if dense.sum() == 0:
        dense.flat[0] = 1.0
    dense = dense / dense.sum()
    plan = Coupling.from_dense(dense)
    for axis in range(len(shape)):
        marg = plan.axis_marginal(axis)
        assert abs(marg.sum() - 1.0) < 1e-12
        assert (marg >= -1e-15).all()
    subset = tuple(sorted(rng.choice(len(shape), size=1, replace=False)))
    pushed = pushforward(plan, subset)
    assert np.allclose(pushed.to_dense(), plan.marginal_on(subset), atol=1e-14)


# -- disintegration ---------------------------------------------------------

def test_disintegrate_product_gives_second_factor():
    mu = np.array([0.3, 0.7])
    nu = np.array([0.2, 0.5, 0.3])
    plan = Coupling.from_dense(np.outer(mu, nu))
    dis = disintegrate(plan, (0,))
    for atom in ((0,), (1,)):
        assert np.allclose(dis.conditional_weights(atom), nu, atol=1e-14)


def test_disintegrate_graph_gives_diracs():
    w = np.array([0.2, 0.3, 0.5])
    images = {0: 2, 1: 0, 2: 1}
    plan = Coupling((3, 3), {(i, images[i]): w[i] for i in range(3)})
    dis = disintegrate(plan, (0,))
    for i, img in images.items():
        cond = dis.conditional_weights((i,))
        assert cond[img] == pytest.approx(1.0, abs=1e-14)
        assert cond.sum() == pytest.approx(1.0, abs=1e-14)


def test_disintegration_roundtrip_seed7():
    rng = np.random.default_rng(7)
    dense = rng.uniform(0.01, 1.0, (4, 3))
    dense = dense / dense.sum()
    plan = Coupling.from_dense(dense)
    dis = disintegrate(plan, (0,))
    back = recombine(dis, plan.arities)
    assert plan.total_variation(back) < 1e-14


def test_disintegration_roundtrip_all_subsets():
    rng = np.random.default_rng(3)
    dense = rng.uniform(0.0, 1.0, (3, 2, 3))
    dense[dense < 0.4] = 0.0
    dense = dense / dense.sum()
    plan = Coupling.from_dense(dense)
    for conditioning in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
        dis = disintegrate(plan, conditioning)
        assert plan.total_variation(recombine(dis, plan.arities)) < 1e-12
        # conditionals exist exactly at positive-mass base atoms
        assert set(dis.conditionals) == set(dis.base.entries)


# -- gluing -----------------------------------------------------------------

def _coupled_pair(seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.3, 1.0, 3)
    w = w / w.sum()
    left = rng.uniform(0.05, 1.0, (3, 3))
    left = left * (w / left.sum(1))[:, None]
    right = rng.uniform(0.05, 1.0, (3, 4))
    right = right * (w / right.sum(1))[:, None]
    return Coupling.from_dense(left), Coupling.from_dense(right)


def test_glue_restrictions_match_inputs_seed11():
    left, right = _coupled_pair(11)
    glued = glue(left, right)
    assert np.abs(glued.marginal_on((0, 1)) - left.to_dense()).max() < 1e-12
    assert np.abs(glued.marginal_on((0, 2)) - right.to_dense()).max() < 1e-12


def test_glue_independence():
    mu = np.array([0.25, 0.75])
    prod = Coupling.from_dense(np.outer(mu, mu))
    glued = glue(prod, prod)
    expected = mu[:, None, None] * mu[None, :, None] * mu[None, None, :]
    assert np.abs(glued.to_dense() - expected).max() < 1e-15


def test_glue_with_deterministic_side_is_unique():
    rng = np.random.default_rng(5)
    w = rng.uniform(0.3, 1.0, 3)
    w = w / w.sum()
    T = [2, 0, 1]
    left = Coupling((3, 3), {(i, T[i]): w[i] for i in range(3)})
    right = _coupled_pair(5)[1]
    right_dense = right.to_dense() * (w / right.to_dense().sum(1))[:, None]
    right = Coupling.from_dense(right_dense)
    glued = glue(left, right)
    model = pair_model(left.to_dense(), right.to_dense())
    vertices = every_basis_vertices(model)
    assert len(vertices) == 1
    only = vertices[0].reshape(3, 3, 4)
    assert np.abs(glued.to_dense() - only).max() < 1e-12
    # one deterministic conditional per atom makes every glued conditional
    # the unique coupling of its margins, hence a vertex of the pair system
    assert dense_is_vertex(glued, model)


def test_glue_marginal_mismatch_raises():
    left = Coupling.from_dense(np.array([[0.5, 0.0], [0.0, 0.5]]))
    right = Coupling.from_dense(np.array([[0.3, 0.0], [0.0, 0.7]]))
    with pytest.raises(MarginalMismatch) as err:
        glue(left, right)
    assert err.value.axis == 0
    assert err.value.max_deviation == pytest.approx(0.2)


def test_glue_restriction_property_random():
    for seed in range(6):
        left, right = _coupled_pair(seed)
        glued = glue(left, right)
        assert pushforward(glued, (0, 1)).total_variation(left) < 1e-12
        assert pushforward(glued, (0, 2)).total_variation(right) < 1e-12


def test_glue_of_graphs_is_the_graph_of_both_maps():
    left = Coupling((2, 2), {(0, 1): 0.4, (1, 0): 0.6})
    right = Coupling((2, 2), {(0, 0): 0.4, (1, 1): 0.6})
    assert glue(left, right).entries == {(0, 1, 0): pytest.approx(0.4),
                                         (1, 0, 1): pytest.approx(0.6)}


def test_marginals_match_reports_axis():
    plan = Coupling.from_dense(np.array([[0.5, 0.0], [0.0, 0.5]]))
    X = Space("X", np.array([[0.0], [1.0]]))
    good = DiscreteMeasure(X, np.array([0.5, 0.5]))
    bad = DiscreteMeasure(X, np.array([0.3, 0.7]))
    assert marginals_match(plan, [good, good]) < 1e-15
    with pytest.raises(MarginalMismatch) as err:
        marginals_match(plan, [good, bad])
    assert err.value.axis == 1
