from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momt.errors import InvariantViolation, OutOfRange
from momt.measure import Coupling, DiscreteMeasure, Space
from momt.twomap import (
    TwoMapAssembly,
    assemble_three_marginal,
    extreme_assemblies,
    lij_window,
    product_rows,
    recover_theta,
    unique_condition,
)
from momt.tolerances import MASS_FLOOR, STORAGE_TOL
from conftest import (dense_is_vertex, dense_window_scan, every_basis_vertices,
                      pair_model, two_map_restriction)

def two_map_data_from_plans(plan_xy: Coupling, plan_xz: Coupling,
                            mu: DiscreteMeasure):
    """Extract (alpha, T1, T2, beta, G1, G2) from two two-map restrictions.

    Maps are ordered by decreasing conditional weight (ties by atom index);
    singleton fibers coalesce to a duplicated map with weight 1, collapsing
    that atom's window.
    """
    def extract(plan):
        fibers = plan.fibers(0)
        n = mu.size
        w1 = np.ones(n)
        m1 = np.zeros(n, dtype=int)
        m2 = np.zeros(n, dtype=int)
        for x in range(n):
            if mu.weights[x] <= MASS_FLOOR:
                continue
            items = sorted(fibers.get(x, {}).items(), key=lambda kv: (-kv[1], kv[0]))
            if len(items) == 0 or len(items) > 2:
                raise InvariantViolation(
                    f"atom {x}: fiber size {len(items)}, need 1 or 2 for two-map data"
                )
            m1[x] = items[0][0][0]
            if len(items) == 1:
                m2[x] = m1[x]
                w1[x] = 1.0
            else:
                m2[x] = items[1][0][0]
                w1[x] = items[0][1] / mu.weights[x]
        return w1, m1, m2

    alpha, T1, T2 = extract(plan_xy)
    beta, G1, G2 = extract(plan_xz)
    return alpha, T1, T2, beta, G1, G2


unit = st.floats(0.0, 1.0, allow_nan=False)


def test_window_values():
    assert lij_window(0.3, 0.8) == (pytest.approx(0.1), pytest.approx(0.3))
    assert lij_window(0.5, 0.5) == (0.0, pytest.approx(0.5))
    lo, hi = lij_window(1.0, 0.4)
    assert lo == pytest.approx(0.4) and hi == pytest.approx(0.4)


def test_window_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        lij_window(-0.2, 0.5)
    with pytest.raises(OutOfRange):
        lij_window(0.5, 1.3)


@settings(max_examples=120, deadline=None)
@given(unit, unit)
def test_window_is_ordered_and_feasible(alpha, beta):
    lo, hi = lij_window(alpha, beta)
    assert 0.0 <= lo <= hi + 1e-15
    assert hi <= min(alpha, beta) + 1e-15
    for l11 in (lo, hi, 0.5 * (lo + hi)):
        row = np.array([l11, alpha - l11, beta - l11, 1 - alpha - beta + l11])
        assert (row >= -1e-12).all() and (row <= 1 + 1e-12).all()


@settings(max_examples=60, deadline=None)
@given(unit, unit)
@example(alpha=1.0, beta=1e-9)      # alpha + beta - 1 rounds to 1.0000000827e-9
def test_dense_scan_stays_inside_window(alpha, beta):
    admissible = dense_window_scan(alpha, beta, step=1e-3)
    lo, hi = lij_window(alpha, beta)
    if admissible.size:
        assert admissible.min() >= lo - 1e-9
        assert admissible.max() <= hi + 1e-9
    else:
        # the scan grid can only miss a window narrower than its step
        assert hi - lo < 1e-3


def _demo(alpha, beta):
    n = len(alpha)
    maps = (np.arange(n) * 2, np.arange(n) * 2 + 1,
            np.arange(n) * 2, np.arange(n) * 2 + 1)
    return extreme_assemblies(np.asarray(alpha, float), np.asarray(beta, float),
                              maps, 2 * n, 2 * n)


def test_alpha_zero_collapses_to_unique_row():
    lower, upper = _demo([0.0], [0.6])
    for asm in (lower, upper):
        assert np.allclose(asm.L[0], [0.0, 0.0, 0.6, 0.4], atol=1e-15)


def test_half_half_endpoints():
    lower, upper = _demo([0.5], [0.5])
    assert np.allclose(lower.L[0], [0.0, 0.5, 0.5, 0.0], atol=1e-15)
    assert np.allclose(upper.L[0], [0.5, 0.0, 0.0, 0.5], atol=1e-15)


def test_row_equations_and_vertexhood_seed13():
    rng = np.random.default_rng(13)
    n = 6
    alpha = rng.uniform(0.05, 0.95, n)
    beta = rng.uniform(0.05, 0.95, n)
    masses = rng.uniform(0.4, 1.6, n)
    masses = masses / masses.sum()
    lower, upper = _demo(alpha, beta)
    for asm in (lower, upper):
        resid = np.abs(np.column_stack([
            asm.L[:, 0] + asm.L[:, 1] - alpha,
            asm.L[:, 2] + asm.L[:, 3] - (1 - alpha),
            asm.L[:, 0] + asm.L[:, 2] - beta,
            asm.L[:, 1] + asm.L[:, 3] - (1 - beta),
        ])).max()
        assert resid < 1e-14
    X = Space("X", np.arange(n, dtype=float)[:, None])
    mu = DiscreteMeasure(X, masses)
    target_xy = two_map_restriction(alpha, lower.T1, lower.T2, mu, 2 * n)
    target_xz = two_map_restriction(beta, lower.G1, lower.G2, mu, 2 * n)
    model = pair_model(target_xy.to_dense(), target_xz.to_dense())
    for asm in (lower, upper):
        plan = assemble_three_marginal(asm, mu)
        assert dense_is_vertex(plan, model)


def test_unique_condition_cases():
    per_atom, glob = unique_condition(np.array([1.0]), np.array([0.4]))
    assert per_atom[0] and glob
    per_atom, glob = unique_condition(np.array([0.5]), np.array([0.5]))
    assert not per_atom[0] and not glob
    per_atom, glob = unique_condition(np.array([0.0, 0.5]), np.array([0.3, 1.0]))
    assert per_atom.tolist() == [True, True] and glob


def test_product_form_on_collapsed_windows():
    alpha = np.array([1.0, 0.0, 0.3])
    beta = np.array([0.4, 0.7, 1.0])
    lower, upper = _demo(alpha, beta)
    rows = product_rows(alpha, beta)
    assert np.abs(lower.L - rows).max() < 1e-12
    assert np.abs(upper.L - rows).max() < 1e-12


def test_assembly_invariants_enforced():
    for theta in (1.8, np.nan):
        with pytest.raises(OutOfRange):
            TwoMapAssembly(np.array([0.5]), np.array([0.5]),
                           np.array([0]), np.array([1]), np.array([0]),
                           np.array([1]), 2, 2, np.array([theta]))


@pytest.mark.parametrize("field", ["beta", "theta", "T1", "T2", "G1", "G2"])
def test_assembly_refuses_a_length_other_than_alphas(field):
    lower, _ = _demo([0.3, 0.6], [0.5, 0.4])
    with pytest.raises(InvariantViolation):
        replace(lower, **{field: getattr(lower, field)[:1]})


def test_assemble_and_recover_refuse_another_atom_count():
    lower, _ = _demo([0.3, 0.6], [0.5, 0.4])
    plan = assemble_three_marginal(lower, DiscreteMeasure(
        Space("X", np.array([[0.0], [1.0]])), np.array([0.5, 0.5])))
    for masses in ([1.0], [0.2, 0.3, 0.5]):
        mu = DiscreteMeasure(Space("X", np.arange(len(masses), dtype=float)[:, None]),
                             np.array(masses))
        with pytest.raises(InvariantViolation):
            assemble_three_marginal(lower, mu)
        with pytest.raises(InvariantViolation):
            recover_theta(plan, lower, mu)


edge = st.sampled_from([0.0, 1.0, 1e-13, 1.0 - 1e-13]) | unit


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    *(st.lists(edge, min_size=n, max_size=n) for _ in range(4)))))
def test_theta_builds_a_feasible_assembly(data):
    """What `TwoMapAssembly` no longer checks holds for every theta in [0, 1]:
    entries in [0, 1], the four row equations, L11 inside its window, all
    within STORAGE_TOL, and theta reads back off the assembled plan."""
    alpha, beta, theta, masses = (np.array(v) for v in data)
    n = alpha.size
    lower, _ = _demo(alpha, beta)
    asm = replace(lower, theta=theta)
    L = asm.L
    assert ((-STORAGE_TOL <= L) & (L <= 1 + STORAGE_TOL)).all()
    resid = np.column_stack([L[:, 0] + L[:, 1] - alpha, L[:, 2] + L[:, 3] - (1 - alpha),
                             L[:, 0] + L[:, 2] - beta, L[:, 1] + L[:, 3] - (1 - beta)])
    assert np.abs(resid).max() <= STORAGE_TOL
    assert ((asm.low - STORAGE_TOL <= L[:, 0]) & (L[:, 0] <= asm.high + STORAGE_TOL)).all()
    masses = masses + 0.5
    mu = DiscreteMeasure(Space("X", np.arange(n, dtype=float)[:, None]),
                         masses / masses.sum())
    back = recover_theta(assemble_three_marginal(asm, mu), asm, mu)
    wide = asm.high - asm.low > 1e-6
    assert np.abs(back - theta)[wide].max(initial=0.0) <= 1e-9


def test_graph_assembly_when_all_mass_on_first_maps():
    lower, upper = _demo([1.0, 1.0], [1.0, 1.0])
    X = Space("X", np.array([[0.0], [1.0]]))
    mu = DiscreteMeasure(X, np.array([0.4, 0.6]))
    plan = assemble_three_marginal(upper, mu)
    assert plan.entries == {(0, 0, 0): pytest.approx(0.4),
                            (1, 2, 2): pytest.approx(0.6)}


def test_restrictions_match_prescription_for_any_theta():
    rng = np.random.default_rng(13)
    n = 5
    alpha = rng.uniform(0.1, 0.9, n)
    beta = rng.uniform(0.1, 0.9, n)
    masses = rng.uniform(0.5, 1.5, n)
    masses = masses / masses.sum()
    lower, _ = _demo(alpha, beta)
    X = Space("X", np.arange(n, dtype=float)[:, None])
    mu = DiscreteMeasure(X, masses)
    xy = two_map_restriction(alpha, lower.T1, lower.T2, mu, 2 * n)
    xz = two_map_restriction(beta, lower.G1, lower.G2, mu, 2 * n)
    for theta in (np.full(n, 0.37), rng.uniform(0, 1, n)):
        plan = assemble_three_marginal(replace(lower, theta=theta), mu)
        assert np.abs(plan.marginal_on((0, 1)) - xy.to_dense()).max() < 1e-12
        assert np.abs(plan.marginal_on((0, 2)) - xz.to_dense()).max() < 1e-12
        back = recover_theta(plan, lower, mu)
        assert np.abs(back - theta).max() < 1e-9


def test_single_open_atom_polytope_has_exactly_two_vertices():
    lower, upper = _demo([0.5], [0.5])
    X = Space("X", np.array([[0.0]]))
    mu = DiscreteMeasure(X, np.array([1.0]))
    xy = two_map_restriction(np.array([0.5]), lower.T1, lower.T2, mu, 2)
    xz = two_map_restriction(np.array([0.5]), lower.G1, lower.G2, mu, 2)
    model = pair_model(xy.to_dense(), xz.to_dense())
    vertices = every_basis_vertices(model)
    assert len(vertices) == 2
    plans = {tuple(sorted(Coupling.from_dense(v.reshape(1, 2, 2)).entries))
             for v in vertices}
    expected = {
        tuple(sorted(assemble_three_marginal(lower, mu).entries)),
        tuple(sorted(assemble_three_marginal(upper, mu).entries)),
    }
    assert plans == expected


def test_open_atoms_multiply_vertices():
    # the pair-constrained polytope factorizes over atoms, so k open windows
    # give 2**k vertices, every one an endpoint selection
    rng = np.random.default_rng(3)
    n = 2
    alpha = rng.uniform(0.2, 0.8, n)
    beta = rng.uniform(0.2, 0.8, n)
    masses = np.array([0.45, 0.55])
    lower, _ = _demo(alpha, beta)
    X = Space("X", np.arange(n, dtype=float)[:, None])
    mu = DiscreteMeasure(X, masses)
    xy = two_map_restriction(alpha, lower.T1, lower.T2, mu, 2 * n)
    xz = two_map_restriction(beta, lower.G1, lower.G2, mu, 2 * n)
    model = pair_model(xy.to_dense(), xz.to_dense())
    vertices = every_basis_vertices(model)
    assert len(vertices) == 4
    for v in vertices:
        plan = Coupling.from_dense(v.reshape(n, 2 * n, 2 * n))
        theta = recover_theta(plan, lower, mu)
        assert np.all((theta < 1e-9) | (theta > 1 - 1e-9))
        rebuilt = assemble_three_marginal(replace(lower, theta=theta), mu)
        assert rebuilt.total_variation(plan) < 1e-10


def test_two_map_data_extraction_with_coalescing():
    X = Space("X", np.array([[0.0], [1.0]]))
    mu = DiscreteMeasure(X, np.array([0.5, 0.5]))
    plan_xy = Coupling((2, 3), {(0, 1): 0.3, (0, 2): 0.2, (1, 0): 0.5})
    plan_xz = Coupling((2, 2), {(0, 0): 0.5, (1, 1): 0.5})
    alpha, T1, T2, beta, G1, G2 = two_map_data_from_plans(plan_xy, plan_xz, mu)
    assert alpha[0] == pytest.approx(0.6)
    assert (T1[0], T2[0]) == (1, 2)
    assert alpha[1] == 1.0 and T1[1] == T2[1] == 0
    assert beta.tolist() == [1.0, 1.0]
    assert G1.tolist() == [0, 1]
