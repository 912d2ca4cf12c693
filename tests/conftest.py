import numpy as np
import pytest

from momt import lp
from momt.costs import CostSpec
from momt.instance import DiscreteInstance
from momt.measure import Coupling, DiscreteMeasure, Space
from momt.tolerances import MASS_FLOOR
from momt.twomap import _rows_from_l11


def random_instance(seed, n_axes=3, max_atoms=4, kind="surplus", sense="min",
                    uniform=False, d=2):
    """Seeded instance with jittered point clouds and generic weights."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, max_atoms + 1, n_axes)
    spaces = [Space(f"S{k}", rng.normal(size=(n, d))) for k, n in enumerate(sizes)]
    measures = []
    for s in spaces:
        if uniform:
            w = np.ones(s.size) / s.size
        else:
            w = rng.uniform(0.3, 1.0, s.size)
            w = w / w.sum()
        measures.append(DiscreteMeasure(s, w))
    return DiscreteInstance(spaces, measures, CostSpec(kind, sense))


def tensor_instance(values, weights=None, sense="min"):
    """Instance over unit grids with an explicit cost tensor."""
    values = np.asarray(values, dtype=float)
    spaces = [Space(f"A{k}", np.arange(n, dtype=float)[:, None] * (k + 1) + k)
              for k, n in enumerate(values.shape)]
    if weights is None:
        weights = [np.ones(n) / n for n in values.shape]
    measures = [DiscreteMeasure(s, np.asarray(w, dtype=float))
                for s, w in zip(spaces, weights)]
    return DiscreteInstance(spaces, measures,
                            CostSpec("tensor", sense, {"values": values}))


def dense_solve(inst):
    """`lp.solve`'s start, pivot loop and face LP on the dense core, at any N.

    Two-marginal instances solve on the tree core, so this is their oracle.
    Returns a SolveResult with plan, value, pivots and second vertex (no
    potentials), ready for `lp.uniqueness_certificate`.
    """
    cols = lp._TransportColumns([m.weights for m in inst.measures])
    sign = -1.0 if inst.sense == "max" else 1.0
    c = sign * inst.cost_grid().reshape(-1)
    shift = float(c.min())
    span = float(c.max()) - shift or 1.0
    c = (c - shift) / span
    weights = [m.weights for m in inst.measures]
    state = lp._SimplexState(basis=lp._least_cost_basis(weights, c)[0])
    xB, y = lp._pivot_loop(cols, cols.b, c, state, np.ones(cols.n, dtype=bool))
    x = lp._basic_solution(xB, state, cols.n)
    _, second = lp._strictly_complementary(cols, cols.b, c, x, y, state, lp._pivot_loop)
    return lp.SolveResult(lp._coupling_from_x(x, inst.arities), None,
                          sign * (shift + span * float(c @ x)), state.iterations,
                          second_vertex=second)


def dense_simplex(A, b, costs, basis=None):
    """Revised simplex over the dense columns of A x = b, x >= 0.

    Without a starting `basis`, phase 1 finds one from artificials, as
    `lp.solve_model` does.  Returns (x over columns, duals, pivots).
    """
    n = A.shape[1]
    A, b = A.copy(), b.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    state = (lp._feasible_basis(A, b) if basis is None
             else lp._SimplexState(basis=list(basis)))
    xB, y = lp._pivot_loop(lp._DenseColumns(A), b, np.asarray(costs, float), state,
                           np.ones(n, dtype=bool))
    x = lp._basic_solution(xB, state, n)
    return x, y * np.where(neg, -1.0, 1.0), state.iterations


def twin_surplus_instance(seed, n=8):
    """Three-axis surplus instance whose last axis holds two cost twins.

    The first two axes lie in the plane z = 0, and the last axis's final
    atom is its first atom lifted to z = 1, so both atoms have the same cost
    slice: every optimal plan can trade their mass, and the pair reduction
    against the last axis is non-unique for every optimal dual.
    """
    rng = np.random.default_rng(seed)
    points = [np.column_stack([rng.uniform(-1, 1, (n, 2)), np.zeros(n)])
              for _ in range(3)]
    points[2][-1] = points[2][0] + [0.0, 0.0, 1.0]
    spaces = [Space(f"X{k}", p) for k, p in enumerate(points)]
    measures = [DiscreteMeasure(s, np.ones(n) / n) for s in spaces]
    return DiscreteInstance(spaces, measures, CostSpec("surplus", "max"))


def twin_tensor(rng, n=5):
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


def two_map_restriction(alpha, T1, T2, mu: DiscreteMeasure, n_other: int) -> Coupling:
    """The two-map coupling (alpha on the first map, 1-alpha on the second);
    a test oracle for the assemblies' pair restrictions."""
    alpha = np.asarray(alpha, dtype=float)
    entries: dict[tuple[int, int], float] = {}
    for x in range(mu.size):
        w = mu.weights[x]
        for a, T in ((float(alpha[x]), T1), (1.0 - float(alpha[x]), T2)):
            mass = w * a
            if mass <= MASS_FLOOR:
                continue
            key = (x, int(T[x]))
            entries[key] = entries.get(key, 0.0) + mass
    return Coupling((mu.size, n_other), entries)


def dense_window_scan(alpha: float, beta: float, step: float = 1e-3,
                      tol: float = 1e-9):
    """Scan L11 over [0, 1]; return values whose full row stays in [0, 1].

    Every admissible value must land inside the analytic window; used as a
    brute-force confirmation of the window formula.
    """
    values = np.arange(0.0, 1.0 + step / 2, step)
    rows = _rows_from_l11(np.full_like(values, alpha), np.full_like(values, beta),
                          values)
    ok = ((rows >= -tol) & (rows <= 1 + tol)).all(axis=1)
    return values[ok]


@pytest.fixture
def rng():
    return np.random.default_rng(0)
