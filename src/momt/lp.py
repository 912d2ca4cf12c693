"""Exact primal/dual solver for discrete Monge-Kantorovich linear programs.

The solver is a revised simplex over the dense column grid.  It prices by
the most negative reduced cost (Dantzig) and, after a run of degenerate
pivots, falls back to Bland's rule until a pivot makes progress, so it
cannot cycle.  The basis inverse is kept by rank-one updates and
refactorised at a fixed interval and before optimality is declared.
`solve` starts from an N-marginal north-west-corner staircase basis (no
phase 1) on the cost normalised to minimum 0 and span 1, and returns a
basic (vertex) plan with strictly complementary potentials: their active
set is the union of all optimal supports, whatever the pivot path.  The
face LP that makes them so also decides uniqueness: it either proves the
vertex the only optimal plan or returns a second optimal vertex, which
`uniqueness_certificate` turns into a witness without an LP of its own.
General polytopes (`solve_model`) start with a phase 1 over artificials.
Maximization instances are negated internally and the sense is restored in
all reported quantities.  Everything is deterministic.

A polytope is described by marginal-type equality constraints: each
constraint pins the plan's restriction to a block of axes.  The standard
problem uses one single-axis block per marginal; pair-constrained systems
(plans with prescribed two-axis restrictions) reuse the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InstanceTooLarge,
    InvariantViolation,
    MarginalMismatch,
    NonFiniteCost,
    SolverError,
)
from .instance import DiscreteInstance
from .measure import Coupling, DiscreteMeasure
from .tolerances import (
    ACTIVE_TOL,
    DUAL_FEAS_TOL,
    GAP_TOL,
    MASS_FLOOR,
    RATIO_TOL,
    REDUCED_COST_TOL,
    VERTEX_PIVOT_TOL,
    WITNESS_TV_TOL,
    cost_scaled,
)

DEFAULT_GRID_CAP = 200_000
ORACLE_GRID_CAP = 81
ORACLE_ATOM_CAP = 12


@dataclass(frozen=True)
class MarginalConstraint:
    """Pin the plan's restriction to `axes` to the dense `target` array."""

    axes: tuple[int, ...]
    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(int(a) for a in self.axes))
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))


class PolytopeModel:
    """Equality-form LP data A x = b, x >= 0 over a flattened multi-index grid.

    Rows are grouped by constraint block; linearly dependent rows are dropped
    deterministically so the kept system has full row rank.  For the standard
    chain of single-axis marginals the drop rule is structural: the last row
    of every marginal after the first (their block sums all equal the total
    mass).  General systems fall back to a greedy numeric selection.
    """

    def __init__(self, arities, constraints, grid_cap=DEFAULT_GRID_CAP):
        self.arities = tuple(int(n) for n in arities)
        self.n_cols = int(np.prod(self.arities))
        if self.n_cols > grid_cap:
            raise InstanceTooLarge(
                f"grid has {self.n_cols} cells, cap is {grid_cap}"
            )
        self.constraints = list(constraints)
        self._build()

    def _build(self):
        grid = np.indices(self.arities).reshape(len(self.arities), -1)
        rows, rhs, meta = [], [], []
        for ci, con in enumerate(self.constraints):
            shape = tuple(self.arities[a] for a in con.axes)
            if con.target.shape != shape:
                raise InvariantViolation(
                    f"constraint on axes {con.axes}: target shape {con.target.shape}, "
                    f"expected {shape}"
                )
            pos = np.ravel_multi_index([grid[a] for a in con.axes], shape)
            block = np.zeros((int(np.prod(shape)), self.n_cols))
            block[pos, np.arange(self.n_cols)] = 1.0
            rows.append(block)
            rhs.append(con.target.reshape(-1))
            meta.extend((ci, p) for p in range(block.shape[0]))
        A_full = np.vstack(rows) if rows else np.zeros((0, self.n_cols))
        b_full = np.concatenate(rhs) if rhs else np.zeros(0)
        self.row_meta = meta

        keep = self._independent_rows(A_full)
        self.kept = keep
        self.A = A_full[keep]
        self.b = b_full[keep]
        self.A_full = A_full
        self.b_full = b_full

    def _independent_rows(self, A_full):
        single_axis = all(len(c.axes) == 1 for c in self.constraints)
        covers = sorted(a for c in self.constraints for a in c.axes)
        if single_axis and covers == list(range(len(self.arities))):
            keep = []
            offset = 0
            for ci, con in enumerate(self.constraints):
                block_len = self.arities[con.axes[0]]
                last = offset + block_len - 1
                for r in range(offset, offset + block_len):
                    if ci > 0 and r == last:
                        continue
                    keep.append(r)
                offset += block_len
            return keep
        if self.n_cols > 20_000:
            raise InstanceTooLarge(
                "general constraint systems are limited to 20000 grid cells"
            )
        return _spanning_rows(A_full)

    def check_feasible(self, plan: Coupling, tol: float = 1e-8):
        """Raise MarginalMismatch if the plan violates any constraint block."""
        for con in self.constraints:
            dev = float(np.abs(plan.marginal_on(con.axes) - con.target).max())
            if dev > tol:
                raise MarginalMismatch(con.axes, dev)

    def columns(self, cols) -> np.ndarray:
        return self.A[:, cols]


def _spanning_rows(A, b=None) -> list[int]:
    """Greedy Gram-Schmidt: the rows of A not in the span of earlier kept rows.

    With `b`, a dropped row must be implied, so its right-hand side must
    vanish; a large one means infeasibility.
    """
    keep, basis = [], []
    for r in range(A.shape[0]):
        v = A[r].astype(float)
        for u in basis:
            v = v - (u @ A[r]) * u
        norm = np.linalg.norm(v)
        if norm > 1e-9 * (1.0 + np.linalg.norm(A[r])):
            basis.append(v / norm)
            keep.append(r)
        elif b is not None and abs(b[r]) > 1e-9:
            raise SolverError("zero-support row with positive mass requirement")
    return keep


def standard_model(measures: list[DiscreteMeasure],
                   grid_cap=DEFAULT_GRID_CAP) -> PolytopeModel:
    arities = tuple(m.size for m in measures)
    cons = [MarginalConstraint((k,), m.weights) for k, m in enumerate(measures)]
    return PolytopeModel(arities, cons, grid_cap=grid_cap)


# ---------------------------------------------------------------------------
# revised simplex
# ---------------------------------------------------------------------------

_MAX_PIVOTS = 200_000
_STALL_PIVOTS = 40       # degenerate pivots in a row before Bland's rule takes over
_REFACTOR_EVERY = 50     # rank-one updates between fresh basis factorisations
_FACE_MASS_TOL = 1e-9    # off-support mass below which a face LP optimum is zero
_SMALL_PIVOT = 1e-3      # pivots this small relative to their column get a fresh B^{-1}
_TINY_PIVOT = 1e-7       # and this small even then are refused, as near-singular


@dataclass
class _SimplexState:
    basis: list[int]          # column ids; id >= n_cols means artificial e_{id-n_cols}
    iterations: int = 0       # pivots taken
    inverse: np.ndarray | None = None   # B^{-1}, kept by rank-one updates
    updates: int = 0          # rank-one updates since the last factorisation


def _basis_matrix(A, m, basis):
    B = np.empty((m, m))
    for p, col in enumerate(basis):
        if col >= A.shape[1]:
            B[:, p] = 0.0
            B[col - A.shape[1], p] = 1.0
        else:
            B[:, p] = A[:, col]
    return B


def _refactor(A, state):
    m = A.shape[0]
    try:
        state.inverse = np.linalg.solve(_basis_matrix(A, m, state.basis), np.eye(m))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular basis: {exc}") from exc
    state.updates = 0


def _exchange(state, p, entering, d):
    """Put `entering` (whose column is B d) at basis position p."""
    inv = state.inverse
    row = inv[p] / d[p]
    inv -= np.outer(d, row)
    inv[p] = row
    state.basis[p] = entering
    state.updates += 1


def _in_basis(state, n):
    mask = np.zeros(n, dtype=bool)
    cols = np.asarray(state.basis)
    mask[cols[cols < n]] = True
    return mask


def _pivot_loop(A, b, costs, state, allow_enter, max_iter=_MAX_PIVOTS):
    """Pivot until no allowed column prices out (min sense); return (xB, y).

    Dantzig pricing enters the most negative reduced cost and leaves on the
    largest pivot among ratio ties.  After _STALL_PIVOTS degenerate pivots in
    a row, Bland's rule (lowest entering index, lowest leaving column) takes
    over until a pivot makes progress, so the loop cannot cycle.  Optimality
    is only declared, and small pivots only taken, on a freshly factorised
    basis; a column whose pivot is tiny even then would make the basis
    near-singular, and is passed over until the next pivot.
    """
    m, n = A.shape
    in_basis = _in_basis(state, n)
    rejected = np.zeros(n, dtype=bool)
    stalled = 0
    while True:
        if state.inverse is None or state.updates >= _REFACTOR_EVERY:
            _refactor(A, state)
        inv = state.inverse
        xB = inv @ b
        y = costs[state.basis] @ inv
        reduced = costs[:n] - y @ A
        candidates = allow_enter & ~in_basis & ~rejected & (reduced < -REDUCED_COST_TOL)
        if not candidates.any():
            if state.updates == 0:
                return xB, y
            state.inverse = None           # price again on a fresh factorisation
            continue
        bland = stalled >= _STALL_PIVOTS
        if bland:
            entering = int(np.argmax(candidates))
        else:
            entering = int(np.argmin(np.where(candidates, reduced, np.inf)))
        d = inv @ A[:, entering]
        pos = d > RATIO_TOL
        if not pos.any():
            raise SolverError("unbounded direction on a mass polytope")
        ratios = np.full(m, np.inf)
        ratios[pos] = np.maximum(xB[pos], 0.0) / d[pos]
        rmin = ratios.min()
        tied = np.flatnonzero(ratios <= rmin + 1e-10 * (1.0 + rmin))
        if bland:
            leaving = min(tied, key=lambda p: state.basis[p])
        else:
            leaving = tied[np.argmax(d[tied])]
        if state.updates and d[leaving] < _SMALL_PIVOT * np.abs(d).max():
            state.inverse = None           # may be update noise: recompute it
            continue
        if d[leaving] < _TINY_PIVOT * np.abs(d).max():
            rejected[entering] = True
            continue
        rejected[:] = False
        state.iterations += 1
        if state.iterations > max_iter:
            raise SolverError("simplex iteration cap exceeded")
        stalled = stalled + 1 if rmin <= RATIO_TOL else 0
        if state.basis[leaving] < n:
            in_basis[state.basis[leaving]] = False
        in_basis[entering] = True
        _exchange(state, leaving, entering, d)


def _basic_solution(xB, state, n):
    if (xB < -1e-9).any():
        raise SolverError("basic solution drifted negative")
    x = np.zeros(n)
    for p, col in enumerate(state.basis):
        if col < n:
            x[col] = max(xB[p], 0.0)
    return x


def _feasible_basis(A, b, max_iter=_MAX_PIVOTS):
    """Phase 1 from an all-artificial basis, then pivot the artificials out."""
    m, n = A.shape
    state = _SimplexState(basis=[n + i for i in range(m)], inverse=np.eye(m))
    phase1 = np.concatenate([np.zeros(n), np.ones(m)])
    xB, _ = _pivot_loop(A, b, phase1, state, np.ones(n, dtype=bool), max_iter)
    infeas = sum(xB[p] for p in range(m) if state.basis[p] >= n)
    if infeas > 1e-9:
        raise SolverError(f"phase-1 infeasibility {infeas:.3e}")
    in_basis = _in_basis(state, n)
    for p in range(m):
        if state.basis[p] < n:
            continue
        row = state.inverse[p] @ A
        cand = (np.abs(row) > 1e-9) & ~in_basis
        if not cand.any():
            raise SolverError("could not pivot artificial out of a full-rank system")
        chosen = int(np.argmax(cand))
        in_basis[chosen] = True
        _exchange(state, p, chosen, state.inverse @ A[:, chosen])
    return state


def _simplex(A, b, costs, max_iter=_MAX_PIVOTS, basis=None):
    """Revised simplex; returns (x over columns, duals, pivots).

    Without a starting `basis`, phase 1 finds one from artificials.
    """
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    if basis is None:
        state = _feasible_basis(A, b, max_iter)
    else:
        state = _SimplexState(basis=list(basis))
    xB, y = _pivot_loop(A, b, np.asarray(costs, float), state,
                        np.ones(n, dtype=bool), max_iter)
    x = _basic_solution(xB, state, n)
    return x, y * np.where(neg, -1.0, 1.0), state.iterations


# ---------------------------------------------------------------------------
# potentials and solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potentials:
    """One dual vector per marginal, in the instance's own sense.

    Feasibility: sum_k phi_k <= c on the full grid for minimization (>= for
    maximization), up to 1e-9 times the cost's span plus N ulps of its
    largest magnitude (`cost_scaled`).  The gauge is canonical: every
    vector after the first has zero mean against its marginal, the constant
    sits in the first vector.
    """

    vectors: list[np.ndarray]
    sense: str = "min"

    def sum_grid(self, arities) -> np.ndarray:
        total = np.zeros(arities)
        for k, phi in enumerate(self.vectors):
            shape = [1] * len(arities)
            shape[k] = arities[k]
            total = total + phi.reshape(shape)
        return total

    def dual_value(self, measures: list[DiscreteMeasure]) -> float:
        return float(sum(phi @ m.weights for phi, m in zip(self.vectors, measures)))

    def feasibility_violation(self, cost_grid: np.ndarray) -> float:
        """Worst violation of the dual inequality over the full grid."""
        slack = cost_grid - self.sum_grid(cost_grid.shape)
        if self.sense == "min":
            return float(max(0.0, -slack.min()))
        return float(max(0.0, slack.max()))


def _canonical_gauge(vectors, measures):
    out = [v.copy() for v in vectors]
    shift = 0.0
    for k in range(1, len(out)):
        mean = float(out[k] @ measures[k].weights)
        out[k] -= mean
        shift += mean
    out[0] += shift
    return out


@dataclass(frozen=True)
class MinimizingSet:
    """Multi-indices where the dual inequality is active within tolerance."""

    indices: frozenset
    tolerance: float = ACTIVE_TOL

    def __contains__(self, idx):
        return tuple(idx) in self.indices


def minimizing_set(instance: DiscreteInstance, potentials: Potentials,
                   tolerance: float = ACTIVE_TOL) -> MinimizingSet:
    slack = np.abs(instance.cost_grid() - potentials.sum_grid(instance.arities))
    idx = frozenset(
        tuple(int(i) for i in t) for t in np.argwhere(slack <= tolerance)
    )
    return MinimizingSet(idx, tolerance)


@dataclass
class SolveResult:
    plan: Coupling
    potentials: Potentials
    value: float
    iterations: int = 0
    duality_gap: float = 0.0
    slack_residual: float = 0.0
    # another optimal vertex (flattened grid, on active cells only, as the
    # face LP of `solve` enters no other); None proves the plan unique
    second_vertex: np.ndarray | None = None

    def __iter__(self):
        return iter((self.plan, self.potentials, self.value))


def _coupling_from_x(x: np.ndarray, arities: tuple[int, ...]) -> Coupling:
    """Prune simplex dust and renormalize the sub-1e-9 total-mass drift."""
    total = float(x.sum())
    if abs(total - 1.0) > 1e-9:
        raise SolverError(f"solution mass {total!r} is not a probability")
    entries = {}
    for col in np.flatnonzero(x > MASS_FLOOR):
        idx = tuple(int(i) for i in np.unravel_index(col, arities))
        entries[idx] = float(x[col]) / total
    return Coupling(arities, entries)


def _staircase_basis(measures: list[DiscreteMeasure]) -> list[int]:
    """North-west-corner basis of the standard model.

    Walk from cell (0, ..., 0), placing as much mass as every current atom
    has left, and advance exactly one axis per step: the one whose atom has
    least mass left, among axes not at their last atom (lowest axis on
    ties).  That gives sum(n_k) - N + 1 cells; each one but the last is the
    final cell of the atom it leaves, and the last holds the last atom of
    axis 0, so the columns are triangular on the kept rows, hence a basis,
    and the placed masses make it feasible.
    """
    arities = tuple(m.size for m in measures)
    left = [m.weights.copy() for m in measures]
    at = [0] * len(arities)
    cells = []
    while True:
        cells.append(int(np.ravel_multi_index(at, arities)))
        mass = min(w[i] for w, i in zip(left, at))
        for w, i in zip(left, at):
            w[i] -= mass
        movable = [k for k, n in enumerate(arities) if at[k] < n - 1]
        if not movable:
            return cells
        at[min(movable, key=lambda k: left[k][at[k]])] += 1


def _strictly_complementary(A, b, c, x, y, state):
    """Move optimal duals y onto the relative interior of the dual face.

    Returns them with the first positive face-LP solution, or None.  Cells
    priced within ACTIVE_TOL may carry optimal mass.  A face LP over them,
    warm-started from the optimal basis, maximizes the mass off the cells
    known to be in some optimal support.  A positive optimum is another
    optimal plan: its support joins the known cells and the face LP runs
    again.  A zero optimum proves the known cells are the union of all
    optimal supports; the face LP's dual psi then prices every other active
    cell at -1 or less and the known cells at 0, so the step y + eps * psi
    makes them inactive without changing the dual value.  eps is the largest
    step that leaves every inactive cell at least as much slack as the
    cells it frees (Goldman-Tucker strict complementarity).
    """
    known = x > MASS_FLOOR
    reduced = c - y @ A
    active = reduced <= ACTIVE_TOL
    second = None
    while True:
        off = active & ~known
        if not off.any():
            return y, second
        face = -off.astype(float)
        xB, psi = _pivot_loop(A, b, face, state, active)
        xf = _basic_solution(xB, state, A.shape[1])
        if xf[off].sum() > _FACE_MASS_TOL:
            if second is None:
                second = xf
            known |= off & (xf > MASS_FLOOR)
            continue
        a = psi @ A
        freed = float(-a[off].max())
        blocking = ~active & (a > 0)
        eps = 1.0 / freed
        if blocking.any():
            eps = min(eps, float((reduced[blocking] / (freed + a[blocking])).min()))
        return y + eps * psi, second


def solve(instance: DiscreteInstance, grid_cap: int = DEFAULT_GRID_CAP) -> SolveResult:
    """Solve the transport LP exactly.

    Returns a basic optimal plan (a polytope vertex), canonical-gauge dual
    potentials, and the optimal value; strong duality and complementary
    slackness residuals are carried along for auditing.  The simplex runs
    on the cost shifted to minimum 0 and divided by its span, and the
    potentials are strictly complementary: their active set (within
    ACTIVE_TOL times the span) is the union of all optimal supports.
    """
    grid = instance.cost_grid()
    if not np.isfinite(grid).all():
        raise NonFiniteCost("cost grid contains non-finite values")
    model = standard_model(instance.measures, grid_cap=grid_cap)
    sign = -1.0 if instance.sense == "max" else 1.0
    c = sign * grid.reshape(-1)
    shift = float(c.min())
    span = float(c.max() - shift) or 1.0
    c = (c - shift) / span
    state = _SimplexState(basis=_staircase_basis(instance.measures))
    xB, y = _pivot_loop(model.A, model.b, c, state, np.ones(model.n_cols, dtype=bool))
    x = _basic_solution(xB, state, model.n_cols)
    y, second = _strictly_complementary(model.A, model.b, c, x, y, state)

    residual = np.abs(model.A_full @ x - model.b_full).max()
    if residual > 1e-8:
        raise SolverError(f"optimal basis violates marginals by {residual:.3e}")

    plan = _coupling_from_x(x, instance.arities)

    vectors = [np.zeros(n) for n in instance.arities]
    for r, kept_row in enumerate(model.kept):
        ci, pos = model.row_meta[kept_row]
        vectors[ci][pos] = sign * span * y[r]
    vectors[0] += sign * shift
    vectors = _canonical_gauge(vectors, instance.measures)
    potentials = Potentials(vectors, instance.sense)
    violation = potentials.feasibility_violation(grid)
    if violation > cost_scaled(DUAL_FEAS_TOL, grid):
        raise SolverError(f"potentials violate dual feasibility by {violation:.3e}")

    value = sign * (shift + span * float(c @ x))
    gap = abs(value - potentials.dual_value(instance.measures))
    slack_grid = grid - potentials.sum_grid(instance.arities)
    slack_res = float(
        sum(abs(slack_grid[idx]) * mass for idx, mass in plan.entries.items())
    )
    return SolveResult(plan, potentials, value, state.iterations, gap, slack_res,
                       second)


def solve_model(model: PolytopeModel, cost_vector: np.ndarray,
                sense: str = "min") -> tuple[np.ndarray, float, int]:
    """Optimize an arbitrary linear functional over a constraint polytope."""
    sign = -1.0 if sense == "max" else 1.0
    x, _, iters = _simplex(model.A, model.b, sign * np.asarray(cost_vector, float))
    return x, float(np.asarray(cost_vector, float) @ x), iters


# ---------------------------------------------------------------------------
# vertex test
# ---------------------------------------------------------------------------

def _as_model(constraints, arities=None) -> PolytopeModel:
    if isinstance(constraints, PolytopeModel):
        return constraints
    if constraints and isinstance(constraints[0], DiscreteMeasure):
        return standard_model(constraints)
    return PolytopeModel(arities, constraints)


def is_vertex(plan: Coupling, constraints, tol: float = VERTEX_PIVOT_TOL) -> bool:
    """True iff the constraint columns active on the support are independent."""
    model = _as_model(constraints, plan.arities)
    model.check_feasible(plan)
    support = plan.support()
    if not support:
        return True
    cols = [int(np.ravel_multi_index(idx, plan.arities)) for idx in support]
    sub = model.columns(cols)
    rank = np.linalg.matrix_rank(sub, tol=tol)
    return int(rank) == len(cols)


# ---------------------------------------------------------------------------
# exhaustive vertex enumeration (the ground-truth oracle)
# ---------------------------------------------------------------------------

def _vertex_key(x, tol_digits=11):
    return tuple(
        (int(c), round(float(x[c]), tol_digits)) for c in np.flatnonzero(x > 1e-10)
    )


def _presolve_zero_cells(A, b):
    """Drop columns forced to zero by zero-mass rows with one-signed support.

    Such columns can enter bases only at level zero, multiplying the
    degenerate basis graph without contributing vertices.  Row independence
    is re-established on the reduced column space.
    """
    n = A.shape[1]
    forced = np.zeros(n, dtype=bool)
    for r in range(A.shape[0]):
        if abs(b[r]) <= 1e-13 and (A[r] >= -1e-13).all():
            forced |= A[r] > 1e-9
    keep_cols = np.flatnonzero(~forced)
    A2 = A[:, keep_cols]
    keep_rows = _spanning_rows(A2, b)
    return A2[keep_rows], b[keep_rows], keep_cols


def enumerate_vertices(model: PolytopeModel, max_bases: int = 200_000):
    """All basic feasible solutions, found by breadth-first pivoting.

    Degenerate vertices admit many bases; all of them are visited so no
    vertex hiding behind a degenerate pivot is missed.
    """
    A, b, keep_cols = _presolve_zero_cells(model.A, model.b)
    m, n = A.shape
    start = tuple(sorted(_feasible_basis(A, b).basis))
    seen_bases = {start}
    queue = [start]
    vertices: dict[tuple, np.ndarray] = {}
    while queue:
        if len(seen_bases) > max_bases:
            raise InstanceTooLarge(
                f"basis graph exceeded {max_bases} bases during enumeration"
            )
        basis = list(queue.pop())
        B = _basis_matrix(A, m, basis)
        xB = np.linalg.solve(B, b)
        x = np.zeros(model.n_cols)
        for p, col in enumerate(basis):
            x[keep_cols[col]] = max(xB[p], 0.0)
        vertices.setdefault(_vertex_key(x), x)
        in_basis = set(basis)
        directions = np.linalg.solve(B, A)
        for e in range(n):
            if e in in_basis:
                continue
            d = directions[:, e]
            pos = d > RATIO_TOL
            if not pos.any():
                continue
            ratios = np.full(m, np.inf)
            ratios[pos] = np.maximum(xB[pos], 0.0) / d[pos]
            rmin = ratios.min()
            tied = np.flatnonzero(ratios <= rmin + 1e-10 * (1.0 + rmin))
            for p in tied:
                nb = basis.copy()
                nb[p] = e
                key = tuple(sorted(nb))
                if key not in seen_bases:
                    seen_bases.add(key)
                    queue.append(key)
    return [vertices[k] for k in sorted(vertices)]


def oracle_enumerate(instance: DiscreteInstance,
                     max_bases: int = 200_000) -> list[tuple[Coupling, float]]:
    """Exhaustively enumerate polytope vertices of a small instance.

    Hard caps keep this honest: at most 81 grid cells and 12 atoms in total.
    Degenerate instances inside the caps can still visit more than
    `max_bases` bases (a 5x5 uniform-weight surplus instance, or 6x6,
    3x3x3x3 and 4x4x4 random-weight ones) and raise InstanceTooLarge.
    """
    arities = instance.arities
    if int(np.prod(arities)) > ORACLE_GRID_CAP or sum(arities) > ORACLE_ATOM_CAP:
        raise InstanceTooLarge(
            f"oracle caps are {ORACLE_GRID_CAP} cells / {ORACLE_ATOM_CAP} atoms, "
            f"got {arities}"
        )
    model = standard_model(instance.measures)
    grid = instance.cost_grid().reshape(-1)
    return [
        (_coupling_from_x(x, arities), float(grid @ x))
        for x in enumerate_vertices(model, max_bases=max_bases)
    ]


def support_enumerate(model: PolytopeModel) -> list[np.ndarray]:
    """Brute-force vertex enumeration over support patterns.

    Independent cross-check for the pivoting oracle; only viable on grids of
    a dozen cells or so.
    """
    from itertools import combinations

    A, b = model.A, model.b
    m, n = A.shape
    if n > 12:
        raise InstanceTooLarge("support enumeration is capped at 12 grid cells")
    rank = int(np.linalg.matrix_rank(A, tol=VERTEX_PIVOT_TOL))
    found: dict[tuple, np.ndarray] = {}
    for size in range(1, rank + 1):
        for cols in combinations(range(n), size):
            sub = A[:, cols]
            if np.linalg.matrix_rank(sub, tol=VERTEX_PIVOT_TOL) < size:
                continue
            sol, res, *_ = np.linalg.lstsq(sub, b, rcond=None)
            if (sol <= 1e-12).any():
                continue
            if np.abs(sub @ sol - b).max() > 1e-9:
                continue
            x = np.zeros(n)
            x[list(cols)] = sol
            found.setdefault(_vertex_key(x), x)
    return [found[k] for k in sorted(found)]


# ---------------------------------------------------------------------------
# uniqueness certificate
# ---------------------------------------------------------------------------

@dataclass
class UniquenessCertificate:
    status: str                       # unique | non-unique | inconclusive
    witness: Coupling | None = None
    face_probe_value_gap: float = 0.0
    max_tv_gap: float = 0.0


def uniqueness_certificate(instance: DiscreteInstance,
                           result: SolveResult) -> UniquenessCertificate:
    """Certify whether `result.plan` is the only optimal plan; runs no LP.

    `solve` maximizes the mass off the plan's support over the cells active
    under its optimal duals, which hold every optimal plan (Mangasarian
    1979).  A zero optimum proves the plan unique.  A positive one is a
    second optimal vertex, `result.second_vertex`: `non-unique` with it as
    witness when its cost is the plan's within GAP_TOL on the cost
    normalised as in `solve` (minimum 0, span 1) and its total-variation
    distance from the plan exceeds WITNESS_TV_TOL; `inconclusive` when it
    is that close, or dearer through cells priced within ACTIVE_TOL.
    `face_probe_value_gap` is its mass off the plan's support and
    `max_tv_gap` that distance; both are 0 for a unique plan.
    """
    x = result.second_vertex
    if x is None:
        return UniquenessCertificate("unique")
    plan = result.plan
    witness = _coupling_from_x(x, instance.arities)
    plan_x = plan.to_dense().reshape(-1)
    c = instance.cost_grid().reshape(-1) * (-1.0 if instance.sense == "max" else 1.0)
    c = (c - c.min()) / (float(np.ptp(c)) or 1.0)
    cost_gap = abs(float(c @ witness.to_dense().reshape(-1)) - float(c @ plan_x))
    off_mass = float(x[plan_x == 0.0].sum())
    tv = plan.total_variation(witness)
    if cost_gap <= GAP_TOL and tv > WITNESS_TV_TOL:
        return UniquenessCertificate("non-unique", witness, off_mass, tv)
    return UniquenessCertificate("inconclusive", None, off_mass, tv)
