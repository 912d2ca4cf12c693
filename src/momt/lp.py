"""Exact primal/dual solver for discrete Monge-Kantorovich linear programs.

`solve` builds no constraint matrix: a transport column holds one 1 per
axis block, so pricing is the broadcast c - sum_k y_k[i_k] and a column is
N index writes (`_TransportColumns`).  It starts from a least-cost basis (no
phase 1) on the cost normalised to minimum 0 and span 1, prices by the most
negative reduced cost (Dantzig) over the whole grid, and returns a basic
(vertex) plan with strictly complementary potentials: their active set is
the union of all optimal supports, whatever the pivot path.  The number of
marginals N alone picks one of two simplex cores:

- N = 2 (`_Tree`, `_tree_loop`): a basis is a spanning tree of the
  bipartite atom graph, so the network simplex keeps no basis inverse.  The
  potentials come from one traversal, and a pivot recomputes them only on
  the subtree it cuts off; an entering cell's direction is the tree cycle
  it closes, with coefficients +-1; basic masses come from leaf elimination,
  so the plan's bytes depend on the basis alone.  The leaving arc follows
  the strongly feasible tree rule (Cunningham 1976), which cannot cycle.
  Two-marginal problems are most of the work: every pair reduction (0, j)
  that the paper's reconstruction rests on is one.
- N >= 3 (`_pivot_loop`): the bases are no trees, so a revised simplex keeps
  B^-1 by rank-one updates, refactorised at a fixed interval and before
  optimality is declared.  After a run of degenerate pivots it leaves by
  the lexicographic ratio test until a pivot makes progress, so it cannot
  cycle.  A pivot makes a fixed handful of numpy calls (two products with
  B^-1, the pricing broadcast, the entering column, the rank-one update)
  and runs its ratio test over Python floats, because a basis has only
  sum(n_k) - N + 1 rows.

The face LP that makes the potentials strictly complementary runs on the
same core, warm-started from the optimal basis.  It also decides
uniqueness: it either proves the vertex the only optimal plan or returns a
second optimal vertex, which `uniqueness_certificate` turns into a witness
without an LP of its own.
Maximization instances are negated internally and the sense is restored in
all reported quantities.  Everything is deterministic.

The vertex oracle (`enumerate_vertices`, `oracle_enumerate`) pivots through
the lexicographically feasible bases of a polytope, one leaving row per
entering column, and so reaches every vertex without visiting every basis
of a degenerate one.  A transport polytope, given by its marginals' weight
vectors, keeps its columns in `_TransportColumns` and starts from the
least-cost basis, with no phase 1.

The dense model (`PolytopeModel`, `standard_model`, `solve_model`) keeps
an explicit matrix of marginal-type constraints and starts from a phase 1
over artificial columns (`_feasible_basis`).  No command builds one: it is
the tests' reference for the transport columns, the pivot loop and the
vertex oracle.  Its three names stay in this module because the benchmark's
layer tracer (`perfbench/layertrace.py`) binds them.
"""

from __future__ import annotations

import math
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

GRID_CAP = 200_000
MAX_BASES = 200_000     # lexicographically feasible bases the oracle visits
ORACLE_GRID_CAP = 81
ORACLE_ATOM_CAP = 12


class PolytopeModel:
    """Dense equality-form LP data A x = b, x >= 0 over a flattened grid.

    `constraints` are (axes, target) pairs, each pinning the plan's
    restriction to `axes` to the array `target`, as `check_marginals` takes
    them.  Rows are grouped by constraint; linearly dependent rows are
    dropped greedily in row order (`_spanning_rows`), so the kept system has
    full row rank.  For the standard chain of single-axis marginals that
    drops the last row of every marginal after the first (their block sums
    all equal the total mass).  The library builds none: `solve` and the
    vertex oracle keep transport columns implicit (`_TransportColumns`).
    """

    def __init__(self, arities, constraints):
        self.arities = tuple(int(n) for n in arities)
        self.n_cols = int(np.prod(self.arities))
        if self.n_cols > 20_000:
            raise InstanceTooLarge(
                "general constraint systems are limited to 20000 grid cells"
            )
        self.constraints = [(tuple(int(a) for a in axes), np.asarray(target, float))
                            for axes, target in constraints]
        grid = np.indices(self.arities).reshape(len(self.arities), -1)
        rows, rhs, meta = [], [], []
        for ci, (axes, target) in enumerate(self.constraints):
            shape = tuple(self.arities[a] for a in axes)
            if target.shape != shape:
                raise InvariantViolation(
                    f"constraint on axes {axes}: target shape {target.shape}, "
                    f"expected {shape}"
                )
            pos = np.ravel_multi_index([grid[a] for a in axes], shape)
            block = np.zeros((int(np.prod(shape)), self.n_cols))
            block[pos, np.arange(self.n_cols)] = 1.0
            rows.append(block)
            rhs.append(target.reshape(-1))
            meta.extend((ci, p) for p in range(block.shape[0]))
        self.A_full = np.vstack(rows) if rows else np.zeros((0, self.n_cols))
        self.b_full = np.concatenate(rhs) if rhs else np.zeros(0)
        self.row_meta = meta
        self.kept = _spanning_rows(self.A_full)
        self.A = self.A_full[self.kept]
        self.b = self.b_full[self.kept]


def check_marginals(plan: Coupling, targets):
    """Raise MarginalMismatch if, for some (axes, target) pair of `targets`,
    the plan's restriction to the axes is off the target by more than 1e-8."""
    for axes, target in targets:
        dev = float(np.abs(plan.marginal_on(axes) - target).max())
        if dev > 1e-8:
            raise MarginalMismatch(axes, dev)


def _spanning_rows(A) -> list[int]:
    """Greedy Gram-Schmidt: the rows of A not in the span of earlier kept rows."""
    keep, basis = [], []
    for r in range(A.shape[0]):
        v = A[r].astype(float)
        for u in basis:
            v = v - (u @ A[r]) * u
        norm = np.linalg.norm(v)
        if norm > 1e-9 * (1.0 + np.linalg.norm(A[r])):
            basis.append(v / norm)
            keep.append(r)
    return keep


def standard_model(measures: list[DiscreteMeasure]) -> PolytopeModel:
    """Dense model of the standard problem, the tests' reference for
    `_TransportColumns`."""
    arities = tuple(m.size for m in measures)
    return PolytopeModel(arities, [((k,), m.weights) for k, m in enumerate(measures)])


# ---------------------------------------------------------------------------
# constraint columns
# ---------------------------------------------------------------------------
# The simplex sees the columns of A through four operations: `price(y)` is
# y @ A, `column(j)` is A[:, j], `matrix(ids)` puts the columns `ids` side
# by side, and `product(M, ids)` is M @ matrix(ids).

class _DenseColumns:
    """Columns of an explicit constraint matrix."""

    def __init__(self, A):
        self.A = A
        self.n = A.shape[1]

    def price(self, y):
        return y @ self.A

    def column(self, j):
        return self.A[:, j]

    def matrix(self, ids):
        return self.A[:, ids]

    def product(self, M, ids):
        return M @ self.A[:, ids]


class _TransportColumns:
    """Columns of the transport polytope of N weight vectors, kept implicit.

    Cell (i_1, ..., i_N) has a 1 in row block k at atom i_k.  The rows are
    those `standard_model` keeps: every atom of the first marginal and all
    but the last atom of each later one.  `rows[k][i]` is the row of atom i
    of axis k, or m for a dropped row; a row vector y read through `rows`
    with a zero appended gives one vector per axis (`split`), and pricing is
    their broadcast sum.  The weights need not sum to 1: a fiber of a plan
    carries the mass of its atom.
    """

    def __init__(self, weights: list[np.ndarray]):
        self.arities = tuple(len(w) for w in weights)
        self.n = math.prod(self.arities)
        self.m = sum(self.arities) - len(self.arities) + 1
        self.rows, start = [], 0
        for k, size in enumerate(self.arities):
            kept = size if k == 0 else size - 1
            rows = np.full(size, self.m)
            rows[:kept] = np.arange(start, start + kept)
            self.rows.append(rows)
            start += kept
        b = np.zeros(self.m + 1)
        for r, w in zip(self.rows, weights):
            b[r] = w
        self.b = b[:self.m]
        self._padded = np.zeros(self.m + 1)     # y, then 0 for the dropped rows

    def split(self, y):
        """Per-axis vectors of the row vector y, zero at the dropped rows."""
        self._padded[:self.m] = y
        return [self._padded.take(r) for r in self.rows]

    def price(self, y):
        padded = self._padded
        padded[:self.m] = y
        total = padded.take(self.rows[0])
        for r in self.rows[1:]:
            total = np.add.outer(total, padded.take(r))
        return total.reshape(-1)

    def column(self, j):
        out = np.zeros(self.m + 1)
        for r, size in zip(reversed(self.rows), reversed(self.arities)):
            j, i = divmod(j, size)
            out[r[i]] = 1.0
        return out[:self.m]

    def matrix(self, ids):
        out = np.zeros((self.m + 1, len(ids)))
        pos = np.arange(len(ids))
        for r, i in zip(self.rows, np.unravel_index(np.asarray(ids, dtype=int),
                                                     self.arities)):
            out[r[i], pos] = 1.0
        return out[:self.m]

    def product(self, M, ids):
        padded = np.hstack([M, np.zeros((len(M), 1))])
        at = np.unravel_index(np.asarray(ids, dtype=int), self.arities)
        return sum(padded[:, r[i]] for r, i in zip(self.rows, at))


# ---------------------------------------------------------------------------
# revised simplex
# ---------------------------------------------------------------------------

_MAX_PIVOTS = 200_000
_STALL_PIVOTS = 40       # degenerate pivots in a row before the lexicographic rule
_REFACTOR_EVERY = 50     # rank-one updates between fresh basis factorisations
_FACE_MASS_TOL = 1e-9    # off-support mass below which a face LP optimum is zero
_SMALL_PIVOT = 1e-3      # pivots this small relative to their column get a fresh B^{-1}
_TINY_PIVOT = 1e-7       # and this small even then are refused, as near-singular
_LEX_TOL = 1e-9          # perturbation ratios this close tie in the lexicographic test


@dataclass
class _SimplexState:
    basis: list[int]          # column ids
    iterations: int = 0       # pivots taken
    inverse: np.ndarray | None = None   # B^{-1}, kept by rank-one updates
    updates: int = 0          # rank-one updates since the last factorisation


def _refactor(cols, state):
    try:
        state.inverse = np.linalg.inv(cols.matrix(state.basis))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular basis: {exc}") from exc
    state.updates = 0


def _exchange(state, p, entering, d):
    """Put `entering` (whose column is B d) at basis position p."""
    inv = state.inverse
    row = inv[p] / d[p]
    inv -= np.multiply.outer(d, row)
    inv[p] = row
    state.basis[p] = entering
    state.updates += 1


def _pivot_loop(cols, b, costs, state, allow_enter):
    """Pivot until no allowed column prices out (min sense); return (xB, y).

    Dantzig pricing enters the most negative reduced cost and leaves on the
    largest pivot among ratio ties.  After _STALL_PIVOTS degenerate pivots in
    a row, the current basis becomes the anchor of a lexicographic leaving
    rule (`_lex_leaving`) until a pivot makes progress: every basis is then
    lexicographically feasible for the anchor's perturbation, on which each
    pivot makes progress, so the loop cannot cycle.  Optimality is only
    declared, and small pivots only taken, on a freshly factorised basis; a
    column whose pivot is tiny even then would make the basis near-singular,
    and is passed over until the next pivot.  `c_open` is the cost with inf
    on the columns that may not enter: basic, not allowed, or passed over.

    A pass makes a fixed handful of numpy calls: x_B = B^-1 b and
    y = c_B B^-1 (c_B is kept beside the basis), the reduced costs
    `c_open` - y A into one reused array, the entering direction
    d = B^-1 a_q, and the rank-one update of B^-1 in place.  The ratio test,
    the leaving row and the pivot size tests take one Python pass over the
    m values of x_B and d: bases have only sum(n_k) - N + 1 rows, where a
    numpy call costs more than its arithmetic.
    """
    c_B = costs[state.basis]
    c_open = np.where(allow_enter, costs, np.inf)
    c_open[state.basis] = np.inf
    reduced = np.empty(cols.n)
    rejected = []
    stalled = 0
    anchor = None                          # basis B0 of the lexicographic rule
    while True:
        if state.inverse is None or state.updates >= _REFACTOR_EVERY:
            _refactor(cols, state)
        inv = state.inverse
        xB = inv @ b
        y = c_B @ inv
        np.subtract(c_open, cols.price(y), out=reduced)
        entering = int(reduced.argmin())
        if not reduced.item(entering) < -REDUCED_COST_TOL:
            if state.updates == 0:
                return xB, y
            state.inverse = None           # price again on a fresh factorisation
            continue
        if stalled >= _STALL_PIVOTS and anchor is None:
            anchor = list(state.basis)
        d = inv @ cols.column(entering)
        ds, xs = d.tolist(), xB.tolist()
        ratios, rmin = [], math.inf
        for i, di in enumerate(ds):
            if di > RATIO_TOL:
                r = max(xs[i], 0.0) / di
                ratios.append((i, r))
                if r < rmin:
                    rmin = r
        if not ratios:
            raise SolverError("unbounded direction on a mass polytope")
        bound = rmin + 1e-10 * (1.0 + rmin)
        tied = [i for i, r in ratios if r <= bound]
        if anchor is not None and len(tied) > 1:
            leaving = tied[_lex_leaving(np.ones((len(tied), 1), dtype=bool),
                                        d[tied, None],
                                        cols.product(inv[tied], anchor))[0]]
        else:
            leaving = max(tied, key=ds.__getitem__)    # the first largest pivot
        pivot, dmax = ds[leaving], max(max(ds), -min(ds))
        if state.updates and pivot < _SMALL_PIVOT * dmax:
            state.inverse = None           # may be update noise: recompute it
            continue
        if pivot < _TINY_PIVOT * dmax:
            c_open[entering] = np.inf
            rejected.append(entering)
            continue
        if rejected:
            c_open[rejected] = costs[rejected]
            rejected.clear()
        state.iterations += 1
        if state.iterations > _MAX_PIVOTS:
            raise SolverError("simplex iteration cap exceeded")
        stalled = stalled + 1 if rmin <= RATIO_TOL else 0
        if not stalled:
            anchor = None
        out = state.basis[leaving]
        if allow_enter[out]:
            c_open[out] = costs[out]
        c_open[entering] = np.inf
        c_B[leaving] = costs[entering]
        _exchange(state, leaving, entering, d)


def _basic_solution(xB, state, n):
    if (xB < -1e-9).any():
        raise SolverError("basic solution drifted negative")
    x = np.zeros(n)
    # where, not maximum: like Python's max(v, 0.0) it keeps -0.0
    x[state.basis] = np.where(0.0 > xB, 0.0, xB)
    return x


def _feasible_basis(A, b):
    """Phase 1 on the columns [A | I] from the basis of the artificial unit
    columns (ids n and up), which may not enter; then pivot them out."""
    m, n = A.shape
    state = _SimplexState(basis=list(range(n, n + m)), inverse=np.eye(m))
    phase1 = np.concatenate([np.zeros(n), np.ones(m)])
    xB, _ = _pivot_loop(_DenseColumns(np.hstack([A, np.eye(m)])), b, phase1, state,
                        np.arange(n + m) < n)
    infeas = sum(xB[p] for p in range(m) if state.basis[p] >= n)
    if infeas > 1e-9:
        raise SolverError(f"phase-1 infeasibility {infeas:.3e}")
    in_basis = np.zeros(n, dtype=bool)
    in_basis[[col for col in state.basis if col < n]] = True
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


# ---------------------------------------------------------------------------
# network simplex (two marginals)
# ---------------------------------------------------------------------------

class _Tree:
    """Spanning-tree basis of a two-marginal transport problem.

    Node i < n0 is atom i of axis 0 and node n0 + k atom k of axis 1; cell
    (i, k) is the arc i -> n0 + k, carrying mass from axis 0 to axis 1.  The
    tree hangs from the root n0 + n1 - 1, the atom whose row
    `_TransportColumns` drops.  Each other node v keeps its parent, the cell
    of the arc to it, that arc's flow and v's depth; `kids` are the
    children.  Positions of `basis` are nodes, so the basis is a function of
    the cells alone.

    The tree is strongly feasible (Cunningham 1976): from every node some
    positive flow can reach the root along the tree.  Arcs from a child on
    axis 0 point to the root, so this asks a positive flow on the parent arc
    of every non-root atom of axis 1, except the void ones, which are kept
    as leaves with no flow instead.  The start (least-cost) tree is
    repaired to that form.  An axis-1 atom whose parent arc is empty is
    re-hung from a child with positive flow, whose arc goes to the cheapest
    axis-1 ancestor (the cut subtree has no net mass, so no flow moves).
    An atom with no such child is void: weight 0, or a weight of a few ulps
    that the rounding of the other axis's weights leaves unserved
    (`DiscreteMeasure` admits sums off by STORAGE_TOL).  Its children hang
    from its cheapest axis-1 ancestor.
    """

    def __init__(self, cols, cells, masses, c):
        n0, n1 = cols.arities
        self.n0 = n0
        nodes = n0 + n1
        self.root = root = nodes - 1
        self.iterations = 0
        self.parent = parent = [-1] * nodes
        self.cell = cell = [-1] * nodes
        self.flow = flow = [0.0] * nodes
        self.depth = [0] * nodes
        self.kids = kids = [set() for _ in range(nodes)]
        arcs = [[] for _ in range(nodes)]
        for j, mass in zip(cells, masses):
            i, k = divmod(j, n1)
            arcs[i].append((n0 + k, j, mass))
            arcs[n0 + k].append((i, j, mass))
        order = [root]
        for v in order:
            for w, j, mass in arcs[v]:
                if w != parent[v]:
                    parent[w], cell[w], flow[w] = v, j, mass
                    kids[v].add(w)
                    order.append(w)
        c = c.reshape(n0, n1)

        def rehang(i, v):
            # hang axis-0 node i, now a child of v, from v's cheapest axis-1
            # ancestor with i's arc flow unchanged
            ups = []
            w = parent[v]
            while w >= 0:
                if w >= n0:
                    ups.append(w)
                w = parent[w]
            k = min(ups, key=lambda w: c[i, w - n0])
            kids[parent[i]].discard(i)
            kids[k].add(i)
            parent[i], cell[i] = k, i * n1 + k - n0

        for v in order[1:]:
            if v < n0 or flow[v] > 0.0:
                continue
            i = max(kids[v], key=flow.__getitem__, default=-1)
            if i < 0 or flow[i] == 0.0:
                for i in list(kids[v]):          # v becomes a void leaf
                    rehang(i, v)
                continue
            up, j, f = parent[v], cell[i], flow[i]
            rehang(i, v)
            flow[i] = 0.0
            kids[up].discard(v)
            kids[i].add(v)
            parent[v], cell[v], flow[v] = i, j, f

    @property
    def basis(self):
        return self.cell[:self.root]

    def masses(self, b):
        """Basic flows by leaf elimination, in `basis` order.

        An arc carries the net mass of the subtree below it, summed from the
        deepest level up, each level in increasing node order: the result
        depends on the cells alone, whatever the pivots that led to them.
        """
        n0, root, parent, kids = self.n0, self.root, self.parent, self.kids
        excess = b.tolist() + [0.0]           # net mass each node sends up
        excess[n0:] = [-w for w in excess[n0:]]
        level, levels = [root], []
        while level:
            level = [w for v in level for w in kids[v]]
            levels.append(level)
        for level in reversed(levels):
            for v in sorted(level):
                excess[parent[v]] += excess[v]
        excess[n0:] = [-e for e in excess[n0:]]
        return np.array(excess[:root])


def _tree_loop(cols, b, costs, tree, allow_enter):
    """Network simplex on a `_Tree` (min sense); returns (xB, y) as `_pivot_loop`.

    The potentials come from one traversal from the root (potential 0):
    u_i + v_k = c_ik on every tree arc.  y lists them in the row layout of
    `_TransportColumns`, the root's being the dropped row.  Pricing is the
    whole-grid Dantzig broadcast c - u_i - v_k over the allowed cells.  The
    entering cell (p, q) closes a cycle with the tree paths from p and q up
    to their apex; oriented along the entering arc, the arcs it crosses
    against their direction are those at axis-1 nodes on q's side and at
    axis-0 nodes on p's side, and the least flow theta among them moves
    around the cycle.  The leaving arc is the last of them with flow theta
    met from the apex along the orientation: on q's side the one nearest
    the apex, else on p's side the one nearest p.  The subtree it cuts off
    hangs from the entering arc again, and only its depths and potentials
    are recomputed.  Flows are updated by +-theta, so a zero flow is exact;
    the returned xB is recomputed by `_Tree.masses`.

    Termination, in exact arithmetic.  The rule keeps the tree strongly
    feasible (Cunningham 1976; Ahuja, Magnanti & Orlin, *Network Flows*,
    1993, section 11.5), so every arc that could block on q's side carries
    flow, unless q is a void leaf.  A pivot with theta > 0 lowers the cost
    by theta times the reduced cost's magnitude.  A degenerate pivot at a q
    that is not void therefore cuts a subtree off on p's side; hung from the
    entering arc, all its u_i and -v_k fall by that magnitude, so
    sum(u) - sum(v) falls and the cost stays.  Void leaves carry no flow
    and lie on no cycle but their own, so the cost and that sum over the
    other nodes depend only on the tree without its void leaves, which a
    pivot entering at a void leaf leaves as it is: such a pivot re-hangs q
    alone and lowers v_q with every other potential fixed, so it cannot
    recur before the rest of the tree changes.  Hence no tree recurs, and
    there are finitely many.  No B^-1, stall counter or pivot size test is
    needed: a cycle's coefficients are +-1.
    """
    n0, n1 = cols.arities
    root = tree.root
    parent, cell, flow, depth, kids = (tree.parent, tree.cell, tree.flow,
                                       tree.depth, tree.kids)
    cl = costs.tolist()
    pot = [0.0] * (root + 1)

    def hang(s):
        # depths and potentials below s, from s's own
        stack = [s]
        while stack:
            v = stack.pop()
            d, pv = depth[v] + 1, pot[v]
            for w in kids[v]:
                depth[w] = d
                pot[w] = cl[cell[w]] - pv
            stack.extend(kids[v])

    hang(root)
    c_open = np.where(allow_enter, costs[:cols.n], np.inf).reshape(n0, n1)
    reduced = np.empty((n0, n1))
    while True:
        y = np.array(pot)
        np.subtract(c_open, y[:n0, None], out=reduced)
        reduced -= y[n0:]
        entering = int(reduced.argmin())
        if not reduced.item(entering) < -REDUCED_COST_TOL:
            return tree.masses(b), y[:root]
        tree.iterations += 1
        if tree.iterations > _MAX_PIVOTS:
            raise SolverError("simplex iteration cap exceeded")
        p, q = divmod(entering, n1)
        q += n0
        pside, qside = [], []            # nodes whose parent arc is on the cycle
        tp = tq = math.inf               # least blocking flow on each side
        a, z = p, q
        while a != z:
            if depth[a] >= depth[z]:
                if a < n0 and flow[a] < tp:
                    tp, at = flow[a], len(pside)
                pside.append(a)
                a = parent[a]
            else:
                if z >= n0 and flow[z] <= tq:
                    tq, atq = flow[z], len(qside)
                qside.append(z)
                z = parent[z]
        if tq <= tp:
            theta, s, t, path = tq, q, p, qside[:atq + 1]
        else:
            theta, s, t, path = tp, p, q, pside[:at + 1]
        if theta > 0.0:
            for v in pside:
                flow[v] += theta if v >= n0 else -theta
            for v in qside:
                flow[v] += theta if v < n0 else -theta
        up, j, f = t, entering, theta
        for v in path:                   # s up to the leaving arc, reversed
            kids[parent[v]].discard(v)
            kids[up].add(v)
            parent[v], up = up, v
            cell[v], j = j, cell[v]
            flow[v], f = f, flow[v]
        depth[s], pot[s] = depth[t] + 1, cl[entering] - pot[t]
        hang(s)


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
        return _dual_violation(cost_grid - self.sum_grid(cost_grid.shape), self.sense)


def _dual_violation(slack, sense):
    """Worst violation of the dual inequality, given c - sum_k phi_k."""
    if sense == "min":
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


def minimizing_set(instance: DiscreteInstance, potentials: Potentials) -> MinimizingSet:
    slack = np.abs(instance.cost_grid() - potentials.sum_grid(instance.arities))
    idx = frozenset(
        tuple(int(i) for i in t) for t in np.argwhere(slack <= ACTIVE_TOL)
    )
    return MinimizingSet(idx)


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


def _coupling_from_x(x: np.ndarray, arities: tuple[int, ...]) -> Coupling:
    """Prune simplex dust and renormalize the sub-1e-9 total-mass drift."""
    total = float(x.sum())
    if abs(total - 1.0) > 1e-9:
        raise SolverError(f"solution mass {total!r} is not a probability")
    cols = np.flatnonzero(x > MASS_FLOOR)
    idx = zip(*(i.tolist() for i in np.unravel_index(cols, arities)))
    return Coupling(arities, dict(zip(idx, (x[cols] / total).tolist())))


def _least_cost_basis(weights: list[np.ndarray],
                      c: np.ndarray) -> tuple[list[int], list[float]]:
    """Least-cost start basis of the transport polytope of `weights`, flat cost c.

    Take the cheapest cell among live atoms (lowest index on ties), place
    as much mass as every one of its atoms has left, and retire exactly one
    of them: the one with least mass left, among axes that still have more
    than one live atom (lowest axis on ties).  That gives sum(n_k) - N + 1
    cells.  The atom a cell retires is in no later cell, so on the rows of
    the retired atoms the columns are triangular, hence independent; the
    dropped rows of `standard_model` are sums of kept ones, so the cells
    are a basis, and the placed masses make it feasible.  Returns the cells
    and the masses placed on them.
    """
    arities = tuple(len(w) for w in weights)
    left = [w.tolist() for w in weights]
    live = list(arities)
    free = c.reshape(arities).copy()
    cells, masses = [], []
    while True:
        cell = int(free.argmin())
        cells.append(cell)
        at, rest = [], cell
        for size in reversed(arities):
            rest, i = divmod(rest, size)
            at.append(i)
        at.reverse()
        mass = min(w[i] for w, i in zip(left, at))
        masses.append(mass)
        for w, i in zip(left, at):
            w[i] -= mass
        movable = [k for k in range(len(arities)) if live[k] > 1]
        if not movable:
            return cells, masses
        k = min(movable, key=lambda k: left[k][at[k]])
        live[k] -= 1
        free[(slice(None),) * k + (at[k],)] = np.inf


def _strictly_complementary(cols, b, c, x, y, state, loop):
    """Move optimal duals y onto the relative interior of the dual face.

    Returns them with the first positive face-LP solution, or None.  Cells
    priced within ACTIVE_TOL may carry optimal mass.  A face LP over them,
    warm-started from the optimal basis `state` and pivoted by `loop`
    (`_pivot_loop` or `_tree_loop`), maximizes the mass off the cells
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
    reduced = c - cols.price(y)
    active = reduced <= ACTIVE_TOL
    second = None
    while True:
        off = active & ~known
        if not off.any():
            return y, second
        face = -off.astype(float)
        xB, psi = loop(cols, b, face, state, active)
        xf = _basic_solution(xB, state, cols.n)
        if xf[off].sum() > _FACE_MASS_TOL:
            if second is None:
                second = xf
            known |= off & (xf > MASS_FLOOR)
            continue
        a = cols.price(psi)
        freed = float(-a[off].max())
        blocking = ~active & (a > 0)
        eps = 1.0 / freed
        if blocking.any():
            eps = min(eps, float((reduced[blocking] / (freed + a[blocking])).min()))
        return y + eps * psi, second


def solve(instance: DiscreteInstance) -> SolveResult:
    """Solve the transport LP exactly.

    Returns a basic optimal plan (a polytope vertex), canonical-gauge dual
    potentials, and the optimal value; strong duality and complementary
    slackness residuals are carried along for auditing.  The simplex runs
    on the cost shifted to minimum 0 and divided by its span (a span that
    overflows raises NonFiniteCost): the network simplex for two marginals,
    the dense revised simplex for more.  The potentials are strictly
    complementary: their active set (within ACTIVE_TOL times the span) is
    the union of all optimal supports.
    """
    n_cells = instance.grid_size()
    if n_cells > GRID_CAP:
        raise InstanceTooLarge(f"grid has {n_cells} cells, cap is {GRID_CAP}")
    grid = instance.cost_grid()
    if not np.isfinite(grid).all():
        raise NonFiniteCost("cost grid contains non-finite values")
    weights = [m.weights for m in instance.measures]
    cols = _TransportColumns(weights)
    sign = -1.0 if instance.sense == "max" else 1.0
    c = sign * grid.reshape(-1)
    shift = float(c.min())
    span = float(c.max()) - shift             # Python floats: overflow is inf, silently
    if span == math.inf:
        raise NonFiniteCost("cost span overflows the float range")
    span = span or 1.0
    c = (c - shift) / span
    cells, masses = _least_cost_basis(weights, c)
    if instance.n_axes == 2:
        loop, state = _tree_loop, _Tree(cols, cells, masses, c)
    else:
        loop, state = _pivot_loop, _SimplexState(basis=cells)
    xB, y = loop(cols, cols.b, c, state, np.ones(cols.n, dtype=bool))
    x = _basic_solution(xB, state, cols.n)
    y, second = _strictly_complementary(cols, cols.b, c, x, y, state, loop)

    x_grid = x.reshape(instance.arities)
    residual = max(
        np.abs(x_grid.sum(axis=tuple(a for a in range(instance.n_axes) if a != k))
               - meas.weights).max()
        for k, meas in enumerate(instance.measures)
    )
    if residual > 1e-8:
        raise SolverError(f"optimal basis violates marginals by {residual:.3e}")

    plan = _coupling_from_x(x, instance.arities)

    vectors = cols.split(sign * span * y)
    vectors[0] += sign * shift
    vectors = _canonical_gauge(vectors, instance.measures)
    potentials = Potentials(vectors, instance.sense)
    slack = grid - potentials.sum_grid(instance.arities)
    violation = _dual_violation(slack, instance.sense)
    if not violation <= cost_scaled(DUAL_FEAS_TOL, grid):      # NaN fails too
        raise SolverError(f"potentials violate dual feasibility by {violation:.3e}")

    value = sign * (shift + span * float(c @ x))
    gap = abs(value - potentials.dual_value(instance.measures))
    at = tuple(np.array(list(plan.entries)).T)
    # summed in entry order over numpy scalars, as a loop over the entries would
    slack_res = float(sum(np.abs(slack[at]) * list(plan.entries.values())))
    return SolveResult(plan, potentials, value, state.iterations, gap, slack_res,
                       second)


def solve_model(model: PolytopeModel, cost_vector: np.ndarray,
                sense: str = "min") -> tuple[np.ndarray, float, int]:
    """Optimize an arbitrary linear functional over a constraint polytope.

    Rows with a negative right-hand side are negated, phase 1 finds a
    feasible basis from artificials, and phase 2 optimizes on it.  Returns
    the basic solution, its value and the pivots of both phases.
    """
    cost = np.asarray(cost_vector, float)
    A, b = model.A.copy(), model.b.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    state = _feasible_basis(A, b)
    n = A.shape[1]
    sign = -1.0 if sense == "max" else 1.0
    xB, _ = _pivot_loop(_DenseColumns(A), b, sign * cost, state, np.ones(n, dtype=bool))
    x = _basic_solution(xB, state, n)
    return x, float(cost @ x), state.iterations


# ---------------------------------------------------------------------------
# vertex test
# ---------------------------------------------------------------------------

def is_vertex(plan: Coupling, measures: list[DiscreteMeasure]) -> bool:
    """True iff the transport columns active on the support are independent.

    `measures` are the marginals of the standard problem; the plan must
    match them.
    """
    check_marginals(plan, [((k,), m.weights) for k, m in enumerate(measures)])
    columns = _TransportColumns([m.weights for m in measures])
    support = plan.support()
    if not support:
        return True
    cols = [int(np.ravel_multi_index(idx, plan.arities)) for idx in support]
    rank = np.linalg.matrix_rank(columns.matrix(cols), tol=VERTEX_PIVOT_TOL)
    return int(rank) == len(cols)


# ---------------------------------------------------------------------------
# exhaustive vertex enumeration (the ground-truth oracle)
# ---------------------------------------------------------------------------

def _vertex_key(x):
    cols = np.nonzero(x > 1e-10)[0]
    return tuple(zip(cols.tolist(), [round(v, 11) for v in x[cols].tolist()]))


def _lex_leaving(tied, D, W):
    """Leaving row of each column of D under the lexicographic ratio test.

    `tied` marks, per column d of D, the rows whose ratio x_B / d ties the
    minimum.  Ties are broken on W[:, 0] / d, then W[:, 1] / d, and so on,
    where W = B^-1 B0 for an anchor basis B0: this is the ratio test of the
    right-hand side b + B0 (eps, eps^2, ...), and as W is nonsingular it
    leaves one row.  W may hold just the rows of D, in the same order.  Some
    column must have more than one tied row.

    The tied rows of all open columns are packed side by side (NaN pads a
    column's missing rows); each round drops, in every column still open,
    the rows above the least ratio at the first j where its rows differ.
    """
    leaving = np.argmax(tied, axis=0)
    counts = tied.sum(axis=0)
    cols = np.flatnonzero(counts > 1)
    sub = tied[:, cols].T
    g, p = np.nonzero(sub)
    r = (np.cumsum(sub, axis=1) - 1)[g, p]          # place among its column's ties
    ratios = np.full((cols.size, counts[cols].max(), W.shape[1]), np.nan)
    ratios[g, r] = W[p] / D[p, cols[g]][:, None]
    while True:
        low = np.fmin.reduce(ratios, axis=1)
        tol = _LEX_TOL * (1.0 + np.abs(low))
        differs = np.fmax.reduce(ratios, axis=1) - low > tol
        split = np.flatnonzero(differs.any(axis=1))
        if not split.size:
            break
        j = np.argmax(differs[split], axis=1)
        gs, rs = np.nonzero(ratios[split, :, j] > (low + tol)[split, j][:, None])
        ratios[split[gs], rs] = np.nan
    first = np.argmax(~np.isnan(ratios[:, :, 0]), axis=1)
    leaving[cols] = p[r == first[g]]
    return leaving


def enumerate_vertices(weights: list[np.ndarray]) -> list[np.ndarray]:
    """All vertices of the transport polytope of the marginal `weights`.

    The weight vectors need not sum to 1.  Atoms of weight 0, whose cells
    are forced to 0, are dropped; the search starts from the least-cost
    basis of the zero cost over `_TransportColumns` on the rest: any
    feasible basis will do, with no phase 1.  The vertices are vectors over
    the whole grid.

    The search visits only lexicographically feasible bases: those of the
    perturbed right-hand side b + B0 (eps, eps^2, ...), where B0 is the
    start basis, lexicographically feasible itself because B0^-1 of that
    vector is its basic solution plus the rows of the identity.  The perturbed
    polytope is simple, so each entering column has exactly one leaving
    row (`_lex_leaving`), its bases form a connected graph, and every
    vertex of the polytope is the limit of one of its vertices (the
    perturbation argument of Avis-Fukuda reverse search).  So a degenerate
    vertex is reached through some of its bases, not all of them.  The
    ratio tests of all entering columns of a basis run as one array pass.
    Bases are kept as bitmasks of their columns; more than MAX_BASES
    lexicographically feasible bases raise InstanceTooLarge.  Vertices come
    out sorted by `_vertex_key`, each solved on the first basis that
    reaches it, columns in ascending order.
    """
    live = [np.flatnonzero(w > 0.0) for w in weights]
    kept = [w[i] for w, i in zip(weights, live)]
    cols = _TransportColumns(kept)
    n = cols.n
    A, b = cols.matrix(np.arange(n)), cols.b
    start = _least_cost_basis(kept, np.zeros(n))[0]
    arities = tuple(len(w) for w in weights)
    keep_cols = np.ravel_multi_index(np.ix_(*live), arities).reshape(-1)
    n_cols = math.prod(arities)
    bits = [1 << col for col in range(n)]
    seen_bases = {sum(bits[col] for col in start)}
    queue = list(seen_bases)
    vertices: dict[tuple, np.ndarray] = {}
    while queue:
        if len(seen_bases) > MAX_BASES:
            raise InstanceTooLarge(
                f"basis graph exceeded {MAX_BASES} bases during enumeration"
            )
        key = queue.pop()
        basis = [col for col in range(n) if key & bits[col]]
        B = A[:, basis]
        xB = np.linalg.solve(B, b)
        xB = np.where(0.0 > xB, 0.0, xB)          # Python's max(xB, 0.0): keeps -0.0
        x = np.zeros(n_cols)
        x[keep_cols[basis]] = xB
        vertices.setdefault(_vertex_key(x), x)
        directions = np.linalg.solve(B, A)
        top = directions.max(axis=0)
        top[basis] = 0.0                          # basic columns do not enter
        entering = np.flatnonzero(top > RATIO_TOL)
        D = directions[:, entering]
        pos = D > RATIO_TOL
        ratios = np.divide(xB[:, None], D, out=np.full(D.shape, np.inf), where=pos)
        rmin = ratios.min(axis=0)
        tied = ratios <= rmin + 1e-10 * (1.0 + rmin)
        if tied.sum(axis=0).max(initial=0) > 1:
            leaving = _lex_leaving(tied, D, directions[:, start])
        else:
            leaving = np.argmax(tied, axis=0)
        fresh = [key ^ bits[basis[p]] | bits[e]
                 for e, p in zip(entering.tolist(), leaving.tolist())]
        fresh = [nb for nb in fresh if nb not in seen_bases]
        seen_bases.update(fresh)
        queue.extend(fresh)
    return [vertices[k] for k in sorted(vertices)]


def oracle_enumerate(instance: DiscreteInstance) -> list[tuple[Coupling, float]]:
    """Exhaustively enumerate polytope vertices of a small instance.

    Hard caps keep this honest: at most 81 grid cells and 12 atoms in total.
    MAX_BASES bounds the lexicographically feasible bases the search
    discovers (`enumerate_vertices`); past it InstanceTooLarge is raised.
    A vertex with generic weights has one such basis, so an instance with
    more than MAX_BASES vertices raises: random-weight 6x6 tensor,
    3x3x3x3 surplus and 4x4x4 tensor instances do, after a few seconds.
    Degenerate weights give fewer vertices; the 5x5 uniform-weight
    instance has 120 vertices and 15 000 such bases, and finishes.
    """
    arities = instance.arities
    if int(np.prod(arities)) > ORACLE_GRID_CAP or sum(arities) > ORACLE_ATOM_CAP:
        raise InstanceTooLarge(
            f"oracle caps are {ORACLE_GRID_CAP} cells / {ORACLE_ATOM_CAP} atoms, "
            f"got {arities}"
        )
    grid = instance.cost_grid().reshape(-1)
    return [
        (_coupling_from_x(x, arities), float(grid @ x))
        for x in enumerate_vertices([m.weights for m in instance.measures])
    ]


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
