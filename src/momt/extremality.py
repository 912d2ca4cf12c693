"""Support-structure certificates: cyclical monotonicity, fiber maps,
extremality of minimizing sets, and multi-map decompositions.

The set-valued fiber map F sends a first-block atom to the second-block atoms
it shares support with; f keeps the cost-argmax of each fiber (all ties
retained).  An ordered partition of the second block localizes the argmax to
the first partition block the fiber meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, permutations
from math import comb, factorial

import numpy as np

from .errors import InstanceTooLarge, InvariantViolation, SingularMatrix, ZeroXi
from .measure import Coupling
from .tolerances import MASS_FLOOR, STORAGE_TOL


# ---------------------------------------------------------------------------
# cyclical monotonicity
# ---------------------------------------------------------------------------

_GAIN_BLOCK = 4096               # cycle gains priced per numpy pass
_MAX_CYCLE_TUPLES = 2 ** 30      # cap on the exhaustive (subset, permutation tuple) count


@dataclass
class MonotonicityReport:
    passed: bool
    checked_exhaustive: int
    checked_sampled: int
    violation: tuple | None = None      # (points, permutation tuple, slack)


def exhaustive_cycle_count(n_points: int, n_axes: int, max_cycle: int) -> int:
    """Subsets of 2..max_cycle points times their non-identity permutation
    tuples: sum over M of C(n_points, M) * ((M!)^(n_axes - 1) - 1)."""
    return sum(comb(n_points, M) * (factorial(M) ** (n_axes - 1) - 1)
               for M in range(2, min(max_cycle, n_points) + 1))


def _gain_thresholds(cost_grid, tol):
    """Per cycle size M: `tol` times the cost's span plus the rounding floor
    of two M-term sums at the cost's magnitude."""
    span = float(np.ptp(cost_grid))
    peak = float(np.abs(cost_grid).max())
    return lambda M: tol * span + 2 * M * np.spacing(M * peak)


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


def _scan_cycles(support, cells, flat_cost, M, n_axes, sign, threshold):
    """Price every M-point subset against every permutation tuple, in blocks.

    Subsets come in `combinations` order; tuples index the permutations of
    axes 1..N-1 as digits of one number, axis 1 fastest, and tuple 0 (all
    identities) is skipped.  Sums run left to right as in `_cycle_gain`, so
    every gain is bit-identical to it.  Returns the count checked up to and
    including the first gain above `threshold`, and that violation or None.
    """
    perms = list(permutations(range(M)))
    perm_rows = np.array(perms, dtype=np.intp)
    n_tuples = len(perms) ** (n_axes - 1) - 1
    if n_tuples == 0:
        return 0, None
    per_pass = min(n_tuples, _GAIN_BLOCK)
    subsets = combinations(range(len(support)), M)
    checked = 0
    while True:
        chunk = np.array(list(islice(subsets, max(1, _GAIN_BLOCK // n_tuples))),
                         dtype=np.intp)
        if not len(chunk):
            return checked, None
        parts = cells[chunk]                     # (subsets, M, axes) flat offsets
        home = parts.sum(axis=2)
        base = np.zeros(len(chunk))
        for m in range(M):
            base += flat_cost[home[:, m]]
        for start in range(1, n_tuples + 1, per_pass):
            digits = np.arange(start, min(start + per_pass, n_tuples + 1))
            at = parts[:, None, :, 0]
            for axis in range(1, n_axes):
                at = at + parts[:, perm_rows[digits % len(perms)], axis]
                digits = digits // len(perms)
            permuted = np.zeros(at.shape[:2])
            for m in range(M):
                permuted += flat_cost[at[:, :, m]]
            gains = sign * (base[:, None] - permuted)
            hits = np.flatnonzero(gains > threshold)
            if hits.size:
                i, j = divmod(int(hits[0]), gains.shape[1])
                t = start + j
                tail = []
                for _ in range(1, n_axes):
                    t, digit = divmod(t, len(perms))
                    tail.append(perms[digit])
                points = tuple(support[p] for p in chunk[i])
                return (checked + i * n_tuples + start + j,
                        (points, (None, *tail), gains[i, j]))
        checked += len(chunk) * n_tuples


def check_cyclical_monotonicity(support, cost_grid: np.ndarray, sense: str = "min",
                                max_cycle: int = 3, samples: int = 50,
                                seed: int = 0, tol: float = 1e-9) -> MonotonicityReport:
    """Test all small support subsets against all per-axis permutation tuples.

    Axis 0 stays fixed (relabeling makes that lossless); axes 1..N-1 range
    over all permutations of the chosen points, so the exhaustive phase
    prices `exhaustive_cycle_count(len(support), N, max_cycle)` cycles, in
    fixed-size numpy blocks; above 2**30 it raises InstanceTooLarge rather
    than start.  Beyond max_cycle, `samples` random larger subsets are
    tried with random permutation tuples.  A cycle of M points violates
    monotonicity when its gain exceeds `tol` times the cost's span plus the
    rounding floor of two M-term sums at the cost's magnitude, so scaling
    or shifting the cost does not change the answer.  The violation
    reported is the first in enumeration order.
    """
    if max_cycle < 2:
        raise InvariantViolation("max_cycle must be at least 2")
    support = sorted(tuple(p) for p in support)
    n_axes = cost_grid.ndim
    sign = 1.0 if sense == "min" else -1.0
    total = exhaustive_cycle_count(len(support), n_axes, max_cycle)
    if total > _MAX_CYCLE_TUPLES:
        raise InstanceTooLarge(
            f"cycle enumeration would price {total} permutation tuples, "
            f"cap is {_MAX_CYCLE_TUPLES}; lower max_cycle"
        )
    flat_cost = np.ascontiguousarray(cost_grid, dtype=float).reshape(-1)
    strides = np.array([int(np.prod(cost_grid.shape[k + 1:])) for k in range(n_axes)],
                       dtype=np.intp)
    cells = np.array(support, dtype=np.intp).reshape(len(support), n_axes) * strides
    threshold = _gain_thresholds(cost_grid, tol)
    checked = 0
    for M in range(2, min(max_cycle, len(support)) + 1):
        count, violation = _scan_cycles(support, cells, flat_cost, M, n_axes, sign,
                                        threshold(M))
        checked += count
        if violation is not None:
            return MonotonicityReport(False, checked, 0, violation)

    rng = np.random.default_rng(seed)
    sampled = 0
    if len(support) > max_cycle:
        for _ in range(samples):
            M = int(rng.integers(max_cycle + 1, min(len(support), max_cycle + 3) + 1))
            pick = rng.choice(len(support), size=M, replace=False)
            points = tuple(support[i] for i in sorted(pick))
            perms = (None,) + tuple(
                tuple(rng.permutation(M)) for _ in range(n_axes - 1)
            )
            sampled += 1
            gain = _cycle_gain(points, perms, cost_grid, sign)
            if gain > threshold(M):
                return MonotonicityReport(False, checked, sampled,
                                          (points, perms, gain))
    return MonotonicityReport(True, checked, sampled)


# ---------------------------------------------------------------------------
# fiber reports and extremality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderedPartition:
    """Ordered disjoint blocks of second-block atoms covering that space."""

    blocks: tuple[frozenset, ...]

    @staticmethod
    def from_lists(blocks) -> "OrderedPartition":
        return OrderedPartition(tuple(frozenset(tuple(b) for b in blk) for blk in blocks))

    def block_of(self, atom) -> int:
        for i, blk in enumerate(self.blocks):
            if tuple(atom) in blk:
                return i
        raise InvariantViolation(f"atom {atom} missing from the partition")

    def validate_covering(self, atoms):
        seen = set()
        for blk in self.blocks:
            if seen & blk:
                raise InvariantViolation("partition blocks overlap")
            seen |= blk
        missing = {tuple(a) for a in atoms} - seen
        if missing:
            raise InvariantViolation(f"partition misses atoms {sorted(missing)[:3]}")


@dataclass
class FiberEntry:
    fiber: list[tuple]            # F(x): all second-block atoms over x
    argmax: list[tuple]           # f(x): cost-argmax within the relevant block
    block_index: int | None = None  # least partition block meeting the fiber


@dataclass
class FiberReport:
    split: tuple[tuple[int, ...], tuple[int, ...]]
    per_atom: dict[tuple, FiberEntry]

    def max_fiber_size(self) -> int:
        return max((len(e.fiber) for e in self.per_atom.values()), default=0)

    def is_graph(self) -> bool:
        return all(len(e.fiber) == 1 for e in self.per_atom.values())


def fiber_report(support, cost_grid: np.ndarray,
                 split: tuple[tuple[int, ...], tuple[int, ...]],
                 partition: OrderedPartition | None = None,
                 tie_tol: float = 1e-12) -> FiberReport:
    """Fibers and cost-argmax sets of a support under a first/second axis split."""
    first, second = tuple(split[0]), tuple(split[1])
    if sorted(first + second) != list(range(cost_grid.ndim)):
        raise InvariantViolation("split must cover every axis exactly once")
    fibers: dict[tuple, list[tuple]] = {}
    for idx in support:
        idx = tuple(idx)
        a = tuple(idx[k] for k in first)
        b = tuple(idx[k] for k in second)
        fibers.setdefault(a, []).append(b)
    per_atom = {}
    for a, fib in fibers.items():
        fib = sorted(set(fib))
        if partition is not None:
            iota = min(partition.block_of(b) for b in fib)
            pool = [b for b in fib if partition.block_of(b) == iota]
        else:
            iota = None
            pool = fib

        def cost_of(b):
            idx = [0] * cost_grid.ndim
            for k, i in zip(first, a):
                idx[k] = i
            for k, i in zip(second, b):
                idx[k] = i
            return float(cost_grid[tuple(idx)])

        values = [cost_of(b) for b in pool]
        best = max(values)
        argmax = [b for b, v in zip(pool, values) if v >= best - tie_tol]
        per_atom[a] = FiberEntry(fib, argmax, iota)
    return FiberReport((first, second), per_atom)


@dataclass
class ExtremeReport:
    passed: bool
    violation: tuple | None = None   # (x1, x2, shared atom)


def check_c_extreme(report: FiberReport) -> ExtremeReport:
    """Pairwise punctured-fiber intersection test over all argmax selections.

    The domain condition is automatic here: finite fibers always admit an
    argmax, which is asserted rather than re-derived.
    """
    for entry in report.per_atom.values():
        if entry.fiber and not entry.argmax:
            raise InvariantViolation("nonempty fiber with empty argmax")
    atoms = sorted(report.per_atom)
    for x1, x2 in combinations(atoms, 2):
        e1, e2 = report.per_atom[x1], report.per_atom[x2]
        common = set(e1.fiber) & set(e2.fiber)
        if not common:
            continue
        for y1 in e1.argmax:
            for y2 in e2.argmax:
                shared = common - {y1, y2}
                if shared:
                    return ExtremeReport(False, (x1, x2, min(shared)))
    return ExtremeReport(True)


# ---------------------------------------------------------------------------
# multi-map decomposition
# ---------------------------------------------------------------------------

@dataclass
class MapDecomposition:
    maps: list[dict[int, tuple]]     # per map: first-axis atom -> complement index
    weights: list[np.ndarray]        # alpha_k over first-axis atoms
    max_fiber: int

    def recombine(self, mu_weights: np.ndarray, arities: tuple[int, ...],
                  first_axis: int = 0) -> Coupling:
        entries: dict[tuple, float] = {}
        for T, alpha in zip(self.maps, self.weights):
            for x, rest in T.items():
                w = alpha[x] * mu_weights[x]
                if w <= MASS_FLOOR:
                    continue
                idx = rest[:first_axis] + (x,) + rest[first_axis:]
                entries[idx] = entries.get(idx, 0.0) + w
        return Coupling(arities, entries)


@dataclass
class NotDecomposable:
    max_fiber: int


def detect_map_decomposition(plan: Coupling, first_axis: int = 0,
                             max_maps: int | None = None):
    """Write a coupling as weighted graphs over one axis.

    Finitely this always succeeds; maps are ordered by decreasing conditional
    weight (ties by complement index) and padded with zero weight where an
    atom's fiber is shorter than the longest one.  NotDecomposable is
    returned only when the longest fiber exceeds the caller's cap.
    """
    marg = plan.axis_marginal(first_axis)
    fibers = plan.fibers(first_axis)
    ranked: dict[int, list[tuple[tuple, float]]] = {}
    for x, fib in fibers.items():
        items = sorted(fib.items(), key=lambda kv: (-kv[1], kv[0]))
        ranked[x] = items
    m = max((len(v) for v in ranked.values()), default=0)
    if max_maps is not None and m > max_maps:
        return NotDecomposable(m)
    maps = []
    weights = []
    for k in range(m):
        T: dict[int, tuple] = {}
        alpha = np.zeros(len(marg))
        for x, items in ranked.items():
            if k < len(items):
                rest, mass = items[k]
                T[x] = rest
                alpha[x] = mass / marg[x]
            else:
                T[x] = items[-1][0]
        maps.append(T)
        weights.append(alpha)
    return MapDecomposition(maps, weights, m)


# ---------------------------------------------------------------------------
# two-twist count for the bilinear-quadratic family
# ---------------------------------------------------------------------------

def gw_twist_count(x0: np.ndarray, y0: np.ndarray, A: np.ndarray, xi: float,
                   candidates: np.ndarray, tol: float = 1e-8) -> int:
    """Count candidate points solving the cross-difference fixed-point equation

        y = (2/xi) (A^T)^{-1} x0 (|y0|^2 - |y|^2) + y0.

    Solutions lie on the line through y0 directed by (A^T)^{-1} x0, and a
    strict-convexity argument caps them at two; with x0 = 0 only y0 remains.
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    A = np.asarray(A, dtype=float)
    if xi == 0.0:
        raise ZeroXi("xi must be nonzero")
    if A.ndim != 2 or A.shape[0] != A.shape[1] or abs(np.linalg.det(A)) <= 1e-10:
        raise SingularMatrix("matrix must be invertible")
    v = (2.0 / xi) * np.linalg.solve(A.T, x0)
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    resid = candidates - y0[None, :] - np.outer(
        (y0 @ y0) - (candidates**2).sum(1), v
    )
    hits = np.flatnonzero(np.linalg.norm(resid, axis=1) <= tol)
    # count geometrically distinct solutions
    kept: list[np.ndarray] = []
    for i in hits:
        if all(np.linalg.norm(candidates[i] - k) > STORAGE_TOL for k in kept):
            kept.append(candidates[i])
    return len(kept)


def gw_second_solution(x0, y0, A, xi):
    """The unique solution other than y0, or None when the line degenerates."""
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    v = (2.0 / xi) * np.linalg.solve(np.asarray(A, float).T, x0)
    vv = float(v @ v)
    if vv <= 1e-14:
        return None
    beta = -(1.0 + 2.0 * float(y0 @ v)) / vv
    if abs(beta) <= 1e-14:
        return None
    return y0 + beta * v
