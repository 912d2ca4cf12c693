"""Support-structure certificates: cyclical monotonicity (proved from the
dual potentials, for every cycle length), fiber maps, extremality of
minimizing sets, and multi-map decompositions.

The set-valued fiber map F sends a first-block atom to the second-block atoms
it shares support with; f keeps the cost-argmax of each fiber (all ties
retained).  An ordered partition of the second block localizes the argmax to
the first partition block the fiber meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvariantViolation, SingularMatrix, ZeroXi
from .lp import Potentials
from .measure import Coupling
from .tolerances import MASS_FLOOR, STORAGE_TOL


# ---------------------------------------------------------------------------
# cyclical monotonicity
# ---------------------------------------------------------------------------

@dataclass
class MonotonicityReport:
    passed: bool
    bound: float          # M * (r + v) at the decisive cycle size M
    threshold: float      # the gain threshold at that size
    # always 0, as the proof prices no cycle; perfbench's layertrace._count
    # reads both
    checked_exhaustive: int = 0
    checked_sampled: int = 0


_FLOAT_MAX = float(np.finfo(float).max)


def _gain_thresholds(cost_grid, tol):
    """Per cycle size M: `tol` times the cost's span plus the rounding floor
    of two M-term sums at the cost's magnitude.  M * max|c| and the sum are
    capped at the largest float, whose ulp is the largest there is, so a
    threshold that does not overflow is not changed by the caps."""
    span = float(np.ptp(cost_grid))
    peak = float(np.abs(cost_grid).max())

    @np.errstate(over="ignore")
    def threshold(M):
        floor = 2 * M * np.spacing(np.minimum(M * peak, _FLOAT_MAX))
        return np.minimum(tol * span + floor, _FLOAT_MAX)
    return threshold


def check_cyclical_monotonicity(support, cost_grid: np.ndarray, potentials: Potentials,
                                tol: float = 1e-9) -> MonotonicityReport:
    """Prove every cycle of support points monotone from dual potentials.

    A cycle takes M support points and permutes their coordinates axis by
    axis; it violates monotonicity when it gains, that is, when the
    support's total cost minus the permuted total (oriented by the sense)
    exceeds the threshold for size M: `tol` times the cost's span plus the
    rounding floor of two M-term sums at the cost's magnitude, so scaling
    or shifting the cost does not change the verdict.

    Let sigma = sign * (c - sum_k phi_k), r its largest magnitude on the
    support and v the potentials' worst dual violation (sigma >= -v on the
    grid).  Each axis uses the same atoms before and after a permutation,
    so the potential sums cancel and an M-cycle gains sigma summed over its
    support cells minus sigma over the permuted cells, at most M * (r + v).
    The report passes iff M * (r + v) is within the threshold for every M
    from 2 to the support size, which proves every cycle length at once
    (Kantorovich duality; for N marginals see Griessler, Proc. AMS 2018).
    Its bound and threshold are those of the size closest to failing.

    Rounding: sigma is computed in floats, each cell within about N/2
    ulps of the cost's magnitude (the gauge keeps the potentials' partial
    sums near it), and r and v are read off the computed values.  So an
    M-cycle's exact gain can exceed M * (r + v) by about M * N such ulps,
    the order of the threshold's rounding floor 2 * M * spacing(M * max|c|):
    the floor forgives gains that small because they cannot be told from
    rounding, whether a cycle is enumerated or bounded.  That floor, not
    `tol` times the span, carries shifted costs: at +-1e9, r and v are
    themselves a few ulps.
    """
    if len(support) < 2:                  # no cycle to permute
        return MonotonicityReport(True, 0.0, float(_gain_thresholds(cost_grid, tol)(2)))
    sign = 1.0 if potentials.sense == "min" else -1.0
    sigma = sign * (cost_grid - potentials.sum_grid(cost_grid.shape))
    r = float(np.abs(sigma[tuple(np.array(support).T)]).max())
    v = max(0.0, -float(sigma.min()))
    sizes = np.arange(2, len(support) + 1)
    bounds = sizes * (r + v)
    limits = _gain_thresholds(cost_grid, tol)(sizes)
    worst = int(np.argmax(bounds / limits))
    return MonotonicityReport(bool((bounds <= limits).all()),
                              float(bounds[worst]), float(limits[worst]))


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


@dataclass
class FiberEntry:
    fiber: list[tuple]            # F(x): all second-block atoms over x
    argmax: list[tuple]           # f(x): cost-argmax within the relevant block
    block_index: int | None = None  # least partition block meeting the fiber


@dataclass
class FiberReport:
    split: tuple[tuple[int, ...], tuple[int, ...]]
    per_atom: dict[tuple, FiberEntry]

    def is_graph(self) -> bool:
        return all(len(e.fiber) == 1 for e in self.per_atom.values())


def fiber_report(support, cost_grid: np.ndarray,
                 split: tuple[tuple[int, ...], tuple[int, ...]],
                 partition: OrderedPartition | None = None) -> FiberReport:
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
        argmax = [b for b, v in zip(pool, values) if v >= best - 1e-12]
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
    maps: list[dict[int, tuple]]     # per map: axis-0 atom -> complement index
    weights: list[np.ndarray]        # alpha_k over axis-0 atoms
    max_fiber: int

    def recombine(self, mu_weights: np.ndarray, arities: tuple[int, ...]) -> Coupling:
        entries: dict[tuple, float] = {}
        for T, alpha in zip(self.maps, self.weights):
            for x, rest in T.items():
                w = alpha[x] * mu_weights[x]
                if w <= MASS_FLOOR:
                    continue
                idx = (x,) + rest
                entries[idx] = entries.get(idx, 0.0) + w
        return Coupling(arities, entries)


def detect_map_decomposition(plan: Coupling) -> MapDecomposition:
    """Write a coupling as weighted graphs over axis 0.

    Finitely this always succeeds; maps are ordered by decreasing conditional
    weight (ties by complement index) and padded with zero weight where an
    atom's fiber is shorter than the longest one.
    """
    marg = plan.axis_marginal(0)
    fibers = plan.fibers(0)
    ranked: dict[int, list[tuple[tuple, float]]] = {}
    for x, fib in fibers.items():
        items = sorted(fib.items(), key=lambda kv: (-kv[1], kv[0]))
        ranked[x] = items
    m = max((len(v) for v in ranked.values()), default=0)
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
                   candidates: np.ndarray) -> int:
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
    hits = np.flatnonzero(np.linalg.norm(resid, axis=1) <= 1e-8)
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
