"""Discrete measures, couplings, marginalization, disintegration, gluing.

Axes are 0-based everywhere in the library; the CLI translates from the
1-based convention used in instance files.  All types are immutable after
construction and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptySubset,
    IndexOutOfRange,
    InvariantViolation,
    MarginalMismatch,
)
from .tolerances import GLUE_MARGINAL_TOL, MASS_FLOOR, STORAGE_TOL


def _closest_pair(pts: np.ndarray) -> tuple[float, int, int]:
    """(distance, i, j) of the closest two rows within STORAGE_TOL, with i < j
    and the least (i, j) on ties; (inf, -1, -1) if no two rows are that close.

    Sorted on their widest coordinate, rows k places apart are compared for
    k = 1, 2, ... until every gap in that coordinate exceeds the tolerance:
    two rows within it are within it on every coordinate.  Memory is O(n d).
    """
    best = (np.inf, -1, -1)
    with np.errstate(over="ignore"):     # an overflowing distance is just a large one
        axis = (pts.max(axis=0) - pts.min(axis=0)).argmax()
        order = np.argsort(pts[:, axis], kind="stable")
        rows = pts[order]
        for k in range(1, len(rows)):
            near = (rows[k:, axis] - rows[:-k, axis] <= STORAGE_TOL).nonzero()[0]
            if not near.size:
                break
            dist = np.sqrt(((rows[near + k] - rows[near]) ** 2).sum(-1))
            hit = dist <= STORAGE_TOL
            if hit.any():
                a, b = order[near[hit]], order[near[hit] + k]
                i, j, d = np.minimum(a, b), np.maximum(a, b), dist[hit]
                t = np.lexsort((j, i, d))[0]
                best = min(best, (float(d[t]), int(i[t]), int(j[t])))
    return best


@dataclass(frozen=True)
class Space:
    """A finite point cloud in R^d; each point is one atom location."""

    name: str
    points: np.ndarray  # (n, d)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InvariantViolation(f"space {self.name!r}: need a nonempty (n, d) array")
        object.__setattr__(self, "points", pts)
        dist, i, j = _closest_pair(pts)
        if dist <= STORAGE_TOL:
            raise InvariantViolation(
                f"space {self.name!r}: atoms {i} and {j} coincide within {STORAGE_TOL}"
            )

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability weights over the atoms of a space."""

    space: Space
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != self.space.size:
            raise InvariantViolation("weight vector length must equal the atom count")
        if (w < -STORAGE_TOL).any():
            raise InvariantViolation("weights must be nonnegative")
        if (w < 0.0).any():
            # a weight in [-STORAGE_TOL, 0) is the rounding dust of an empty
            # atom, and the simplex needs nonnegative marginals
            w = np.where(w < 0.0, 0.0, w)
        object.__setattr__(self, "weights", w)
        if abs(w.sum() - 1.0) > STORAGE_TOL:
            raise InvariantViolation(f"weights sum to {w.sum()!r}, expected 1")

    @property
    def size(self) -> int:
        return self.space.size


def _int_keys(entries):
    """int() of each key's components, in order, up to the first key it rejects.

    Returns the converted keys and that key's exception, or None.
    """
    keys = []
    try:
        for idx in entries:
            keys.append(tuple(map(int, idx)))
    except (TypeError, ValueError, OverflowError) as exc:
        return keys, exc
    return keys, None


def _first_bad_key(keys, arities) -> int:
    """Position of the first key of the wrong length or out of bounds, else len(keys).

    Valid keys are checked a column at a time; only invalid ones are scanned.
    """
    n_axes = len(arities)
    if set(map(len, keys)) == {n_axes} and all(
            min(col) >= 0 and max(col) < n for col, n in zip(zip(*keys), arities)):
        return len(keys)
    return next((j for j, idx in enumerate(keys) if len(idx) != n_axes
                 or not all(0 <= i < n for i, n in zip(idx, arities))), len(keys))


def _raise_bad_key(idx, arities):
    if len(idx) != len(arities):
        raise InvariantViolation(f"index {idx} has wrong length")
    ax = next(ax for ax, (i, n) in enumerate(zip(idx, arities)) if not 0 <= i < n)
    raise IndexOutOfRange(f"index {idx} out of bounds on axis {ax}")


@dataclass(frozen=True)
class Coupling:
    """Sparse nonnegative mass assignment over multi-indices, total mass 1."""

    arities: tuple[int, ...]
    entries: dict[tuple[int, ...], float]

    def __post_init__(self):
        """Convert keys with int(), check them, drop dust and merge equal keys.

        Keys are bounds-checked a column at a time.  Invalid input raises the
        error of its first invalid entry, as a pass over the entries in order
        would, and the total is summed in entry order.
        """
        keys, failure = _int_keys(self.entries)
        bad = _first_bad_key(keys, self.arities)
        masses = list(self.entries.values())
        kept = [j for j in range(bad) if not masses[j] <= MASS_FLOOR]
        if bad < len(keys):
            _raise_bad_key(keys[bad], self.arities)
        if failure is not None:
            raise failure
        clean = {}
        total = 0.0
        for j in kept:
            clean[keys[j]] = clean.get(keys[j], 0.0) + float(masses[j])
            total += masses[j]
        if abs(total - 1.0) > STORAGE_TOL:
            raise InvariantViolation(f"total mass {total!r} differs from 1")
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "arities", tuple(int(n) for n in self.arities))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_dense(array: np.ndarray) -> "Coupling":
        """The cells above MASS_FLOOR, keyed in C order."""
        array = np.asarray(array, dtype=float)
        mask = array > MASS_FLOOR
        # np.nonzero refuses 0-d arrays, whose one cell has the empty index
        keys = zip(*(i.tolist() for i in np.nonzero(mask))) if array.ndim \
            else [()] * int(mask)
        return Coupling(array.shape, dict(zip(keys, array[mask].tolist())))

    # -- views -------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.arities)
        for idx, mass in self.entries.items():
            out[idx] = mass
        return out

    def axis_marginal(self, axis: int) -> np.ndarray:
        out = np.zeros(self.arities[axis])
        for idx, mass in self.entries.items():
            out[idx[axis]] += mass
        return out

    def marginal_on(self, axes: tuple[int, ...]) -> np.ndarray:
        """Dense restriction to a subset of axes (in the subset's own order)."""
        out = np.zeros(tuple(self.arities[a] for a in axes))
        for idx, mass in self.entries.items():
            out[tuple(idx[a] for a in axes)] += mass
        return out

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.entries)

    def mass_at(self, idx: tuple[int, ...]) -> float:
        return self.entries.get(tuple(idx), 0.0)

    def total_variation(self, other: "Coupling") -> float:
        if self.arities != other.arities:
            raise InvariantViolation("couplings live on different grids")
        keys = set(self.entries) | set(other.entries)
        return 0.5 * sum(abs(self.mass_at(k) - other.mass_at(k)) for k in keys)

    def is_graph(self) -> bool:
        """True iff no two entries share an axis-0 atom: every fiber over
        axis 0 is one cell, and the plan is the graph of a map."""
        return len({idx[0] for idx in self.entries}) == len(self.entries)

    def fibers(self, axis: int) -> dict[int, dict[tuple[int, ...], float]]:
        """Per axis-atom conditional masses over the complementary multi-index."""
        out: dict[int, dict[tuple[int, ...], float]] = {}
        for idx, mass in self.entries.items():
            rest = idx[:axis] + idx[axis + 1:]
            out.setdefault(idx[axis], {})[rest] = mass
        return out

    def push_axis_map(self, axis: int, mapping: np.ndarray) -> "Coupling":
        """Push forward along an index map applied to one axis."""
        entries: dict[tuple[int, ...], float] = {}
        for idx, mass in self.entries.items():
            new = idx[:axis] + (int(mapping[idx[axis]]),) + idx[axis + 1:]
            entries[new] = entries.get(new, 0.0) + mass
        return Coupling(self.arities, entries)

    def mix(self, other: "Coupling", t: float) -> "Coupling":
        keys = set(self.entries) | set(other.entries)
        entries = {k: (1 - t) * self.mass_at(k) + t * other.mass_at(k) for k in keys}
        return Coupling(self.arities, entries)


@dataclass(frozen=True)
class Disintegration:
    """Base marginal on a conditioning block plus one conditional per base atom.

    Conditionals are measures over the complementary product space, indexed in
    C order of the complementary axes.  Recombining conditional weights against
    base masses reproduces the source coupling entrywise.
    """

    conditioning: tuple[int, ...]
    base: Coupling
    conditionals: dict[tuple[int, ...], DiscreteMeasure]
    complement: tuple[int, ...] = field(default=())

    def conditional_weights(self, base_atom: tuple[int, ...]) -> np.ndarray:
        return self.conditionals[base_atom].weights


def _check_subset(subset, n_axes, *, proper=False):
    subset = tuple(int(a) for a in subset)
    if not subset:
        raise EmptySubset("axis subset is empty")
    if any(subset[i] >= subset[i + 1] for i in range(len(subset) - 1)):
        raise InvariantViolation(f"axis subset {subset} must be strictly increasing")
    if subset[0] < 0 or subset[-1] >= n_axes:
        raise IndexOutOfRange(f"axis subset {subset} outside 0..{n_axes - 1}")
    if proper and len(subset) == n_axes:
        raise InvariantViolation("axis subset must be proper")
    return subset


def pushforward(plan: Coupling, subset: tuple[int, ...]) -> Coupling:
    """Marginalize a coupling onto a strictly increasing subset of axes."""
    subset = _check_subset(subset, len(plan.arities))
    entries: dict[tuple[int, ...], float] = {}
    for idx, mass in plan.entries.items():
        key = tuple(idx[a] for a in subset)
        entries[key] = entries.get(key, 0.0) + mass
    return Coupling(tuple(plan.arities[a] for a in subset), entries)


def disintegrate(plan: Coupling, conditioning: tuple[int, ...]) -> Disintegration:
    """Split a coupling into a base marginal and conditionals over its atoms.

    Conditionals exist exactly for base atoms of positive mass; their weights
    are entry(base, .) / base_mass, laid out in C order of the complementary
    axes.  Only the weights carry meaning: the conditional measures live on a
    synthetic unit grid with one atom per complementary multi-index.
    """
    n = len(plan.arities)
    conditioning = _check_subset(conditioning, n, proper=True)
    complement = tuple(a for a in range(n) if a not in conditioning)
    base = pushforward(plan, conditioning)
    comp_shape = tuple(plan.arities[a] for a in complement)
    comp_space = Space("residual", np.arange(int(np.prod(comp_shape)), dtype=float))

    cond_tables: dict[tuple[int, ...], np.ndarray] = {}
    for idx, mass in plan.entries.items():
        b = tuple(idx[a] for a in conditioning)
        c = tuple(idx[a] for a in complement)
        table = cond_tables.setdefault(b, np.zeros(comp_shape))
        table[c] += mass
    conditionals = {
        b: DiscreteMeasure(comp_space, (table / base.mass_at(b)).reshape(-1))
        for b, table in cond_tables.items()
    }
    return Disintegration(conditioning, base, conditionals, complement)


def recombine(dis: Disintegration, arities: tuple[int, ...]) -> Coupling:
    """Multiply conditionals back against the base; inverse of disintegrate."""
    comp_shape = tuple(arities[a] for a in dis.complement)
    entries: dict[tuple[int, ...], float] = {}
    for b, mass in dis.base.entries.items():
        weights = dis.conditionals[b].weights.reshape(comp_shape)
        for c in np.ndindex(comp_shape):
            w = weights[c]
            if w <= MASS_FLOOR:
                continue
            idx = [0] * len(arities)
            for a, i in zip(dis.conditioning, b):
                idx[a] = i
            for a, i in zip(dis.complement, c):
                idx[a] = i
            entries[tuple(idx)] = mass * w
    return Coupling(arities, entries)


def glue(left: Coupling, right: Coupling) -> Coupling:
    """Glue two couplings sharing their first marginal into a triple coupling.

    left lives on X x Y, right on X x Z; the output conditional over each
    x atom is the product of the two input conditionals.
    """
    if left.arities[0] != right.arities[0]:
        raise MarginalMismatch(0, float("inf"), "first-axis atom counts differ")
    mu_left = left.axis_marginal(0)
    mu_right = right.axis_marginal(0)
    dev = np.abs(mu_left - mu_right).max()
    if dev > GLUE_MARGINAL_TOL:
        raise MarginalMismatch(0, dev)
    left_fib = left.fibers(0)
    right_fib = right.fibers(0)
    entries: dict[tuple[int, ...], float] = {}
    for x, mu_x in enumerate(mu_left):
        if mu_x <= MASS_FLOOR:
            continue
        for yrest, wy in left_fib.get(x, {}).items():
            for zrest, wz in right_fib.get(x, {}).items():
                entries[(x, *yrest, *zrest)] = wy * wz / mu_x
    return Coupling(left.arities + right.arities[1:], entries)
