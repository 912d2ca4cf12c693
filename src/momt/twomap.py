"""Three-marginal plans whose two-marginal restrictions ride on two maps each.

Per first-axis atom the conditional is a 2x2 coupling of (alpha, 1-alpha)
against (beta, 1-beta); its mass matrix L solves

    L11 + L12 = alpha      L11 + L21 = beta
    L21 + L22 = 1 - alpha  L12 + L22 = 1 - beta

so a single degree of freedom remains, pinned to the window

    max(0, alpha + beta - 1) <= L11 <= min(alpha, beta).

The window endpoints give the two extreme conditionals.  An assembly is
its per-atom mixing weight theta in [0, 1], the position of L11 inside the
window: theta = 0 is the lower endpoint and theta = 1 the upper one, and L
follows from theta.  The window collapses exactly when alpha or beta is 0
or 1, and then L is the independent product.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvariantViolation, OutOfRange
from .measure import Coupling, DiscreteMeasure
from .tolerances import MASS_FLOOR, STORAGE_TOL


def lij_window(alpha, beta):
    """Feasible range (low, high) of the joint first-map mass, per atom.

    alpha and beta are scalars or arrays of one value per atom; the window
    is taken elementwise.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    high, top = np.minimum(alpha, beta), np.maximum(alpha, beta)
    if not (-STORAGE_TOL <= high.min() and top.max() <= 1 + STORAGE_TOL):   # NaN fails
        name, w = next((name, w) for name, w in (("alpha", alpha), ("beta", beta))
                       if not ((-STORAGE_TOL <= w) & (w <= 1 + STORAGE_TOL)).all())
        raise OutOfRange(f"{name} = {w} outside [0, 1]")
    # alpha + beta - 1 rounded once: 1 minus the larger weight is exact when
    # that weight is at least 1/2, and below 1/2 the window starts at 0
    return np.maximum(0.0, high - (1.0 - top)), high


def _rows_from_l11(alpha, beta, l11):
    return np.stack(
        [l11, alpha - l11, beta - l11, 1.0 - alpha - beta + l11], axis=-1
    )


@dataclass
class TwoMapAssembly:
    """Per-atom two-map data and the mixing weight theta inside each window.

    theta is the whole per-atom state: L11 = (1 - theta) low + theta high
    and `_rows_from_l11` gives the rest of the row.  So for every theta in
    [0, 1] the row equations hold, L11 stays in its window, and the four
    masses lie in [0, 1] (L11 >= low >= max(0, alpha + beta - 1) and
    L11 <= high = min(alpha, beta) keep each entry nonnegative, and they sum
    to 1), all up to rounding; only theta's range needs checking.
    """

    alpha: np.ndarray
    beta: np.ndarray
    T1: np.ndarray
    T2: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    n_y: int
    n_z: int
    theta: np.ndarray
    low: np.ndarray = field(init=False, repr=False)    # the L11 window, per atom
    high: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        self.T1, self.T2, self.G1, self.G2 = (
            np.asarray(m, dtype=int) for m in (self.T1, self.T2, self.G1, self.G2))
        n = self.alpha.size
        if any(v.size != n for v in (self.beta, self.theta, self.T1, self.T2,
                                     self.G1, self.G2)):
            raise InvariantViolation(f"beta, theta and the maps need {n} entries, one per atom")
        if not ((-STORAGE_TOL <= self.theta) & (self.theta <= 1 + STORAGE_TOL)).all():
            raise OutOfRange("theta must lie in [0, 1] per atom")
        self.low, self.high = lij_window(self.alpha, self.beta)

    @property
    def L(self) -> np.ndarray:
        """(n, 4) rows (L11, L12, L21, L22) of the conditional mass matrices."""
        l11 = (1.0 - self.theta) * self.low + self.theta * self.high
        return _rows_from_l11(self.alpha, self.beta, l11)


def extreme_assemblies(alpha, beta, maps: tuple[np.ndarray, np.ndarray,
                                                np.ndarray, np.ndarray],
                       n_y: int, n_z: int) -> tuple[TwoMapAssembly, TwoMapAssembly]:
    """The two assemblies with L11 at the window endpoints on every atom:
    theta = 0 and theta = 1.  `dataclasses.replace(lower, theta=...)` is the
    assembly at any other theta."""
    theta = np.zeros(np.shape(alpha))
    lower = TwoMapAssembly(alpha, beta, *maps, n_y, n_z, theta)
    return lower, replace(lower, theta=theta + 1.0)


def unique_condition(alpha, beta):
    """Window collapse test: per atom, alpha or beta sits at {0, 1}."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    at_edge = lambda v: (np.abs(v) <= STORAGE_TOL) | (np.abs(v - 1.0) <= STORAGE_TOL)
    per_atom = at_edge(alpha) | at_edge(beta)
    return per_atom, bool(per_atom.all())


def product_rows(alpha, beta) -> np.ndarray:
    """The independent-coupling rows (alpha beta, alpha(1-beta), ...)."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return np.stack([alpha * beta, alpha * (1 - beta),
                     (1 - alpha) * beta, (1 - alpha) * (1 - beta)], axis=-1)


def _check_atoms(assembly: TwoMapAssembly, mu: DiscreteMeasure) -> None:
    if mu.size != assembly.alpha.size:
        raise InvariantViolation(
            f"measure has {mu.size} atoms, the assembly {assembly.alpha.size}")


def assemble_three_marginal(assembly: TwoMapAssembly,
                            mu: DiscreteMeasure) -> Coupling:
    """Expand per-atom mass matrices into a coupling on X x Y x Z."""
    _check_atoms(assembly, mu)
    a = assembly
    entries: dict[tuple[int, int, int], float] = {}
    for x, (w, row, t1, t2, g1, g2) in enumerate(
            zip(mu.weights, a.L, a.T1.tolist(), a.T2.tolist(),
                a.G1.tolist(), a.G2.tolist())):
        if w <= MASS_FLOOR:
            continue
        for m, key in zip(row, ((x, t1, g1), (x, t1, g2), (x, t2, g1), (x, t2, g2))):
            mass = w * m
            if mass > MASS_FLOOR:
                entries[key] = entries.get(key, 0.0) + mass
    return Coupling((mu.size, a.n_y, a.n_z), entries)


def recover_theta(plan: Coupling, assembly: TwoMapAssembly,
                  mu: DiscreteMeasure) -> np.ndarray:
    """Read the per-atom mixing weight off a feasible triple coupling.

    Divides by the window width; collapsed windows report 0 by convention.
    Degenerate map pairs (equal images) are handled by reading the joint
    first-map cell directly.
    """
    _check_atoms(assembly, mu)
    theta = np.zeros(mu.size)
    width = assembly.high - assembly.low
    for x, w in enumerate(mu.weights):
        if w <= MASS_FLOOR or width[x] <= STORAGE_TOL:
            continue
        l11 = plan.mass_at((x, int(assembly.T1[x]), int(assembly.G1[x]))) / w
        theta[x] = float(np.clip((l11 - assembly.low[x]) / width[x], 0.0, 1.0))
    return theta
