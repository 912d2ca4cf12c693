"""Three-marginal plans whose two-marginal restrictions ride on two maps each.

Per first-axis atom the conditional is a 2x2 coupling of (alpha, 1-alpha)
against (beta, 1-beta); its mass matrix L solves

    L11 + L12 = alpha      L11 + L21 = beta
    L21 + L22 = 1 - alpha  L12 + L22 = 1 - beta

so a single degree of freedom remains, pinned to the window

    max(0, alpha + beta - 1) <= L11 <= min(alpha, beta).

The window endpoints give the two extreme conditionals; the mixing weight
theta tracks the position inside the window, with theta = 0 the lower
endpoint and theta = 1 the upper one.  The window collapses exactly when
alpha or beta is 0 or 1, and then L is the independent product.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Per-atom two-map data and the solved conditional mass matrices."""

    alpha: np.ndarray
    beta: np.ndarray
    T1: np.ndarray
    T2: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    n_y: int
    n_z: int
    L: np.ndarray                      # (n, 4) rows (L11, L12, L21, L22)
    theta: np.ndarray | None = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self.L = np.asarray(self.L, dtype=float)
        n = self.alpha.size
        if self.L.shape != (n, 4):
            raise InvariantViolation("need one (L11, L12, L21, L22) row per atom")
        if ((self.L < -STORAGE_TOL) | (self.L > 1 + STORAGE_TOL)).any():
            raise InvariantViolation("mass matrix entries must lie in [0, 1]")
        resid = np.abs(
            self.L - _rows_from_l11(self.alpha, self.beta, self.L[:, 0])
        ).max()
        if resid > STORAGE_TOL:
            raise InvariantViolation(f"row equations violated by {resid:.3e}")
        low, high = lij_window(self.alpha, self.beta)
        if ((self.L[:, 0] < low - STORAGE_TOL) | (self.L[:, 0] > high + STORAGE_TOL)).any():
            raise InvariantViolation("L11 escapes its feasibility window")


def extreme_assemblies(alpha, beta, maps: tuple[np.ndarray, np.ndarray,
                                                np.ndarray, np.ndarray],
                       n_y: int, n_z: int) -> tuple[TwoMapAssembly, TwoMapAssembly]:
    """The two assemblies with L11 at the window endpoints on every atom."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    low, high = lij_window(alpha, beta)
    T1, T2, G1, G2 = (np.asarray(m, dtype=int) for m in maps)
    lower = TwoMapAssembly(alpha, beta, T1, T2, G1, G2, n_y, n_z,
                           _rows_from_l11(alpha, beta, low),
                           theta=np.zeros_like(alpha))
    upper = TwoMapAssembly(alpha, beta, T1, T2, G1, G2, n_y, n_z,
                           _rows_from_l11(alpha, beta, high),
                           theta=np.ones_like(alpha))
    return lower, upper


def mixed_assembly(lower: TwoMapAssembly, upper: TwoMapAssembly,
                   theta) -> TwoMapAssembly:
    """Interpolate per atom: theta = 0 is the lower assembly, 1 the upper."""
    theta = np.asarray(theta, dtype=float)
    if ((theta < -STORAGE_TOL) | (theta > 1 + STORAGE_TOL)).any():
        raise OutOfRange("theta must lie in [0, 1] per atom")
    l11 = (1.0 - theta) * lower.L[:, 0] + theta * upper.L[:, 0]
    return TwoMapAssembly(lower.alpha, lower.beta, lower.T1, lower.T2,
                          lower.G1, lower.G2, lower.n_y, lower.n_z,
                          _rows_from_l11(lower.alpha, lower.beta, l11),
                          theta=theta)


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


def assemble_three_marginal(assembly: TwoMapAssembly,
                            mu: DiscreteMeasure) -> Coupling:
    """Expand per-atom mass matrices into a coupling on X x Y x Z."""
    n = mu.size
    entries: dict[tuple[int, int, int], float] = {}
    pairs = ((0, "T1", "G1"), (1, "T1", "G2"), (2, "T2", "G1"), (3, "T2", "G2"))
    for x in range(n):
        w = mu.weights[x]
        if w <= MASS_FLOOR:
            continue
        for col, tname, gname in pairs:
            mass = w * assembly.L[x, col]
            if mass <= MASS_FLOOR:
                continue
            y = int(getattr(assembly, tname)[x])
            z = int(getattr(assembly, gname)[x])
            key = (x, y, z)
            entries[key] = entries.get(key, 0.0) + mass
    return Coupling((n, assembly.n_y, assembly.n_z), entries)


def recover_theta(plan: Coupling, assembly_like: TwoMapAssembly,
                  mu: DiscreteMeasure) -> np.ndarray:
    """Read the per-atom mixing weight off a feasible triple coupling.

    Divides by the window width; collapsed windows report 0 by convention.
    Degenerate map pairs (equal images) are handled by reading the joint
    first-map cell directly.
    """
    n = mu.size
    theta = np.zeros(n)
    low_all, high_all = lij_window(assembly_like.alpha, assembly_like.beta)
    for x in range(n):
        w = mu.weights[x]
        if w <= MASS_FLOOR:
            continue
        width = high_all[x] - low_all[x]
        if width <= STORAGE_TOL:
            theta[x] = 0.0
            continue
        y1, z1 = int(assembly_like.T1[x]), int(assembly_like.G1[x])
        l11 = plan.mass_at((x, y1, z1)) / w
        theta[x] = float(np.clip((l11 - low_all[x]) / width, 0.0, 1.0))
    return theta
