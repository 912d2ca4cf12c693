"""The fixed reference kernel that every timed operation is divided by.

It imports nothing from momt.  Each iteration does what one pivot of a dense
revised simplex does: a Python loop that assembles a basis matrix column by
column, two small dense ``np.linalg.solve`` calls, one mat-vec over all
columns for reduced costs, and a Python scan over the candidates.  Python
and BLAS slowdowns of the machine therefore show in it in the same
proportion as in momt's own operations.  ``run_iterations`` with a few
iterations is the short probe that samples the machine's speed while a
command runs.
"""

from __future__ import annotations

import numpy as np

ROWS = 32
COLS = 512
ITERATIONS = 96

_rng = np.random.default_rng(20230515)
_A = np.hstack([np.eye(ROWS) * 4.0, _rng.uniform(-0.25, 0.25, (ROWS, COLS - ROWS))])
_A[:, ROWS:] += 4.0 * np.eye(ROWS)[:, np.arange(COLS - ROWS) % ROWS]
_B_RHS = _rng.uniform(0.5, 1.5, ROWS)
_COST = _rng.uniform(-1.0, 1.0, COLS)


def run_iterations(count: int) -> float:
    """Run ``count`` pivot-like iterations; return a checksum of the results."""
    basis = list(range(ROWS))
    checksum = 0.0
    for it in range(count):
        B = np.empty((ROWS, ROWS))
        for p, col in enumerate(basis):
            B[:, p] = _A[:, col]
        y = np.linalg.solve(B.T, _COST[basis])
        x = np.linalg.solve(B, _B_RHS)
        reduced = _COST - _A.T @ y
        entering = -1
        for j in np.flatnonzero(reduced < 0.0):
            if j not in basis:
                entering = int(j)
                break
        leave = it % ROWS
        # swap in a column that keeps the basis diagonally dominant
        basis[leave] = ROWS + leave + ROWS * ((it // ROWS + 1) % ((COLS - ROWS) // ROWS))
        checksum += float(x.sum()) + 1e-3 * entering
    return checksum


def reference_kernel() -> float:
    """The reference kernel: one reference unit of work."""
    return run_iterations(ITERATIONS)
