"""Numerical tolerances used as contracts throughout the package.

These are deliberate choices, not knobs: storage-level identities hold to
1e-12, solver round-off is absorbed at 1e-10/1e-9, duality gaps are accepted
at 1e-8, and the active-set (minimizing-set) tolerance sits at 1e-7, above
gap noise and below typical cost gaps at desk scale.  Checks against a cost
scale these by the cost's span through `cost_scaled`.
"""

import numpy as np

STORAGE_TOL = 1e-12        # mass/weight bookkeeping identities
MASS_FLOOR = 1e-15         # sparse entries below this are numerical dust
GLUE_MARGINAL_TOL = 1e-10  # shared-marginal agreement required for gluing
DUAL_FEAS_TOL = 1e-9       # allowed violation of dual feasibility
GAP_TOL = 1e-8             # strong duality / optimality gap acceptance
ACTIVE_TOL = 1e-7          # |c - sum(potentials)| cutoff for the active set
VERTEX_PIVOT_TOL = 1e-10   # rank-test pivot tolerance for vertex checks
WITNESS_TV_TOL = 1e-6      # total-variation gap certifying a second optimum
RATIO_TOL = 1e-11          # simplex ratio-test positivity threshold
REDUCED_COST_TOL = 1e-9    # simplex entering-candidate threshold


def cost_scaled(tol: float, cost_grid: np.ndarray) -> float:
    """tol times the cost's span (max - min, 1 when constant), plus N ulps of
    its largest magnitude: a sum of N potentials is only as precise as
    rounding at the cost's size, so scaling or shifting a cost keeps the
    verdict."""
    span = float(cost_grid.max() - cost_grid.min()) or 1.0
    return tol * span + cost_grid.ndim * float(np.spacing(np.abs(cost_grid).max()))
