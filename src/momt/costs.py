"""Builtin cost families and discrete convex conjugates.

The pairwise families come in three flavors tied by an exact identity:

    0.5 * sum_{i<j} |x_i - x_j|^2  =  (N-1)/2 * sum_i |x_i|^2  -  sum_{i<j} <x_i, x_j>

so minimizing the attractive cost and maximizing the surplus cost select the
same couplings.  Gradients of dual potentials are argmax selections, never
finite differences: the transport maps of the quadratic theory arise from
convex duality and the argmax is the faithful discrete analogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyTable,
    InvariantViolation,
    NonFiniteCost,
    SingularMatrix,
    ZeroXi,
)
from .measure import Space

BUILTIN_KINDS = (
    "tensor",
    "surplus",
    "attractive",
    "repulsive",
    "gangboSwiech",
    "mongeQuadratic",
    "gromovWasserstein",
)


@dataclass(frozen=True)
class CostSpec:
    """A cost family plus optimization sense.

    gromovWasserstein carries params {"xi": float, "A": (n, n) array} and
    evaluates the raw surplus |x|^2 |y|^2 + xi <Ax, y>; solving it as a
    maximization is the negated form of the usual minimization objective.
    tensor carries {"values": ndarray} of the full arity.
    """

    kind: str
    sense: str = "min"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in BUILTIN_KINDS:
            raise InvariantViolation(f"unknown cost kind {self.kind!r}")
        if self.sense not in ("min", "max"):
            raise InvariantViolation(f"sense must be 'min' or 'max', got {self.sense!r}")
        if self.kind == "gromovWasserstein":
            A = np.asarray(self.params["A"], dtype=float)
            xi = float(self.params["xi"])
            if not (np.isfinite(A).all() and np.isfinite(xi)):
                raise NonFiniteCost("gromovWasserstein requires a finite xi and A")
            if xi == 0.0:
                raise ZeroXi("gromovWasserstein requires xi != 0")
            with np.errstate(all="ignore"):     # subnormal pivots divide by zero
                singular = (A.ndim != 2 or A.shape[0] != A.shape[1]
                            or abs(np.linalg.det(A)) <= 1e-10)
            if singular:
                raise SingularMatrix("gromovWasserstein requires an invertible matrix")
        if self.kind == "tensor":
            vals = np.asarray(self.params["values"], dtype=float)
            if not np.isfinite(vals).all():
                raise NonFiniteCost("tensor cost contains non-finite values")


def _pairwise_dots(points):
    total = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            total += float(np.dot(points[i], points[j]))
    return total


def _pairwise_sqdist(points):
    total = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = points[i] - points[j]
            total += float(np.dot(d, d))
    return total


def evaluate(spec: CostSpec, points: list[np.ndarray]) -> float:
    """Evaluate an analytic cost family at one point per axis.

    This is the pointwise definition; `cost_array` tabulates whole grids
    without calling it, and the tests compare the two.
    """
    points = [np.asarray(p, dtype=float) for p in points]
    dims = {p.shape for p in points}
    if len(dims) != 1:
        raise DimensionMismatch(f"point dimensions differ: {sorted(dims)}")
    if spec.kind in ("surplus", "gangboSwiech"):
        return _pairwise_dots(points)
    if spec.kind == "attractive":
        return 0.5 * _pairwise_sqdist(points)
    if spec.kind == "repulsive":
        return -0.5 * _pairwise_sqdist(points)
    if spec.kind == "mongeQuadratic":
        if len(points) != 3:
            raise DimensionMismatch("mongeQuadratic is a three-marginal cost")
        x, y, z = points
        return float(np.linalg.norm(x - y) + np.dot(x - z, x - z) + np.dot(y - z, y - z))
    if spec.kind == "gromovWasserstein":
        if len(points) != 2:
            raise DimensionMismatch("gromovWasserstein is a two-marginal cost")
        x, y = points
        A = np.asarray(spec.params["A"], dtype=float)
        xi = float(spec.params["xi"])
        return float(np.dot(x, x) * np.dot(y, y) + xi * np.dot(A @ x, y))
    raise InvariantViolation(f"cost kind {spec.kind!r} has no pointwise evaluation")


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u, v> over the last axis, broadcast over the rest.

    A stack of (1, d) @ (d, 1) products rounds each cell as `np.dot` of the
    two vectors does; `(u * v).sum(-1)` and `np.einsum` do not always.
    """
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _sqdists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x_a - y_b|^2 for every pair of rows, as `np.dot` of the difference.

    The differences are laid out row-contiguous like `evaluate`'s fresh
    `x - y`: a strided row would be summed in another order.
    """
    diff = np.ascontiguousarray(x[:, None, :] - y[None, :, :])
    return _dots(diff, diff)


# overflow shows up as non-finite cells, which are refused below
@np.errstate(over="ignore", invalid="ignore")
def cost_array(spec: CostSpec, spaces: list[Space]) -> np.ndarray:
    """Tabulate the cost over the full product grid of the given spaces.

    Every builtin kind is computed in whole-array passes over pairwise
    blocks, never cell by cell.  `evaluate` is the pointwise definition and
    every grid equals it bit for bit, because each block is rounded as
    `evaluate`'s `np.dot` and the blocks are added in its order.  A
    mongeQuadratic grid at the 200 000-cell cap (N=3, n=58) takes about
    3 ms on 2 CPUs (3.2 s with one `evaluate` call per cell).
    Arity and point-dimension errors are raised before any arithmetic; a
    grid with a non-finite cell raises NonFiniteCost.
    """
    shape = tuple(s.size for s in spaces)
    if spec.kind == "tensor":
        vals = np.asarray(spec.params["values"], dtype=float)
        if vals.shape != shape:
            raise DimensionMismatch(f"tensor of shape {vals.shape}, grid is {shape}")
        return vals.copy()
    shapes = {s.points.shape[1:] for s in spaces}
    if len(shapes) != 1:
        raise DimensionMismatch(f"point dimensions differ: {sorted(shapes)}")
    if spec.kind in ("surplus", "gangboSwiech", "attractive", "repulsive"):
        # one block per pair, added in pair order: inner products (a BLAS
        # Gram product rounds some cells differently), or squared distances
        # of differences (|x|^2 + |y|^2 - 2<x, y> cancels far from the
        # origin), halved and signed at the end as in evaluate
        sqdist = spec.kind in ("attractive", "repulsive")
        out = np.zeros(shape)
        n = len(spaces)
        for i in range(n):
            for j in range(i + 1, n):
                x, y = spaces[i].points, spaces[j].points
                dims = [None] * n
                dims[i] = slice(None)
                dims[j] = slice(None)
                block = _sqdists(x, y) if sqdist else _dots(x[:, None], y[None, :])
                out += block[tuple(dims)]
        if spec.kind == "attractive":
            out *= 0.5
        elif spec.kind == "repulsive":
            out *= -0.5
    elif spec.kind == "mongeQuadratic":
        if len(spaces) != 3:
            raise DimensionMismatch("mongeQuadratic is a three-marginal cost")
        x, y, z = (s.points for s in spaces)
        # |x - y| + |x - z|^2 + |y - z|^2, summed left to right as in evaluate
        out = (np.sqrt(_sqdists(x, y))[:, :, None] + _sqdists(x, z)[:, None, :]
               + _sqdists(y, z)[None, :, :])
    else:
        if len(spaces) != 2:
            raise DimensionMismatch("gromovWasserstein is a two-marginal cost")
        x, y = (s.points for s in spaces)
        A = np.asarray(spec.params["A"], dtype=float)
        xi = float(spec.params["xi"])
        ax = (A @ x[:, :, None])[:, :, 0]
        # |x|^2 |y|^2 + xi <Ax, y>, in evaluate's order
        out = (_dots(x, x)[:, None] * _dots(y, y)[None, :]
               + xi * _dots(ax[:, None, :], y[None, :, :]))
    if not np.isfinite(out).all():
        raise NonFiniteCost("cost grid contains non-finite values")
    return out


@dataclass(frozen=True)
class ConjugateTable:
    """Sampled convex function with exact discrete Legendre transform.

    The conjugate u*(s) = max_t <s, t> - u(t) over the stored samples is a max
    of affine forms, hence convex; Fenchel-Young u(t) + u*(s) >= <t, s> holds
    on all pairs with equality at the argmax sample.
    """

    samples: np.ndarray  # (m, d)
    values: np.ndarray   # (m,)

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.samples, dtype=float))
        v = np.asarray(self.values, dtype=float)
        if s.shape[0] == 0:
            raise EmptyTable("conjugate table needs at least one sample")
        if v.shape != (s.shape[0],):
            raise InvariantViolation("one value per sample required")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "values", v)


def legendre_conjugate(table: ConjugateTable, s: np.ndarray) -> tuple[float, int]:
    """Exact conjugate value and argmax sample index (least index on ties)."""
    s = np.asarray(s, dtype=float)
    scores = table.samples @ s - table.values
    idx = int(np.argmax(scores))
    return float(scores[idx]), idx


def conjugate_argmax_ties(table: ConjugateTable, s: np.ndarray) -> list[int]:
    """All sample indices within 1e-9 of the conjugate maximum."""
    s = np.asarray(s, dtype=float)
    scores = table.samples @ s - table.values
    best = scores.max()
    return [int(i) for i in np.flatnonzero(scores >= best - 1e-9)]


# ---------------------------------------------------------------------------
# transport maps for the pairwise inner-product cost
# ---------------------------------------------------------------------------
#
# For the maximization of sum_{i<j} <x_i, x_j> with dual potentials phi_k,
# folding every axis except {0, j} into
#
#     psi_j(t) = max over the complement grid of
#                ( <t, sum x_k> + cross terms - sum phi_k )
#
# gives the reduced pair cost <x_0, x_j> + psi_j(x_0 + x_j), which is what
# `reduction.reduce` tabulates on the pair (0, j).  The map onto
# axis j evaluates the conjugate of u_j(t) = |t|^2 / 2 + psi_j(t) at
# s = x_0 + Dphi_0(x_0), where Dphi_0 is the argmax selection over the
# active fiber; the image is the conjugate's argmax sample minus x_0.


def build_gs_conjugates(instance, pair_costs) -> dict[int, ConjugateTable]:
    """Conjugate tables of u_j(t) = |t|^2/2 + psi_j(t), one per axis j >= 1.

    pair_costs maps j to the reduced pair cost on (0, j), the table of
    `reduction.reduce(instance, potentials, (0, j))` (the cost itself when
    there are only two axes).  Samples are all pairwise sums x_0 + x_j over
    the two atom grids; the sums realized on any feasible support are
    therefore always present.  psi_j at the sample x_0a + x_jb is the pair
    cost at (a, b) minus <x_0a, x_jb>.
    """
    _require_surplus(instance)
    tables = {}
    p0 = instance.spaces[0].points
    for j, pair in sorted(pair_costs.items()):
        pj = instance.spaces[j].points
        samples = (p0[:, None, :] + pj[None, :, :]).reshape(-1, p0.shape[1])
        psi = (pair - p0 @ pj.T).reshape(-1)
        values = 0.5 * (samples**2).sum(1) + psi
        tables[j] = ConjugateTable(samples, values)
    return tables


def _require_surplus(instance):
    if instance.cost.kind not in ("surplus", "gangboSwiech") or instance.sense != "max":
        from .errors import NotSurplusCost

        raise NotSurplusCost(
            "transport-map extraction needs the maximized pairwise inner-product cost"
        )


def dual_gradient_selection(instance, potentials):
    """Discrete gradient of the first potential at every first-axis atom.

    Returns (gradients, tie flags): the argmax selection sum_{k>=1} x_k over
    the active fiber of the dual inequality, flagged when geometrically
    distinct selections tie within 1e-9.
    """
    _require_surplus(instance)
    grid = instance.cost_grid()
    n0 = instance.arities[0]
    comp_shape = instance.arities[1:]
    slack = grid.copy()
    for k in range(1, instance.n_axes):
        shape = [1] * instance.n_axes
        shape[k] = instance.arities[k]
        slack = slack - potentials.vectors[k].reshape(shape)
    grads = np.zeros((n0, instance.spaces[0].dim))
    tied = np.zeros(n0, dtype=bool)
    for a in range(n0):
        flat = slack[a].reshape(-1)
        best = flat.max()
        winners = np.flatnonzero(flat >= best - 1e-9)
        selections = []
        for w in winners:
            combo = np.unravel_index(w, comp_shape)
            s = np.sum(
                [instance.spaces[k + 1].points[i] for k, i in enumerate(combo)],
                axis=0,
            )
            selections.append(s)
        grads[a] = selections[0]
        for s in selections[1:]:
            if np.linalg.norm(s - selections[0]) > 1e-9:
                tied[a] = True
                break
    return grads, tied


def gangbo_swiech_maps(instance, potentials,
                       conjugates: dict[int, ConjugateTable],
                       plan=None):
    """Transport-map images T_j(x_0) from dual data, with a support report.

    conjugates is `build_gs_conjugates` of the same potentials' pair
    reductions.  For every first-axis atom the image under axis j is the
    conjugate argmax sample of u_j at x_0 + Dphi_0(x_0), minus x_0.  When a
    plan is supplied the images are compared against its support fibers;
    atoms with tied dual gradients or tied conjugate argmaxes are reported
    and excluded from the agreement fraction rather than silently resolved.
    """
    _require_surplus(instance)
    grads, dual_tied = dual_gradient_selection(instance, potentials)
    p0 = instance.spaces[0].points
    n0 = instance.arities[0]
    maps = {}
    tie_flags = dual_tied.copy()
    for j, table in sorted(conjugates.items()):
        images = np.zeros((n0, p0.shape[1]))
        for a in range(n0):
            s = p0[a] + grads[a]
            _, idx = legendre_conjugate(table, s)
            ties = conjugate_argmax_ties(table, s)
            if any(
                np.linalg.norm(table.samples[t] - table.samples[idx]) > 1e-9
                for t in ties
            ):
                tie_flags[a] = True
            images[a] = table.samples[idx] - p0[a]
        maps[j] = images

    report = {
        "tied_atoms": sorted(int(i) for i in np.flatnonzero(tie_flags)),
        "agreement_fraction": None,
        "agreement_fraction_all": None,
        "max_point_distance": None,
    }
    if plan is not None:
        fibers = plan.fibers(0)
        agree_untied = considered = agree_all = total = 0
        worst = 0.0
        for a in range(n0):
            if a not in fibers:
                continue
            dists = []
            for j in sorted(maps):
                pts = instance.spaces[j].points
                fiber_pts = [pts[rest[j - 1]] for rest in fibers[a]]
                d = min(np.linalg.norm(maps[j][a] - q) for q in fiber_pts)
                dists.append(d)
            hit = max(dists) <= 1e-8
            total += 1
            agree_all += hit
            if not tie_flags[a]:
                considered += 1
                agree_untied += hit
                worst = max(worst, max(dists))
        report["agreement_fraction"] = agree_untied / considered if considered else 1.0
        report["agreement_fraction_all"] = agree_all / total if total else 1.0
        report["max_point_distance"] = worst
    return maps, report
