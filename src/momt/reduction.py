"""Reduced lower-marginal problems built from dual potentials.

For an ordered proper subset P of axes with complement Q, the reduced cost
tabulates

    c_P(x_P) = min over the Q grid of ( c(x) - sum_{k in Q} phi_k(x_k) )

(with max replacing min for maximization instances).  The chain inequality
sum_P phi <= c_P <= c - sum_Q phi makes the restricted potentials dual
feasible for the reduced problem, and the pushforward of any optimal plan
attains the reduced optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostSpec
from .errors import (
    EmptySubset,
    IndexOutOfRange,
    InfeasiblePotentials,
    InvariantViolation,
    NotAGraph,
    SubsetNotProper,
    SubsetTooSmall,
)
from .instance import DiscreteInstance
from .lp import Potentials, solve
from .measure import (
    Coupling,
    Disintegration,
    assemble_product_conditional,
    disintegrate,
    pushforward,
)
from .tolerances import DUAL_FEAS_TOL, GAP_TOL


@dataclass(frozen=True)
class IndexSubset:
    """Strictly increasing 0-based axis subset with its sorted complement."""

    indices: tuple[int, ...]
    n_axes: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if not idx:
            raise EmptySubset("empty axis subset")
        if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
            raise IndexOutOfRange(f"subset {idx} is not strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.n_axes:
            raise IndexOutOfRange(f"subset {idx} outside 0..{self.n_axes - 1}")
        object.__setattr__(self, "indices", idx)

    @property
    def complement(self) -> tuple[int, ...]:
        return tuple(a for a in range(self.n_axes) if a not in self.indices)

    def require_reducible(self):
        if len(self.indices) < 2:
            raise SubsetTooSmall("reduced problems need at least two axes")
        if not self.complement:
            raise SubsetNotProper("reduced problems need a proper subset")


@dataclass
class ReducedProblem:
    subset: IndexSubset
    instance: DiscreteInstance          # tensor-cost instance over the P axes
    inherited: Potentials               # the phi_k for k in P, dual feasible here
    argmin_witness: np.ndarray          # per P-entry minimizing complement multi-index

    @property
    def reduced_cost(self) -> np.ndarray:
        return self.instance.cost_grid()


def reduce(instance: DiscreteInstance, potentials: Potentials,
           subset) -> ReducedProblem:
    """Tabulate the reduced cost on a proper subset of at least two axes.

    Ties in the complement optimum break to the lexicographically smallest
    complement multi-index, recorded as the argmin witness.
    """
    if not isinstance(subset, IndexSubset):
        subset = IndexSubset(tuple(subset), instance.n_axes)
    subset.require_reducible()
    viol = potentials.feasibility_violation(instance.cost_grid())
    if viol > DUAL_FEAS_TOL:
        raise InfeasiblePotentials(f"dual feasibility violated by {viol:.3e}")

    comp = subset.complement
    grid = instance.cost_grid().copy()
    for k in comp:
        shape = [1] * instance.n_axes
        shape[k] = instance.arities[k]
        grid = grid - potentials.vectors[k].reshape(shape)
    # bring P axes first, flatten the complement, reduce over it
    order = subset.indices + comp
    moved = np.transpose(grid, order)
    p_shape = tuple(instance.arities[a] for a in subset.indices)
    comp_shape = tuple(instance.arities[a] for a in comp)
    flat = moved.reshape(p_shape + (-1,))
    if instance.sense == "max":
        table = flat.max(axis=-1)
        witness_flat = flat.argmax(axis=-1)
    else:
        table = flat.min(axis=-1)
        witness_flat = flat.argmin(axis=-1)
    witness = np.stack(np.unravel_index(witness_flat, comp_shape), axis=-1)

    red_instance = DiscreteInstance(
        [instance.spaces[a] for a in subset.indices],
        [instance.measures[a] for a in subset.indices],
        CostSpec("tensor", instance.sense, {"values": table}),
    )
    inherited = Potentials(
        [potentials.vectors[a].copy() for a in subset.indices], instance.sense
    )
    return ReducedProblem(subset, red_instance, inherited, witness)


@dataclass
class ReductionReport:
    subset: tuple[int, ...]
    reduced_optimum: float
    pushforward_value: float
    gap: float
    passed: bool


def verify_reduction_optimality(instance: DiscreteInstance, plan: Coupling,
                                potentials: Potentials, subset,
                                tol: float = GAP_TOL) -> ReductionReport:
    """Check that the plan's restriction attains the reduced optimum."""
    red = reduce(instance, potentials, subset)
    reduced = solve(red.instance)
    pushed = pushforward(plan, red.subset.indices)
    table = red.reduced_cost
    pushed_value = float(
        sum(table[idx] * mass for idx, mass in pushed.entries.items())
    )
    gap = abs(pushed_value - reduced.value)
    return ReductionReport(red.subset.indices, reduced.value, pushed_value, gap,
                           gap <= tol)


def reduce_chain(instance: DiscreteInstance, potentials: Potentials,
                 nesting_tol: float = 1e-10) -> list[ReducedProblem]:
    """Reduced problems for the prefixes {0..j-1}, j = 2..N-1.

    Verifies the nesting identity: each table equals the next one (or the
    full cost, at the end of the chain) with the following axis's potential
    subtracted and that axis optimized out.
    """
    chain = [reduce(instance, potentials, tuple(range(j)))
             for j in range(2, instance.n_axes)]
    for pos, red in enumerate(chain):
        j = len(red.subset.indices)
        nxt = (chain[pos + 1].reduced_cost if pos + 1 < len(chain)
               else instance.cost_grid())
        phi = potentials.vectors[j]
        shape = (1,) * j + (phi.size,) + (1,) * (nxt.ndim - j - 1)
        shifted = nxt - phi.reshape(shape)
        folded = shifted.max(axis=j) if instance.sense == "max" else shifted.min(axis=j)
        dev = float(np.abs(folded - red.reduced_cost).max())
        if dev > nesting_tol:
            raise InvariantViolation(
                f"nesting identity fails at prefix length {j}: deviation {dev:.3e}"
            )
    return chain


@dataclass
class PairReconstructionReport:
    j0: int
    graph_axes: list[int]
    feasible_dev: float
    value_gap: float
    tv_to_plan: float | None
    passed: bool
    hypothesis_unique: dict[int, bool] | None = None

    @property
    def hypothesis_holds(self) -> bool:
        return self.hypothesis_unique is not None and all(
            self.hypothesis_unique.values()
        )


def _graph_map(plan: Coupling, tol_fiber: float = 0.0) -> dict[int, tuple[int, ...]]:
    """Fiber map of a two-block coupling over axis 0; raises if multi-valued."""
    fibers = plan.fibers(0)
    mapping = {}
    for x, fib in fibers.items():
        if len(fib) != 1:
            raise NotAGraph(0, x)
        mapping[x] = next(iter(fib))
    return mapping


def reconstruct_from_pair_reductions(instance: DiscreteInstance, potentials: Potentials,
                      j0: int, reference_plan: Coupling | None = None,
                      tol: float = GAP_TOL, certify: bool = True):
    """Rebuild the full plan from two-marginal reductions against axis 0.

    Every axis j != j0 must reduce to a plan that is a graph over axis 0;
    the j0 reduction contributes the residual conditional.  The assembled
    plan is checked feasible and optimal for the instance.

    The reconstruction equals the full optimum only when every reduced pair
    problem is uniquely solved; with certify=True each reduced problem gets
    a uniqueness certificate and the per-axis outcomes are reported, since
    a non-unique reduced face lets the reduced solver legitimately pick a
    vertex that is not the full plan's restriction.
    """
    from .lp import uniqueness_certificate

    n = instance.n_axes
    if not 1 <= j0 < n:
        raise IndexOutOfRange(f"j0 must be in 1..{n - 1}")
    hypothesis: dict[int, bool] = {}
    maps: dict[int, dict[tuple[int, ...], tuple[int, ...]]] = {}
    for j in range(1, n):
        if j == j0:
            continue
        red = reduce(instance, potentials, (0, j))
        sol = solve(red.instance)
        if certify:
            cert = uniqueness_certificate(red.instance, sol)
            hypothesis[j] = cert.status == "unique"
        try:
            fiber_map = _graph_map(sol.plan)
        except NotAGraph as exc:
            raise NotAGraph(j, exc.atom) from exc
        maps[j] = {(x,): img for x, img in fiber_map.items()}

    red0 = reduce(instance, potentials, (0, j0))
    sol0 = solve(red0.instance)
    if certify:
        cert0 = uniqueness_certificate(red0.instance, sol0)
        hypothesis[j0] = cert0.status == "unique"
    residual_dis = disintegrate(sol0.plan, (0,), [instance.spaces[0],
                                                 instance.spaces[j0]])
    residual = Disintegration(
        conditioning=(0,),
        base=residual_dis.base,
        conditionals=residual_dis.conditionals,
        complement=(j0,),
    )
    base = residual_dis.base
    blocks = [((j,), maps[j]) for j in sorted(maps)]
    assembled = assemble_product_conditional(base, (0,), blocks, residual,
                                             instance.arities)

    feas_dev = max(
        float(np.abs(assembled.axis_marginal(k) - instance.measures[k].weights).max())
        for k in range(n)
    )
    grid = instance.cost_grid()
    value = float(sum(grid[idx] * m for idx, m in assembled.entries.items()))
    full = solve(instance) if reference_plan is None else None
    ref_value = full.value if full is not None else float(
        sum(grid[idx] * m for idx, m in reference_plan.entries.items())
    )
    value_gap = abs(value - ref_value)
    ref = reference_plan if reference_plan is not None else full.plan
    tv = assembled.total_variation(ref)
    report = PairReconstructionReport(
        j0=j0,
        graph_axes=sorted(maps),
        feasible_dev=feas_dev,
        value_gap=value_gap,
        tv_to_plan=tv,
        passed=feas_dev <= 1e-10 and value_gap <= tol,
        hypothesis_unique=hypothesis if certify else None,
    )
    return assembled, report
