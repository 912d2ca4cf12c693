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

import functools
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
from .measure import Coupling, glue, pushforward
from .tolerances import DUAL_FEAS_TOL, GAP_TOL, cost_scaled


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
    complement multi-index, recorded as the argmin witness.  The potentials
    must be dual feasible within the tolerance `solve` guarantees.
    """
    if not isinstance(subset, IndexSubset):
        subset = IndexSubset(tuple(subset), instance.n_axes)
    subset.require_reducible()
    cost = instance.cost_grid()
    viol = potentials.feasibility_violation(cost)
    if not viol <= cost_scaled(DUAL_FEAS_TOL, cost):
        raise InfeasiblePotentials(f"dual feasibility violated by {viol:.3e}")

    comp = subset.complement
    grid = cost.copy()
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
    problem: ReducedProblem


def verify_reduction_optimality(instance: DiscreteInstance, plan: Coupling,
                                potentials: Potentials, subset) -> ReductionReport:
    """Check that the plan's restriction attains the reduced optimum.

    The gap passes within GAP_TOL times the parent cost's span plus N ulps of
    its largest magnitude: a subset without axis 0 hides in its table the
    rounding of the constant that axis 0's potential carries.  The report
    keeps the reduced problem it solved.
    """
    red = reduce(instance, potentials, subset)
    reduced = solve(red.instance)
    pushed = pushforward(plan, red.subset.indices)
    table = red.reduced_cost
    pushed_value = float(
        sum(table[idx] * mass for idx, mass in pushed.entries.items())
    )
    gap = abs(pushed_value - reduced.value)
    return ReductionReport(red.subset.indices, reduced.value, pushed_value, gap,
                           gap <= cost_scaled(GAP_TOL, instance.cost_grid()), red)


def reduce_chain(instance: DiscreteInstance,
                 potentials: Potentials) -> list[ReducedProblem]:
    """Reduced problems for the prefixes {0..j-1}, j = 2..N-1.

    Verifies the nesting identity: each table equals the next one (or the
    full cost, at the end of the chain) with the following axis's potential
    subtracted and that axis optimized out, within 1e-10.
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
        if dev > 1e-10:
            raise InvariantViolation(
                f"nesting identity fails at prefix length {j}: deviation {dev:.3e}"
            )
    return chain


@dataclass
class PairReconstructionReport:
    j0: int
    feasible_dev: float
    value_gap: float
    tv_to_plan: float
    passed: bool
    hypothesis_unique: dict[int, bool]

    @property
    def hypothesis_holds(self) -> bool:
        return all(self.hypothesis_unique.values())


def solve_pair_reductions(instance: DiscreteInstance, potentials: Potentials):
    """Reduce and solve the pair problems (0, j), j = 1..N-1, once each.

    Returns {j: (ReducedProblem, SolveResult)}, the input that
    `reconstruct_from_pair_reductions` assembles from.
    """
    pairs = {}
    for j in range(1, instance.n_axes):
        red = reduce(instance, potentials, (0, j))
        pairs[j] = (red, solve(red.instance))
    return pairs


def reconstruct_from_pair_reductions(instance: DiscreteInstance, pairs: dict,
                                     reference_plan: Coupling):
    """Rebuild the full plan by gluing the pair plans (0, 1), ..., (0, N-1).

    pairs is `solve_pair_reductions(instance, potentials)`.  Every pair plan
    but the last must be a graph over axis 0 (else NotAGraph names the first
    that is not), so the glued conditional at each axis-0 atom is a product
    of Dirac masses and the last pair plan's conditional.  The assembled
    plan is checked feasible and compared with reference_plan in value
    (within GAP_TOL times the cost's span plus N ulps of its largest
    magnitude) and in total variation.

    The reconstruction equals the full optimum only when every reduced pair
    problem is uniquely solved, so each one is checked (its solve's face LP
    found no second optimal vertex) and the per-axis outcomes are reported:
    a non-unique reduced face lets the reduced solver legitimately pick a
    vertex that is not the full plan's restriction.
    """
    n = instance.n_axes
    hypothesis: dict[int, bool] = {}
    for j, (red, sol) in sorted(pairs.items()):
        hypothesis[j] = sol.second_vertex is None
        if j < n - 1 and not sol.plan.is_graph():
            raise NotAGraph(j, next(x for x, fib in sol.plan.fibers(0).items()
                                    if len(fib) != 1))
    assembled = functools.reduce(glue, [pairs[j][1].plan for j in range(1, n)])

    feas_dev = max(
        float(np.abs(assembled.axis_marginal(k) - instance.measures[k].weights).max())
        for k in range(n)
    )
    grid = instance.cost_grid()
    value = float(sum(grid[idx] * m for idx, m in assembled.entries.items()))
    ref_value = float(sum(grid[idx] * m for idx, m in reference_plan.entries.items()))
    value_gap = abs(value - ref_value)
    report = PairReconstructionReport(
        j0=n - 1,
        feasible_dev=feas_dev,
        value_gap=value_gap,
        tv_to_plan=assembled.total_variation(reference_plan),
        passed=feas_dev <= 1e-10 and value_gap <= cost_scaled(GAP_TOL, grid),
        hypothesis_unique=hypothesis,
    )
    return assembled, report
