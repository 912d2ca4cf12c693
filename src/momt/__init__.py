"""Exact discrete multi-marginal optimal transport with structure certificates.

The package solves N-marginal transport linear programs exactly, builds
reduced lower-marginal problems from dual potentials, reconstructs full
plans by disintegration and gluing, and certifies support structure:
cyclical monotonicity, extremality of minimizing sets, vertex and
uniqueness tests, two-map assemblies.
"""

from .costs import ConjugateTable, CostSpec, evaluate, legendre_conjugate
from .instance import DiscreteInstance
from .lp import (
    MinimizingSet,
    Potentials,
    SolveResult,
    UniquenessCertificate,
    is_vertex,
    minimizing_set,
    oracle_enumerate,
    solve,
    uniqueness_certificate,
)
from .measure import (
    Coupling,
    DiscreteMeasure,
    Disintegration,
    Space,
    disintegrate,
    glue,
    pushforward,
    recombine,
)
from .reduction import (
    IndexSubset,
    ReducedProblem,
    reconstruct_from_pair_reductions,
    reduce,
    reduce_chain,
    solve_pair_reductions,
    verify_reduction_optimality,
)
from .scenarios import NormalField, ScenarioConfig, run_scenario
from .twomap import (
    TwoMapAssembly,
    assemble_three_marginal,
    extreme_assemblies,
    lij_window,
    unique_condition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
