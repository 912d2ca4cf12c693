"""Exception taxonomy shared across the package."""

from __future__ import annotations


class MomtError(Exception):
    """Base class for all package errors."""


class EmptySubset(MomtError):
    pass


class IndexOutOfRange(MomtError):
    pass


class SubsetTooSmall(MomtError):
    pass


class SubsetNotProper(MomtError):
    pass


class MarginalMismatch(MomtError):
    def __init__(self, axis, max_deviation, message=None):
        self.axis = axis
        self.max_deviation = max_deviation
        super().__init__(
            message
            or f"marginal mismatch on axis {axis}: max deviation {max_deviation:.3e}"
        )


class InstanceTooLarge(MomtError):
    pass


class NonFiniteCost(MomtError):
    pass


class InfeasiblePotentials(MomtError):
    pass


class NotAGraph(MomtError):
    def __init__(self, axis, atom=None):
        self.axis = axis
        self.atom = atom
        where = f" (first multi-valued fiber at atom {atom})" if atom is not None else ""
        super().__init__(f"reduced plan for axis {axis} is not a graph{where}")


class SingularMatrix(MomtError):
    pass


class ZeroXi(MomtError):
    pass


class NotSurplusCost(MomtError):
    pass


class EmptyTable(MomtError):
    pass


class OutOfRange(MomtError):
    pass


class InvariantViolation(MomtError):
    pass


class DimensionMismatch(MomtError):
    pass


class SolverError(MomtError):
    """Numerical failure inside the simplex (infeasible, unbounded, stalled)."""


class SchemaError(MomtError):
    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class UnknownScenario(MomtError):
    pass
