"""Exception types shared across the package."""

__all__ = [
    "TinqError",
    "ShapeError",
    "SchemaError",
    "InvalidReferencePower",
    "SubsetTooLarge",
    "EpsilonTooSmall",
    "Infeasible",
    "ImmediatelyInfeasible",
    "InfeasibleGdof",
    "InfeasibleOrEpsilonTooLarge",
    "EmptyPolytope",
    "ConvergenceFailure",
    "DivergenceDetected",
    "RegionTooTight",
    "DomainError",
]


class TinqError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(TinqError, ValueError):
    """Dimension mismatch between matrices/vectors."""


class SchemaError(TinqError, ValueError):
    """Network JSON does not match either accepted schema."""


class InvalidReferencePower(TinqError, ValueError):
    """Reference power P must be finite and exceed 1 for the log-P scale to exist."""


class SubsetTooLarge(TinqError, ValueError):
    """A call exceeds the user cap of a path whose work grows as 2^n or n!:
    the subset table, the exact search, the cyclic oracle or the
    permutation bound."""


class EpsilonTooSmall(TinqError, ValueError):
    """Auction epsilon so small that its bid cap exceeds the fixed ceiling."""


class Infeasible(TinqError):
    """Base class for infeasibility verdicts (CLI maps these to exit code 3)."""


class ImmediatelyInfeasible(Infeasible):
    """Some target d_j exceeds its direct strength alpha_jj."""


class InfeasibleGdof(Infeasible):
    """The target GDoF tuple lies outside the achievable region."""


class InfeasibleOrEpsilonTooLarge(Infeasible):
    """Auction bid cap hit with bidders still unassigned."""


class EmptyPolytope(Infeasible):
    """A subset's sum bound went negative, so its polytope has no points.

    Happens only outside the weak-interference regime (some cross strength
    above the direct strength it interferes with)."""


class ConvergenceFailure(TinqError, RuntimeError):
    """Iterative solver failed to converge; carries the last iterate."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class DivergenceDetected(TinqError, RuntimeError):
    """Dual residual grew for too many consecutive steps."""


class RegionTooTight(TinqError, RuntimeError):
    """Receiver placement kept falling outside the area."""


class DomainError(TinqError, ValueError):
    """Argument outside the mathematical domain of the formula."""
