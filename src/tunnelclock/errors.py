"""Shared exception types, each a DomainError or a NonConvergenceError."""


class DomainError(ValueError):
    """Input outside the documented validity envelope of an operation."""


class NonConvergenceError(RuntimeError):
    """An iterative scheme exhausted its budget above tolerance."""


class ContourCrossingError(DomainError):
    """A rotated integration ray would pass too close to a declared pole."""


class DegenerateDenominatorError(DomainError):
    """A weak-value denominator underflowed below the usable range."""


class CoverageError(DomainError):
    """A sampled wavefunction grid does not span the required support."""


class NumericalWarning(UserWarning):
    """Non-fatal numerical condition (ill-conditioning, marginal convergence)."""
