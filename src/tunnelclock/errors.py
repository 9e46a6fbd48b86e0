"""Shared exception types: a DomainError, a NonConvergenceError or a warning."""


class DomainError(ValueError):
    """Input outside the documented validity envelope of an operation."""


class NonConvergenceError(RuntimeError):
    """An iterative scheme exhausted its budget above tolerance."""


class NumericalWarning(UserWarning):
    """Non-fatal numerical condition (ill-conditioning, marginal convergence)."""
