"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigurationError(ValueError):
    """A parameter set is internally inconsistent or violates a validity check."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (non-convergence, blow-up, bad system)."""

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic
