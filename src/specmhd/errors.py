"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Raised when a configuration file fails to parse or validate.

    The message lists every violated condition, one per line.
    """


class ResolutionError(ConfigError):
    """Requested truncation level does not fit under the dealiasing cutoff."""


class MassSolveError(RuntimeError):
    """A mass matrix was not finite or not positive definite."""


class NonlinearSolveError(RuntimeError):
    """The implicit-midpoint fixed-point iteration did not converge."""


class BlowUpError(RuntimeError):
    """Non-finite values or runaway norms were detected during integration."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class InvariantViolation(RuntimeError):
    """A runtime monitor (density bounds, clamp policy) tripped."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t
