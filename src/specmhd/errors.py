"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Raised when a configuration file fails to parse or validate.

    The message lists every violated condition, one per line.
    """


class ResolutionError(ConfigError):
    """Requested truncation level does not fit under the dealiasing cutoff."""


class SolverAbort(RuntimeError):
    """A run stopped before its final time.

    Raised out of :func:`specmhd.integrator.integrate`, ``trajectory`` is the
    run's :class:`~specmhd.integrator.TrajectorySummary` up to the abort: the
    steps completed (one whose state a monitor rejected included), the last
    of their states, and the solver work up to the failing stage.
    """

    trajectory = None


class MassSolveError(SolverAbort):
    """A mass system could not be solved.

    The dense path raises it for a Gram matrix that is not finite or not
    positive definite.  The matrix-free path raises it for a weight that is
    not positive and finite at some grid point, naming the point and the
    value, and for CG that reaches its iteration cap, naming the iteration
    count and the final relative residual.
    """


class NonlinearSolveError(SolverAbort):
    """The implicit-midpoint fixed-point iteration did not converge."""


class BlowUpError(SolverAbort):
    """Non-finite values or runaway norms were detected during integration."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class InvariantViolation(SolverAbort):
    """A runtime monitor (density bounds, clamp policy) tripped."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t
