"""Exception types shared across the package."""

from __future__ import annotations


class PhaselabError(Exception):
    """Base class for all package errors."""


class GridMismatchError(PhaselabError):
    """Operands live on different grids (or wrong array sizes)."""


class PotentialDomainError(PhaselabError):
    """Potential derivative requested outside the admitted open interval.

    Signals that the caller (typically a Newton loop) must clamp or reject
    the offending iterate.
    """


class NewtonDivergenceError(PhaselabError):
    """Newton iteration exhausted its budget; retry with a smaller step."""

    def __init__(self, message: str, iterations: int = 0, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class BoundsViolationError(PhaselabError):
    """A solve produced values at or beyond the pointwise guard band."""


class StepFloorError(PhaselabError):
    """Time step shrank to dt_min and the step still fails.

    Carries the partial trajectory recorded so far (flagged incomplete).
    """

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class SeparationFailureError(PhaselabError):
    """A converged stationary state touched the pure phases (solver bug signal)."""


class BoundViolationError(PhaselabError):
    """Measured bad-time measure exceeds its energy bound.

    Either the producing run violated the discrete energy inequality, or the
    initial energy is negative (the bound is vacuous for such data).
    """


class WindowOutOfRangeError(PhaselabError):
    """Requested time window is not covered by the recorded trajectory."""


class InsufficientSnapshotsError(PhaselabError):
    """Not enough stored snapshots to evaluate the requested quantity."""


class ConditionNotMetError(PhaselabError):
    """Smallness hypothesis of the geometric-convergence lemma fails (y0 > threshold)."""


class DegenerateWindowError(PhaselabError):
    """Too few usable samples to fit (fewer than the configured minimum)."""


class ParseError(PhaselabError):
    """Configuration file could not be parsed."""


class ValidationError(PhaselabError):
    """Configuration or specification violates a documented invariant."""
