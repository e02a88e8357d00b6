"""Exception types shared across the toolkit."""


class NBodyError(Exception):
    """Base class for every toolkit error."""


class CollisionError(NBodyError):
    """Two bodies are closer than the collision floor."""


class DegenerateMassError(NBodyError):
    """Operation requires strictly positive masses."""


class SingularRhoError(NBodyError):
    """Shape parameter lies on the excluded singular set."""


class RankDeficiencyError(NBodyError):
    """A central-configuration linear system lost rank."""


class NoConvergenceError(NBodyError):
    """Newton iteration did not reach the residual target."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class AbsoluteEquilibriumError(NBodyError):
    """Multiplier is zero (or parameters sit on the zero-multiplier locus)."""


class InvalidKError(NBodyError):
    """Eigenvalue selection outside the family this operation supports."""


class EmptyFeasibleSetError(NBodyError):
    """No mass parameter yields all-nonnegative masses at this shape."""


class StepFailureError(NBodyError):
    """Adaptive step control underflowed, typically near a collision."""


class FloatRangeError(NBodyError):
    """A float evaluation overflowed the range of double precision."""


class SamplingStalledError(NBodyError):
    """Rejection sampling drew too few admissible points."""


class NonRealSpectrumWarning(UserWarning):
    """Signed masses produced a measurably complex spectrum."""
