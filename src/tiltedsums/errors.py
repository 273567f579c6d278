"""Semantic exception hierarchy shared across the toolkit."""


class TiltedSumsError(Exception):
    """Base class for all toolkit errors."""


class OutOfDomainError(TiltedSumsError, ValueError):
    """A tilt parameter lies outside the interior of the cgf domain, or a
    target mean lies outside the interior of the convex support hull."""


class DegenerateCovarianceError(TiltedSumsError, ValueError):
    """A covariance matrix is numerically singular (smallest eigenvalue below
    1e-12 times the largest)."""


class UnsupportedFamilyError(TiltedSumsError, ValueError):
    """The requested operation has no closed form / envelope for this family."""


class ConditioningError(TiltedSumsError, RuntimeError):
    """A Newton system is too ill-conditioned to solve reliably."""


class UndefinedConditionalError(TiltedSumsError, ValueError):
    """The conditioning event has zero density, so no conditional density exists."""


class ConfigError(TiltedSumsError, ValueError):
    """An experiment configuration is malformed or inconsistent."""


class NonConvergenceError(TiltedSumsError, RuntimeError):
    """The damped Newton iteration for the tilting equation did not converge."""
