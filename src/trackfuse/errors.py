"""Exception types shared across the package."""

__all__ = [
    "TrackfuseError",
    "NotSymmetric",
    "NotPositiveDefinite",
    "NonPositiveDefiniteResult",
    "MeasurementSingular",
    "SingularInnovation",
    "ModeLikelihoodDegenerate",
    "QuadratureError",
    "ConfigError",
]


class TrackfuseError(Exception):
    """Base class for all package-specific errors."""


class NotSymmetric(TrackfuseError):
    """A covariance matrix is not symmetric within tolerance."""


class NotPositiveDefinite(TrackfuseError):
    """A covariance matrix is not positive definite (or is numerically singular)."""


class NonPositiveDefiniteResult(TrackfuseError):
    """An algebraic operation produced a covariance that is not positive definite.

    Raised by Gaussian division when the numerator's precision does not
    strictly exceed the denominator's.
    """


class MeasurementSingular(TrackfuseError):
    """A sensor model is evaluated at its singular point (zero range)."""


class SingularInnovation(TrackfuseError):
    """Innovation covariance in a filter update is singular."""


class ModeLikelihoodDegenerate(TrackfuseError):
    """All mode likelihoods in a multiple-model update are non-finite."""


class QuadratureError(TrackfuseError):
    """Grid quadrature failed to converge under refinement."""


class ConfigError(TrackfuseError):
    """A configuration file is malformed or inconsistent."""
