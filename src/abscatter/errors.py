"""Exception and warning types shared across the package, and the checks of every
point array and 2-vector input; loading this module loads no numpy."""


class AbScatterError(Exception):
    """Base class for all abscatter errors."""


class DomainError(AbScatterError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class ResolutionError(AbScatterError):
    """A sampled object is too coarse for the requested operation."""


class DataInconsistencyError(AbScatterError):
    """Data that should encode a single discrete invariant disagrees internally."""


class IntegerFluxError(AbScatterError):
    """The scattering data is degenerate: flux is an integer and cannot be pinned down."""


class TooSingularError(AbScatterError):
    """A kernel perturbation is too singular for the strip-integral estimator."""


class SchemaError(AbScatterError, ValueError):
    """A configuration file or CLI argument violates the declared schema."""


class FluxConvergenceWarning(UserWarning):
    """Circulation values over the supplied radii have not settled."""


class UndersampledSinogramWarning(UserWarning):
    """Sinogram resolution is low for the requested reconstruction grid."""


def points(x, name: str = "points"):
    """x as a finite (n, 2) float array; DomainError naming `name` otherwise."""
    import numpy as np
    try:
        p = np.asarray(x, dtype=float)
    except (TypeError, ValueError):     # not numbers, or ragged
        raise DomainError(f"{name} must be an (n, 2) array of numbers, got {x!r:.80}") from None
    if p.ndim != 2 or p.shape[1] != 2:
        raise DomainError(f"{name} must be an (n, 2) array, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise DomainError(f"{name} must be finite")
    return p


def vector(v, name: str):
    """v as a finite float 2-vector; DomainError naming `name` otherwise."""
    try:
        return points([v], name)[0]
    except DomainError:
        raise DomainError(f"{name} must be a finite 2-vector, got {v!r}") from None
