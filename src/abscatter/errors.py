"""Exception and warning types shared across the package, and the one check of every integer,
real, point array, 2-vector and array size input; loading this module loads no numpy."""

import math
import operator


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
    except (TypeError, ValueError, OverflowError):     # not numbers, ragged, or past the floats
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


def integer(value, name: str, low: int | None = None) -> int:
    """value as an int by operator.index (int() would truncate 2.5 to 2); DomainError naming
    `name` for a bool, any other value that is not an integer, and one below `low`."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:       # not an integer, or an array that is not one
        n = None
    if n is None:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if low is not None and n < low:
        raise DomainError(f"{name} must be >= {low}, got {n}")
    return n


def real(value, name: str) -> float:
    """float(value) if it is finite, else DomainError naming `name` (10**400 and "x" included)."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise DomainError(f"{name} must be a finite float, got {value!r}")
    return x


def allocatable(shape, what: str, dtype=float) -> None:
    """DomainError naming `what` unless an unwritten np.empty(shape, dtype) probe succeeds."""
    import numpy as np
    try:
        np.empty(shape, dtype)
    except (MemoryError, ValueError):   # ValueError: past numpy's largest array
        raise DomainError(f"{what} is more than can be allocated") from None
