"""Exception and warning types shared across the package, and the one check of every integer,
real, value array, point array, 2-vector and array size input; loading this module loads no
numpy."""

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


def array(x, name: str, ndim: int, dtype=float):
    """x as a finite array of rank ndim and dtype (None: complex for complex numbers, else
    float); DomainError naming `name` if it is not numbers, is complex where dtype is float,
    has another rank (the message gives its shape) or holds a NaN or infinite entry (the
    message gives the first one's index and value)."""
    import numpy as np
    try:
        a = np.asarray(x)
        a = a.astype(complex if a.dtype.kind == "c" or dtype is complex else float, copy=False)
    except (TypeError, ValueError, OverflowError):     # not numbers, ragged, or past the floats
        raise DomainError(f"{name} must be a number or an array of numbers, "
                          f"got {x!r:.80}") from None
    if dtype is float and a.dtype.kind == "c":
        raise DomainError(f"{name} must be real, got {x!r:.80}")
    if a.ndim != ndim:
        raise DomainError(f"{name} must be {ndim}-D, got shape {a.shape}")
    with np.errstate(all="ignore"):     # the sum is finite if every entry is
        total = a.sum()
    bad = () if np.isfinite(total) else np.argwhere(~np.isfinite(a))
    if len(bad):
        at = tuple(bad[0].tolist())
        raise DomainError(f"{name} must be finite, got {a[at]}"
                          + (f" at entry ({', '.join(map(str, at))})" if at else ""))
    return a


def points(x, name: str = "points"):
    """x as a finite (n, 2) float array; DomainError naming `name` otherwise."""
    p = array(x, name, 2)
    if p.shape[1] != 2:
        raise DomainError(f"{name} must be an (n, 2) array, got shape {p.shape}")
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
