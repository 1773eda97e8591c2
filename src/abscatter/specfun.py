"""Bessel functions J_nu of real nonnegative order.

The angular-mode series for Aharonov-Bohm waves needs J_nu for fractional
orders nu = |l - alpha|, evaluated at arguments sqrt(lambda)*r.  Every value
comes from one ladder J_mu, J_mu+1, ..., J_mu+count-1 per argument batch, by one
method: a normalized backward (Miller) recurrence, seeded high above
max(order, x) and normalized at the fractional order nu0 = mu - floor(mu)
with sum_j (nu0+2j) Gamma(nu0+j)/j! * J_{nu0+2j}(x) = (x/2)^nu0.  Backward
recurrence for the minimal solution J is stable at every argument, small ones
included.  The sweep runs in preallocated buffers; its overflow scan runs only
when a scalar bound on the unnormalized values, grown by the recurrence at the
smallest argument, passes the rescale threshold.  Arguments below 1e-8 (0
included) take the leading power-series term (x/2)^nu / Gamma(nu+1), exact to
rounding there.

The scalar `bessel_j` is a one-point `bessel_j_ladder` call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["bessel_j", "bessel_j_ladder"]

# Largest argument accepted; accuracy is declared for x <= 500.
X_MAX = 1.0e4

# Below this argument the recurrence's per-step growth 2(mu+k)/x could pass the
# headroom above its rescale threshold; the leading term of the power series,
# with relative error x^2/(4(nu+1)) <= 2.5e-17, serves these arguments instead.
_TINY_X = 1.0e-8


def _miller_ladder(mu: float, skip: int, count: int, x: np.ndarray) -> np.ndarray:
    """J_{mu+k}(x) for k = skip..skip+count-1 by normalized backward recurrence.

    Vectorized over x (all entries must be > 0); mu must lie in [0, 1).  The
    start order sits far enough above max(order, x) that the seed's
    contamination by the dominant solution is below 1e-15.
    """
    n = x.size
    xmin, xmax = float(np.min(x)), float(np.max(x))
    top = skip + count - 1
    k_start = int(math.ceil(max(top, xmax) + 15.0 * xmax ** (1.0 / 3.0))) + 20
    if k_start % 2 == 1:
        k_start += 1

    # Normalization weights (mu + 2j) * Gamma(mu + j) / j! for order mu + 2j,
    # with Gamma(mu + j) / j! built by a cumulative product from Gamma(mu + 1).
    j = np.arange(1.0, k_start // 2 + 1)
    ratio = np.concatenate(([math.gamma(mu + 1.0)], (mu + j[1:] - 1.0) / j[1:]))
    wfac = np.concatenate(([math.gamma(mu + 1.0)], (mu + 2.0 * j) * np.cumprod(ratio)))

    out = np.zeros((count, n))
    jp = np.zeros(n)              # unnormalized J_{mu+k+1}
    jc = np.full(n, 1e-30)        # unnormalized J_{mu+k}
    jm = np.empty(n)
    ssum = np.zeros(n)
    # bounds on max|jc| and max|jp|: |jm| <= (2(mu+k)/xmin)|jc| + |jp|, padded
    # for rounding, so the scan below runs at every step where it can fire
    bound_c, bound_p = 1e-30, 0.0
    for k in range(k_start, -1, -1):
        if k % 2 == 0:
            np.multiply(jc, wfac[k // 2], out=jm)
            ssum += jm
        if skip <= k <= top:
            out[k - skip] = jc
        c = 2.0 * (mu + k)
        np.divide(c, x, out=jm)
        jm *= jc
        jm -= jp
        jp, jc, jm = jc, jm, jp
        bound_c, bound_p = (c / xmin * bound_c + bound_p) * (1.0 + 1e-14), bound_c
        if bound_c > 1e250:
            big = np.abs(jc) > 1e250
            if big.any():
                f = np.where(big, 1e-250, 1.0)
                jc *= f
                jp *= f
                ssum *= f
                out[:, big] *= 1e-250
            bound_c, bound_p = float(np.max(np.abs(jc))), float(np.max(np.abs(jp)))
    out *= (0.5 * x) ** mu / ssum
    return out


def _magnitude(k: int) -> str:
    """k in full below 1e9, else to three digits (k may exceed the float range)."""
    if k < 10**9:
        return str(k)
    d = len(str(k)) - 1
    return f"{k / 10**d:.2f}e{d}"


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x), nu >= 0, 0 <= x <= 1e4.

    Absolute error <= 1e-10 on nu in [0, 200], x in [0, 500].
    """
    return float(bessel_j_ladder(float(nu), 1, float(x))[0])


def bessel_j_ladder(mu: float, count: int, x) -> np.ndarray:
    """J_{mu+k}(x) for k = 0..count-1, vectorized over x.

    Returns shape (count,) for scalar x, else (count, len(x)).  One backward
    recurrence per argument batch, normalized at the fractional order
    mu - floor(mu) (no Gamma(mu + 1) overflow), costs about one order.
    """
    if not 0.0 <= mu < math.inf:
        raise DomainError(f"base order must be finite and >= 0, got {mu}")
    if count < 1:
        raise DomainError("count must be >= 1")
    scalar = np.isscalar(x) or getattr(x, "ndim", 1) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((xa >= 0.0) & (xa <= X_MAX)):
        raise DomainError(f"arguments must lie in [0, {X_MAX:g}]")
    tiny = xa < _TINY_X
    try:
        # tiny arguments ride along at max(x_max, 1); their columns are then
        # overwritten by the leading term x^nu * 2^-nu / Gamma(nu + 1) (x/2
        # would lose bits to underflow at subnormal x)
        k0 = math.floor(mu)
        out = _miller_ladder(mu - k0, k0, count, np.where(tiny, max(np.max(xa), 1.0), xa))
        if tiny.any():
            nu = mu + np.arange(count)
            scale = np.exp2(-nu) * np.exp([-math.lgamma(v + 1.0) for v in nu])
            out[:, tiny] = np.power(xa[tiny], nu[:, None]) * scale[:, None]
    except (MemoryError, ValueError, OverflowError) as exc:
        # ValueError/OverflowError: the shape overflows numpy's index type
        gib = 8 * (count * xa.size + (math.floor(mu) + count) // 2) >> 30
        raise DomainError(f"a ladder of {_magnitude(count)} orders at {xa.size} arguments "
                          f"needs {_magnitude(gib)} GiB and cannot be allocated") from exc
    return out[:, 0] if scalar else out
