"""Aharonov-Bohm distorted plane waves.

The wave for flux alpha, energy lam and incidence direction omega is the
angular-mode series

    psi^(s)(x) = sum_l exp(s*i*|l-alpha|*pi/2) * exp(i*l*gamma(x; s*omega))
                 * J_{|l-alpha|}(sqrt(lam)*|x|),        s = +1 or -1,

with gamma(x; w) the counterclockwise angle from w to x.  At alpha = 0 the
series collapses to the plane wave exp(i*sqrt(lam)*omega.x) (Jacobi-Anger);
for general alpha it solves the flux-only magnetic Schroedinger equation.

Truncating at |l| <= L is safe once L clears the Bessel transition region
nu ~ z + O(z^(1/3)), z = sqrt(lam)*|x|, beyond which J_nu(z) dies
super-exponentially; the policy L >= ceil(z + 10*z^(1/3)) + 12 + floor(|alpha|)
keeps the tail below 1e-13 (measured for z <= 600).

Each of the two Bessel ladders (orders l - alpha for l >= ceil(alpha), alpha - l
below) is summed by Horner's rule in i^s * exp(+-i*gamma), highest order
first, so the sum needs no (modes x points) phase matrix.  Points are summed
in consecutive batches of _CHUNK_POINTS, each over the full mode window, so
the ladders hold (modes x _CHUNK_POINTS) values and memory does not grow with
the number of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionError
from .io import as_complex, read_table, write_table
from .specfun import bessel_j_ladder

__all__ = [
    "ABWaveSpec",
    "azimuth",
    "eval_ab_wave",
    "eval_ab_wave_grid",
    "ab_wave_window",
    "asymptotic_decay_check",
    "DecayCheck",
    "pde_residual",
    "save_wave_csv",
    "load_wave_csv",
]

# Decay checks are only meaningful outside a cone around the excluded
# direction; |xhat + sign*omega| must exceed this.
DECAY_CONE_WIDTH = 0.5

# Points per batch of the mode sum; bounds the Bessel ladders' memory.
_CHUNK_POINTS = 8192


def _unit(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise DomainError(f"{name} must be a 2-vector")
    if not abs(float(v @ v) - 1.0) <= 1e-12:   # NaN fails too
        raise DomainError(f"{name} must be a unit vector, |{name}|^2 = {float(v @ v)!r}")
    return v


def _modes_needed(z: float, alpha: float) -> int:
    """Truncation L whose dropped Bessel tail at argument z is below 1e-13.

    The lowest dropped order is L + 1 - |alpha|, hence the floor(|alpha|) term.
    """
    return math.ceil(z + 10.0 * z ** (1.0 / 3.0)) + 12 + math.floor(abs(alpha))


@dataclass(frozen=True)
class ABWaveSpec:
    """Parameters of a truncated distorted plane wave.

    sign is +1 or -1 and selects the outgoing/incoming family; truncation L
    means the sum runs over angular modes l in [-L, L].
    """

    alpha: float
    lam: float
    omega: tuple[float, float]
    sign: int = 1
    truncation: int = 60

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise DomainError(f"flux must be finite, got {self.alpha}")
        if not 0.0 < self.lam < math.inf:
            raise DomainError(f"energy must be positive and finite, got {self.lam}")
        _unit(self.omega, "omega")
        if self.sign not in (-1, 1):
            raise DomainError(f"sign must be +1 or -1, got {self.sign}")
        if self.truncation < 1:
            raise DomainError("truncation must be >= 1")

    @classmethod
    def for_radius(cls, alpha, lam, omega, sign, r_max) -> "ABWaveSpec":
        """Spec whose truncation covers |x| <= r_max at the tail-bound policy."""
        if not (math.isfinite(alpha) and 0.0 < lam < math.inf and 0.0 <= r_max < math.inf):
            raise DomainError(f"flux must be finite, energy positive and finite and r_max "
                              f"finite and >= 0, got {alpha}, {lam} and {r_max}")
        trunc = _modes_needed(math.sqrt(lam) * r_max, alpha)
        return cls(alpha=alpha, lam=lam, omega=tuple(omega), sign=sign, truncation=trunc)


def azimuth(x, omega) -> float:
    """Counterclockwise angle from omega to x, in [0, 2*pi).  x must be nonzero."""
    x = np.asarray(x, dtype=float)
    omega = _unit(omega, "omega")
    if float(x @ x) == 0.0:
        raise DomainError("azimuth is undefined at x = 0")
    a = math.atan2(x[1], x[0]) - math.atan2(omega[1], omega[0])
    return a % (2.0 * math.pi)


def _azimuth_grid(points: np.ndarray, omega: np.ndarray) -> np.ndarray:
    a = np.arctan2(points[:, 1], points[:, 0]) - math.atan2(omega[1], omega[0])
    return np.mod(a, 2.0 * math.pi)


def _window_sum(spec: ABWaveSpec, points: np.ndarray, l_min: int, l_max: int) -> np.ndarray:
    """Series restricted to modes l in [l_min, l_max], in batches of _CHUNK_POINTS points."""
    psi = np.empty(points.shape[0], dtype=complex)
    for start in range(0, points.shape[0], _CHUNK_POINTS):
        batch = slice(start, start + _CHUNK_POINTS)
        psi[batch] = _batch_sum(spec, points[batch], l_min, l_max)
    return psi


def _batch_sum(spec: ABWaveSpec, points: np.ndarray, l_min: int, l_max: int) -> np.ndarray:
    """_window_sum on one batch of points."""
    omega_eff = spec.sign * np.asarray(spec.omega, dtype=float)
    gam = _azimuth_grid(points, omega_eff)
    z = math.sqrt(spec.lam) * np.hypot(points[:, 0], points[:, 1])
    ca = math.ceil(spec.alpha)
    psi = np.zeros(points.shape[0], dtype=complex)
    # modes from `first` in direction `step` have orders step*(l - alpha) = mu + k;
    # the longer ladder goes first, so one too long to allocate fails before any
    # phase first * gam is formed (it overflows once |alpha| nears the float
    # maximum); psi, a sum of two terms, is the same in either order
    windows = ((max(l_min, ca), l_max, 1), (min(l_max, ca - 1), l_min, -1))
    ladders = sorted(((step * (last - first) + 1, first, step) for first, last, step in windows),
                     reverse=True)
    for count, first, step in ladders:
        if count < 1:
            continue
        mu = step * (first - spec.alpha)
        # sum_k (i*s)^k exp(i*step*k*gamma) J_{mu+k}, highest order first
        w = 1j * spec.sign * np.exp(1j * step * gam)
        acc = np.zeros_like(psi)
        for row in bessel_j_ladder(mu, count, z)[::-1]:
            acc *= w
            acc += row
        del row   # a view that would keep this ladder alive while the next is built
        acc *= np.exp(1j * (spec.sign * mu * (math.pi / 2.0) + first * gam))
        psi += acc
    return psi


def ab_wave_window(spec: ABWaveSpec, x, l_min: int, l_max: int) -> complex:
    """Partial series over an explicit mode window (no truncation policy check)."""
    if l_min > l_max:
        raise DomainError("empty mode window")
    pts = np.asarray(x, dtype=float).reshape(1, 2)
    return complex(_window_sum(spec, pts, l_min, l_max)[0])


def eval_ab_wave_grid(spec: ABWaveSpec, points) -> np.ndarray:
    """Wave values at an (n, 2) array of points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != 2:
        raise DomainError("points must have shape (n, 2)")
    r_top = float(np.max(np.hypot(points[:, 0], points[:, 1]), initial=0.0))
    needed = _modes_needed(math.sqrt(spec.lam) * max(r_top - 1e-12, 0.0), spec.alpha)
    if needed > spec.truncation:
        raise PrecisionError(f"truncation {spec.truncation} does not certify |x| = {r_top:.3f}, "
                             f"which needs {needed} modes")
    return _window_sum(spec, points, -spec.truncation, spec.truncation)


def eval_ab_wave(spec: ABWaveSpec, x) -> complex:
    """Wave value at a single point."""
    pts = np.asarray(x, dtype=float).reshape(1, 2)
    return complex(eval_ab_wave_grid(spec, pts)[0])


@dataclass(frozen=True)
class DecayCheck:
    """Result of comparing the wave against its two-term far-field form."""

    slope: float | None
    residuals: np.ndarray
    radii: np.ndarray
    coefficient: complex
    exact: bool


def _geometric_term(spec: ABWaveSpec, points: np.ndarray) -> np.ndarray:
    omega = np.asarray(spec.omega, dtype=float)
    gam = _azimuth_grid(points, -spec.sign * omega)
    plane = np.exp(1j * math.sqrt(spec.lam) * (points @ omega))
    return np.exp(1j * spec.alpha * (gam - math.pi)) * plane


def asymptotic_decay_check(spec: ABWaveSpec, direction, radii) -> DecayCheck:
    """Fit the decay rate of the remainder after the far-field leading terms.

    The wave minus exp(i*alpha*(gamma(x; -s*omega) - pi)) * plane wave leaves
    a circular wave c0 * exp(-s*i*sqrt(lam)*r) / sqrt(r) plus lower order;
    c0 is fitted at the largest radius, and the least-squares slope of
    log(remainder) vs log(r) over the other radii is returned.  If every
    remainder is already below 1e-8 (zero-flux case) the expansion is exact
    to working precision and no slope is fitted.
    """
    xhat = _unit(direction, "direction")
    omega = np.asarray(spec.omega, dtype=float)
    if float(np.hypot(*(xhat + spec.sign * omega))) <= DECAY_CONE_WIDTH:
        raise DomainError(
            "direction lies in the excluded cone: |xhat + sign*omega| must exceed "
            f"{DECAY_CONE_WIDTH}"
        )
    radii = np.asarray(radii, dtype=float)
    if radii.size < 3 or np.any(np.diff(radii) <= 0.0):
        raise DomainError("radii must be ascending with at least 3 entries")
    if radii[0] < 20.0:
        raise DomainError("decay fit needs radii >= 20")

    points = radii[:, None] * xhat[None, :]
    psi = eval_ab_wave_grid(spec, points)
    geo = _geometric_term(spec, points)
    wave_phase = np.exp(-1j * spec.sign * math.sqrt(spec.lam) * radii) / np.sqrt(radii)

    r_top = radii[-1]
    c0 = (psi[-1] - geo[-1]) / wave_phase[-1]
    residuals = np.abs(psi - geo - c0 * wave_phase)

    if float(np.max(residuals)) < 1e-8:
        return DecayCheck(slope=None, residuals=residuals, radii=radii,
                          coefficient=complex(c0), exact=True)

    keep = (radii < r_top) & (residuals > 1e-13)
    if int(np.count_nonzero(keep)) < 2:
        raise PrecisionError("not enough usable radii below the fit anchor")
    slope = float(np.polyfit(np.log(radii[keep]), np.log(residuals[keep]), 1)[0])
    return DecayCheck(slope=slope, residuals=residuals, radii=radii,
                      coefficient=complex(c0), exact=False)


def pde_residual(spec: ABWaveSpec, points, h: float) -> np.ndarray:
    """|((-i*grad - A0)^2 - lam) psi| by second-order central differences.

    A0 = alpha*(-x2, x1)/|x|^2 is divergence free, so the operator reduces to
    -Lap(psi) + 2i*A0.grad(psi) + |A0|^2 psi - lam*psi.  Points must stay off
    the origin by a few h.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    r2 = points[:, 0] ** 2 + points[:, 1] ** 2
    if float(np.min(r2)) < (4.0 * h) ** 2:
        raise DomainError("stencil too close to the flux line at the origin")
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    stencil = np.concatenate([points, points + e1, points - e1, points + e2, points - e2])
    vals = eval_ab_wave_grid(spec, stencil)
    n = points.shape[0]
    psi0, psi_xp, psi_xm, psi_yp, psi_ym = (vals[i * n:(i + 1) * n] for i in range(5))
    lap = (psi_xp + psi_xm + psi_yp + psi_ym - 4.0 * psi0) / (h * h)
    gx = (psi_xp - psi_xm) / (2.0 * h)
    gy = (psi_yp - psi_ym) / (2.0 * h)
    a1 = spec.alpha * (-points[:, 1]) / r2
    a2 = spec.alpha * points[:, 0] / r2
    a_sq = a1 * a1 + a2 * a2
    res = -lap + 2.0j * (a1 * gx + a2 * gy) + a_sq * psi0 - spec.lam * psi0
    return np.abs(res)


def save_wave_csv(path, points, values) -> None:
    """Grid dump with columns x1,x2,re,im."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values, dtype=complex)
    write_table(path, "x1,x2,re,im", [points[:, 0], points[:, 1], values.real, values.imag])


def load_wave_csv(path):
    """Inverse of save_wave_csv; returns (points, values)."""
    _, _, data = read_table(path, ("x1,x2,re,im",))
    return data[:, :2].copy(), as_complex(data[:, 2:])
