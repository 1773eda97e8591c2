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
super-exponentially; the evaluators take L = ceil(z + 10*z^(1/3)) + 12 +
floor(|alpha|) with z at the farthest of their points, which keeps the tail
below 1e-13 (measured for z <= 600).  Points are finite (n, 2) arrays
(errors.points), and a z past the ladder's range specfun.X_MAX is refused.

Each of the two Bessel ladders (orders l - alpha for l >= ceil(alpha), alpha - l
below) is summed by Horner's rule in i^s * exp(+-i*gamma), highest order
first, so the sum needs no (modes x points) phase matrix.  Points are summed
in batches of _CHUNK_POINTS taken in order of radius, each over the full mode
window, so the ladders hold (modes x _CHUNK_POINTS) values and memory does not
grow with the number of points; each batch runs its ladders once per distinct
radius (a square grid repeats most radii eight times).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import DomainError
from .io import as_complex, read_table, write_table
from .specfun import X_MAX, bessel_j_ladder

__all__ = [
    "ABWaveSpec",
    "eval_ab_wave_grid",
    "ab_wave_window",
    "save_wave_csv",
    "load_wave_csv",
]

# Points per batch of the mode sum; bounds the Bessel ladders' memory.
_CHUNK_POINTS = 8192


def _unit(v, name: str) -> np.ndarray:
    v = errors.vector(v, name)
    n2 = sum(c * c for c in v.tolist())     # in Python floats an overflow is inf, and refused
    if not abs(n2 - 1.0) <= 1e-12:
        raise DomainError(f"{name} must be a unit vector, |{name}|^2 = {n2!r}")
    return v


def _wave_points(spec: "ABWaveSpec", points) -> tuple[np.ndarray, float]:
    """points as by errors.points, and z = sqrt(lam) * max|x|, their largest Bessel
    argument; DomainError for a z past specfun.X_MAX."""
    points = errors.points(points)
    with np.errstate(over="ignore"):    # an |x| that overflows is inf, and refused
        z = math.sqrt(spec.lam) * float(np.max(np.hypot(*points.T), initial=0.0))
    if not z <= X_MAX:
        raise DomainError(f"points too far out: sqrt(lam) * max|x| = {z:.6g} exceeds {X_MAX:g}")
    return points, z


def _modes_needed(z: float, alpha: float) -> int:
    """Truncation L whose dropped Bessel tail at argument z is below 1e-13.

    The lowest dropped order is L + 1 - |alpha|, hence the floor(|alpha|) term.
    """
    return math.ceil(z + 10.0 * z ** (1.0 / 3.0)) + 12 + math.floor(abs(alpha))


@dataclass(frozen=True)
class ABWaveSpec:
    """Parameters of a distorted plane wave.

    sign is +1 or -1 and selects the outgoing/incoming family.
    """

    alpha: float
    lam: float
    omega: tuple[float, float]
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "alpha", errors.real(self.alpha, "flux alpha"))
        object.__setattr__(self, "lam", errors.real(self.lam, "energy lam"))
        object.__setattr__(self, "sign", errors.integer(self.sign, "sign"))
        if self.lam <= 0.0:
            raise DomainError(f"energy lam must be positive, got {self.lam}")
        _unit(self.omega, "omega")
        if self.sign not in (-1, 1):
            raise DomainError(f"sign must be +1 or -1, got {self.sign}")


def _batch_sum(spec: ABWaveSpec, points: np.ndarray, l_min: int, l_max: int) -> np.ndarray:
    """ab_wave_window on one batch of points."""
    omega = spec.sign * np.asarray(spec.omega, dtype=float)   # gamma(x; s*omega), in [0, 2*pi)
    gam = np.mod(np.arctan2(points[:, 1], points[:, 0]) - math.atan2(omega[1], omega[0]),
                 2.0 * math.pi)
    # one ladder column per distinct argument, gathered back per point
    z, at = np.unique(math.sqrt(spec.lam) * np.hypot(*points.T), return_inverse=True)
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
            acc += row[at]
        del row   # a view that would keep this ladder alive while the next is built
        if not math.isfinite(2.0 * math.pi * first):    # the phase first * gam, gam < 2*pi
            raise DomainError(f"mode {float(first):.3g} is too large for a finite phase l * gamma")
        acc *= np.exp(1j * (spec.sign * mu * (math.pi / 2.0) + first * gam))
        psi += acc
    return psi


def ab_wave_window(spec: ABWaveSpec, points, l_min: int, l_max: int) -> np.ndarray:
    """Series restricted to modes l in [l_min, l_max] at an (n, 2) array of points, in
    batches of _CHUNK_POINTS points."""
    l_min, l_max = errors.integer(l_min, "l_min"), errors.integer(l_max, "l_max")
    if l_min > l_max:
        raise DomainError(f"empty mode window: l_min = {l_min} > l_max = {l_max}")
    points = _wave_points(spec, points)[0]
    psi = np.empty(points.shape[0], dtype=complex)
    order = np.argsort(np.hypot(points[:, 0], points[:, 1]), kind="stable")
    for start in range(0, points.shape[0], _CHUNK_POINTS):
        batch = order[start:start + _CHUNK_POINTS]
        psi[batch] = _batch_sum(spec, points[batch], l_min, l_max)
    return psi


def eval_ab_wave_grid(spec: ABWaveSpec, points) -> np.ndarray:
    """Wave values at an (n, 2) array of points, on the modes [-L, L] of the farthest one."""
    points, z = _wave_points(spec, points)
    trunc = _modes_needed(z, spec.alpha)
    return ab_wave_window(spec, points, -trunc, trunc)


def save_wave_csv(path, points, values) -> None:
    """Grid dump with columns x1,x2,re,im."""
    points = errors.points(points)
    values = errors.array(values, "wave values", 1, complex)
    write_table(path, "x1,x2,re,im", [points[:, 0], points[:, 1], values.real, values.imag])


def load_wave_csv(path):
    """Inverse of save_wave_csv; returns (points, values)."""
    _, _, data = read_table(path, ("x1,x2,re,im",))
    return data[:, :2].copy(), as_complex(data[:, 2:])
