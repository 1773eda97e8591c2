"""Flux recovery from scattering data and gauge-equivalence detection.

Two independent readings of the flux live in the kernel data:

* mode side: the partial-wave eigenvalues take exactly two values, flipping
  from exp(-i*pi*alpha) to exp(+i*pi*alpha) at m = ceil(alpha); the flip
  index pins the integer part and the limit phase pins alpha mod 2, which
  together determine alpha exactly (integer flux is degenerate: everything
  collapses to one eigenvalue);
* singularity side: -Re of the strip integral over eps < theta-theta' < 2*eps
  tends to (b-a)*sin(pi*alpha)*log(2)/pi, so Richardson extrapolation over
  shrinking eps estimates sin(pi*alpha) even under smooth (or mildly
  singular, |.| <= C*|tau|^-delta with delta < 1) kernel perturbations.

The strip estimate alone leaves the reflection frac <-> 1-frac open; only
mode phases resolve it.  detect_conjugation searches the integer winding
that maps one kernel onto another under
S'(theta,theta') = exp(i*n*theta) S(theta,theta') exp(-i*n*(theta'+pi)).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataInconsistencyError, DomainError, IntegerFluxError, TooSingularError
from .smatrix import (
    KernelGrid,
    PartialWaveSMatrix,
    StripDomain,
    _mode_values,
    _strip_integral,
    strip_integral,
)

__all__ = [
    "FluxEstimate",
    "ConjugationReport",
    "FluxVerdict",
    "recover_flux_from_modes",
    "recover_flux_from_strip",
    "detect_conjugation",
    "default_strips",
    "recover_flux",
    "verdict_to_json",
]

# eigenvalue clustering threshold below which flux is declared integral
_DEGENERATE_TOL = 1e-6

# rows per block of the winding search, which bounds its temporaries
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class FluxEstimate:
    """Recovered flux components; unavailable parts are None."""

    sin_pi_alpha: float | None
    ceil_alpha: int | None
    alpha: float | None
    residual: float


@dataclass(frozen=True)
class ConjugationReport:
    """Best integer winding relating two kernels, with its residual."""

    n: int
    residual: float
    equivalent: bool


def _mode_eigenvalues(s, m_max: int | None) -> tuple[np.ndarray, int]:
    if m_max is not None and m_max < 1:
        raise DomainError("mode window is empty: m_max must be >= 1")
    if isinstance(s, PartialWaveSMatrix):
        m = s.m_max if m_max is None else min(m_max, s.m_max)
        mid = s.m_max
        return s.eigenvalues[mid - m:mid + m + 1], m
    if isinstance(s, KernelGrid):
        m = 8 if m_max is None else m_max
        return _mode_values(s, np.arange(-m, m + 1)), m
    raise DomainError("expected a PartialWaveSMatrix or KernelGrid")


def recover_flux_from_modes(s, m_max: int | None = None) -> FluxEstimate:
    """Exact flux from the eigenvalue flip index and the limiting phase.

    Works on clean partial-wave data (1e-9 round trips) and on kernel grids
    (eigenvalues first extracted by quadrature).  Raises IntegerFluxError
    when all eigenvalues coincide: integer flux, like a flip ceil(alpha)
    outside [-m_max, m_max], leaves the flux undetermined by this data.
    """
    eig, m = _mode_eigenvalues(s, m_max)
    modes = np.arange(-m, m + 1)
    outside = (f"a flux whose flip ceil(alpha) lies outside the mode window "
               f"[-{m}, {m}] gives the same data as an integer flux")
    w_inf = eig[-1]
    dev = np.abs(eig - w_inf)
    spread = float(np.max(dev))
    if spread < _DEGENERATE_TOL:
        raise IntegerFluxError(f"all eigenvalues coincide: flux is an integer, "
                               f"undetermined by mode data, or {outside}")
    # smallest mode already holding the m -> +inf value
    flipped = dev < 0.5 * spread
    idx = int(np.argmax(flipped))  # first True: eigenvalues are two-valued
    ceil_alpha = int(modes[idx])
    if idx == 0:
        raise DomainError("no flip visible: need m_max > |alpha| + 2")

    # phase of the limit value is pi*alpha mod 2*pi; the flip index picks the
    # representative in (ceil_alpha - 1, ceil_alpha)
    y = float(np.angle(w_inf)) / math.pi
    frac = (y - (ceil_alpha - 1)) % 2.0
    if not 0.0 < frac < 1.0 + 1e-9:
        raise DataInconsistencyError(
            f"limit phase {y:.6f}*pi inconsistent with flip index {ceil_alpha}: {outside}")
    alpha = ceil_alpha - 1 + frac
    predicted = np.where(modes >= ceil_alpha, np.exp(1j * math.pi * alpha),
                         np.exp(-1j * math.pi * alpha))
    residual = float(np.max(np.abs(eig - predicted)))
    if residual > 0.5 * spread:
        raise DataInconsistencyError(f"eigenvalues are not two-valued (fit residual "
                                     f"{residual:.3g}, spread {spread:.3g}): {outside}")
    return FluxEstimate(sin_pi_alpha=math.sin(math.pi * alpha), ceil_alpha=ceil_alpha,
                        alpha=alpha, residual=residual)


def recover_flux_from_strip(grid: KernelGrid, strips) -> FluxEstimate:
    """sin(pi*alpha) by Richardson extrapolation of normalized strip integrals.

    strips must share (a, b) and run over decreasing eps (typically halving).
    Each strip yields -Re(integral) * pi / ((b-a)*log 2); successive linear
    extrapolations against eps must settle: TooSingularError is raised when
    the last correction is larger than the one before it and than the
    quadrature floor h/eps of the narrowest strip (h = 2*pi/n), so
    quadrature noise alone never trips it.  A |tau|^-1 perturbation shifts
    every estimate by the same constant, which no extrapolation in eps can
    see: such kernels, outside the delta < 1 condition, go undetected.  Only
    |sin| and its sign are recovered: alpha stays None (frac vs 1-frac needs
    mode phases).
    """
    return _strip_estimate(grid, strips, winding=0)


def _strip_estimate(grid: KernelGrid, strips, winding: int) -> FluxEstimate:
    """recover_flux_from_strip read in the gauge conjugated by winding.

    The strips of conjugate_kernel(grid, winding), formed on the gathered
    stencil entries, estimate sin(pi*(alpha + winding)); the estimate is
    multiplied by (-1)^winding.  Winding 0 is recover_flux_from_strip itself.
    """
    strips = list(strips)
    if len(strips) < 2:
        raise DomainError("need at least two strip domains")
    a, b = strips[0].a, strips[0].b
    eps = []
    for st in strips:
        if st.a != a or st.b != b:
            raise DomainError("strips must share the same (a, b)")
        eps.append(st.eps)
    if np.any(np.diff(eps) >= 0.0):
        raise DomainError("strip widths must decrease")

    norm = (b - a) * math.log(2.0) / math.pi
    values = [strip_integral(grid, st) for st in strips]
    if winding:
        values = [v + _strip_integral(grid, st, winding=winding) for v, st in zip(values, strips)]
    ests = np.array([-v.real / norm for v in values]) * (-1.0) ** winding

    # linear-in-eps model: s(eps) ~ s* + C*eps
    eps = np.array(eps)
    extr = (ests[1:] * eps[:-1] - ests[:-1] * eps[1:]) / (eps[:-1] - eps[1:])
    if extr.size >= 2:
        corrections = np.abs(np.diff(np.concatenate([ests[:1], extr])))
        floor = 2.0 * math.pi / grid.n / eps[-1]
        if corrections[-1] > max(corrections[-2], floor):
            raise TooSingularError(
                "extrapolation residuals are not settling; kernel perturbation "
                "is too singular for the strip estimator"
            )
    s_hat = float(extr[-1])
    residual = float(abs(ests[-1] - s_hat))
    return FluxEstimate(sin_pi_alpha=s_hat, ceil_alpha=None, alpha=None, residual=residual)


def detect_conjugation(s1: KernelGrid, s2: KernelGrid, n_range: int) -> ConjugationReport:
    """Search the winding n with S2 = e^{i n theta} S1 e^{-i n (theta'+pi)}.

    Returns the minimizer over |n| <= n_range with its max-norm residual
    (delta parts compared separately); equivalent is False when even the
    best residual exceeds 1e-3.
    """
    if s1.n != s2.n:
        raise DomainError("kernel grids must have equal size")
    if n_range < 0:
        raise DomainError("n_range must be >= 0")
    best_n, best_res = 0, math.inf
    for n in range(-n_range, n_range + 1):
        sign = (-1.0) ** n
        u = np.exp(1j * n * s1.theta)
        res = abs(s2.delta_coeff - s1.delta_coeff * sign)
        for r0 in range(0, s1.n, _BLOCK_ROWS):
            rows = slice(r0, r0 + _BLOCK_ROWS)
            diff = s1.values[rows] * (sign * u[rows])[:, None]
            diff *= np.conj(u)
            diff -= s2.values[rows]
            np.fill_diagonal(diff[:, r0:], 0.0)
            res = np.maximum(res, np.max(np.abs(diff)))
        if res < best_res:
            best_n, best_res = n, float(res)
    return ConjugationReport(n=best_n, residual=best_res, equivalent=best_res <= 1e-3)


@dataclass(frozen=True)
class FluxVerdict:
    alpha: float
    ceil_alpha: int
    sin_pi_alpha: float
    residual: float
    witness: bool


def _multiplied_kernel_witness(grid: KernelGrid, strips, m: int = 1) -> bool:
    """Check that (e^{i 2m(theta-theta')} - 1) * kernel is not the zero kernel.

    The multiplied kernel is bounded near the diagonal, so its strip
    integrals scale like eps; normalized by eps*(b-a) they approach
    -2*i*m*sin(pi*alpha)/pi and stay bounded away from 0 exactly when the
    kernel keeps its principal-value singularity (sin(pi*alpha) != 0).
    """
    # e^{i 2m(theta-theta')} * kernel is the gauge conjugation by the even winding 2m
    scaled = [abs(_strip_integral(grid, st, winding=2 * m)) / (st.eps * (st.b - st.a))
              for st in strips]
    return min(scaled) > 0.05


def default_strips(n: int, a: float, b: float) -> list[StripDomain]:
    """Halving strip widths from max(0.1, 8h) down to no less than 4h, h = 2*pi/n.

    Two strips on coarse grids, three (0.1, 0.05, 0.025) from n = 1006 on.
    """
    h = 2.0 * math.pi / n
    base = max(0.1, 8.0 * h)
    strips = [StripDomain(a, b, base), StripDomain(a, b, base / 2.0)]
    if base / 4.0 >= 4.0 * h:
        strips.append(StripDomain(a, b, base / 4.0))
    return strips


def recover_flux(grid: KernelGrid, obstacle_convex: bool, strips=None,
                 m_max: int = 8) -> FluxVerdict:
    """End-to-end flux recovery from a sampled kernel.

    The convexity of the obstacle is a data-level hypothesis the kernel
    cannot certify; the caller must assert it.  Modes give ceil(alpha) and
    the exact phase; strips, read in the gauge that brings ceil(alpha) to 1,
    give an independent sin(pi*alpha) estimate; the witness confirms the
    near-diagonal singularity survives multiplication by
    e^{i 2m (theta-theta')} - 1, the mechanism that forces equal fluxes for
    equal kernels.
    """
    if not obstacle_convex:
        raise DomainError(
            "flux recovery from kernel data requires the convex-obstacle hypothesis"
        )
    if strips is None:
        strips = default_strips(grid.n, 0.0, math.pi)
    modes = recover_flux_from_modes(grid, m_max=m_max)
    # the strip bias grows with ceil(alpha): read the strips in the gauge of
    # flux alpha + 1 - ceil(alpha), which lies in (0, 1]
    strip_est = _strip_estimate(grid, strips, winding=1 - modes.ceil_alpha)
    witness = _multiplied_kernel_witness(grid, strips)
    residual = max(modes.residual,
                   abs(math.sin(math.pi * modes.alpha) - strip_est.sin_pi_alpha))
    return FluxVerdict(alpha=modes.alpha, ceil_alpha=modes.ceil_alpha,
                       sin_pi_alpha=strip_est.sin_pi_alpha,
                       residual=residual, witness=witness)


def verdict_to_json(verdict: FluxVerdict) -> str:
    return json.dumps(asdict(verdict), indent=2) + "\n"
