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
  singular, |.| <= C*|tau|^-delta with delta < 1) kernel perturbations; one
  with delta >= 1 can shift the estimate unseen.

The strip estimate alone leaves the reflection frac <-> 1-frac open; only
mode phases resolve it.  detect_conjugation reads the integer winding n of
S'(theta,theta') = exp(i*n*theta) S(theta,theta') exp(-i*n*(theta'+pi))
from the correlation of the kernels' spectra, whose phases the FFT applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import errors
from .errors import DataInconsistencyError, DomainError, IntegerFluxError, TooSingularError
from .smatrix import (
    KernelGrid,
    StripDomain,
    _gauge_phase,
    _row_blocks,
    _spectrum,
    strip_integral,
)

__all__ = [
    "FluxEstimate",
    "ConjugationReport",
    "recover_flux_from_modes",
    "recover_flux_from_strip",
    "detect_conjugation",
    "default_strips",
    "recover_flux",
]

# eigenvalue clustering threshold below which flux is declared integral
_DEGENERATE_TOL = 1e-6

# mode window [-m, m] read first from a kernel grid, doubled up to n // 16
_START_WINDOW = 8


@dataclass(frozen=True)
class FluxEstimate:
    """Recovered flux components, or recover_flux's verdict on all of them; unavailable parts
    are None (the witness on the mode side)."""

    alpha: float | None
    ceil_alpha: int | None
    sin_pi_alpha: float | None
    residual: float
    witness: bool | None = None


@dataclass(frozen=True)
class ConjugationReport:
    """Integer winding relating two kernels, read from their spectra, with its residual."""

    n: int
    residual: float
    equivalent: bool


def recover_flux_from_modes(s: KernelGrid) -> FluxEstimate:
    """Exact flux from the eigenvalue flip index and the limiting phase.

    The kernel grid's eigenvalues are extracted by quadrature on [-8, 8], doubled
    up to [-n // 16, n // 16] while the flip lies outside it, and read by
    _flux_from_eigenvalues.  Raises IntegerFluxError when all eigenvalues coincide and
    DataInconsistencyError when they are not two-valued: both name the window,
    since a flip ceil(alpha) outside it gives such data as well as an integer
    flux does.
    """
    if not isinstance(s, KernelGrid):
        raise DomainError("expected a KernelGrid")
    spectrum, m = _spectrum(s), _START_WINDOW
    while True:
        try:
            return _flux_from_eigenvalues(spectrum[np.arange(-m, m + 1) % s.n], m)
        except (IntegerFluxError, DataInconsistencyError):     # both name the window
            if m >= s.n // 16:
                raise
            m = min(2 * m, s.n // 16)


def _flux_from_eigenvalues(eig: np.ndarray, m: int) -> FluxEstimate:
    """recover_flux_from_modes on the eigenvalues of the modes [-m, m]; exact two-valued
    data gives alpha back to rounding."""
    modes = np.arange(-m, m + 1)
    outside = (f"a flux whose flip ceil(alpha) lies outside the mode window "
               f"[-{m}, {m}] gives the same data as an integer flux")
    dev = np.abs(eig - eig[-1])
    spread = float(np.max(dev))
    if spread < _DEGENERATE_TOL:
        raise IntegerFluxError(f"all eigenvalues coincide: flux is an integer, "
                               f"undetermined by mode data, or {outside}")
    # smallest mode already holding the m -> +inf value
    flipped = dev < 0.5 * spread
    idx = int(np.argmax(flipped))  # first True: eigenvalues are two-valued
    ceil_alpha = int(modes[idx])
    if idx == 0:
        raise DataInconsistencyError(f"no flip visible: {outside}")

    # the limit value's phase is pi*alpha mod 2*pi, read at the flip or at most 16 modes
    # above it (the top of [-8, 8] for every flip shown there), whichever lies farther
    # from mode 0: a smooth perturbation loads the low modes, while the quadrature error
    # grows 30x per doubling of m - ceil_alpha; the flip index picks alpha's representative
    up = min(2 * m, idx + 2 * _START_WINDOW)
    w_inf = eig[max(idx, up, key=lambda i: abs(modes[i]))]
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
    return FluxEstimate(alpha=alpha, ceil_alpha=ceil_alpha,
                        sin_pi_alpha=math.sin(math.pi * alpha), residual=residual)


def recover_flux_from_strip(grid: KernelGrid, winding: int = 0) -> FluxEstimate:
    """sin(pi*alpha) by Richardson extrapolation of normalized strip integrals, and the witness.

    The strips are default_strips(grid.n): they share (a, b) and halve eps.
    Each strip yields -Re(integral) * pi / ((b-a)*log 2); successive linear
    extrapolations against eps must settle: TooSingularError is raised when
    the last correction is larger than the one before it and than the
    quadrature floor h/eps of the narrowest strip (h = 2*pi/n), so
    quadrature noise alone never trips it, or when the estimate's modulus
    exceeds 1 by more than that floor.  A |tau|^-delta perturbation with
    delta >= 1 can go undetected (|tau|^-1 shifts every estimate by one
    constant; 0.01*|e^{i tau} - 1|^-1.5 on the alpha = 0.4 kernel reads 0.734
    for 0.951 at n = 1024); recover_flux's mode cross-check exposes it.  Only
    |sin| and its sign are recovered: alpha stays None (frac vs 1-frac needs
    mode phases).  A nonzero winding reads the strips of
    conjugate_kernel(grid, winding), which estimate sin(pi*(alpha + winding)),
    and multiplies the estimate by (-1)^winding.

    The witness: (e^{2i(theta-theta')} - 1) * kernel, the conjugation by winding + 2 less the
    kernel (each strip is read in both gauges, once), is bounded near the diagonal, so its
    strip integrals scale like eps; over eps*(b-a) they tend to -2i*sin(pi*alpha)/pi, and the
    least stays above 0.05 exactly when the principal-value singularity survives.
    """
    strips = default_strips(grid.n)
    eps = np.array([st.eps for st in strips])
    norm = (strips[0].b - strips[0].a) * math.log(2.0) / math.pi
    values = [strip_integral(grid, st, winding) for st in strips]
    ests = np.array([-v.real / norm for v in values]) * (-1.0 if winding % 2 else 1.0)

    # linear-in-eps model: s(eps) ~ s* + C*eps
    extr = (ests[1:] * eps[:-1] - ests[:-1] * eps[1:]) / (eps[:-1] - eps[1:])
    floor = 2.0 * math.pi / grid.n / eps[-1]
    if extr.size >= 2:
        corrections = np.abs(np.diff(np.concatenate([ests[:1], extr])))
        if corrections[-1] > max(corrections[-2], floor):
            raise TooSingularError("extrapolation residuals are not settling; kernel "
                                   "perturbation is too singular for the strip estimator")
    s_hat = float(extr[-1])
    if abs(s_hat) > 1.0 + floor:
        raise TooSingularError(f"strip estimate sin(pi*alpha) = {s_hat:.4g} exceeds 1 by more "
                               f"than the floor {floor:.3g}; kernel perturbation is too singular")
    residual = float(abs(ests[-1] - s_hat))
    scaled = [abs(strip_integral(grid, st, winding + 2) - v) / (st.eps * (st.b - st.a))
              for st, v in zip(strips, values)]
    return FluxEstimate(alpha=None, ceil_alpha=None, sin_pi_alpha=s_hat, residual=residual,
                        witness=min(scaled) > 0.05)


def detect_conjugation(s1: KernelGrid, s2: KernelGrid, n_range: int) -> ConjugationReport:
    """Find the winding n with S2 = e^{i n theta} S1 e^{-i n (theta'+pi)}.

    Conjugation by w shifts the spectrum w modes with the sign (-1)^w: each |n| <= n_range
    scores Re((-1)^n C[n]), C[n] = sum_m conj(S1[m]) S2[m + n] by FFTs.  The shifts within
    1e-9 of the top score (a flat spectrum ties a parity) are checked by the max-norm of S2 less
    S1 times _gauge_phase(N, n), deltas apart: the least wins, ties to the least n, equivalent
    if it is <= 1e-3.  n_range stays below half the winding period on N points, N or 2N for odd N.
    """
    if s1.n != s2.n:
        raise DomainError("kernel grids must have equal size")
    n_range = errors.integer(n_range, "n_range", 0)
    period = s1.n if s1.n % 2 == 0 else 2 * s1.n
    if 2 * n_range >= period:
        raise DomainError(f"n_range {n_range} reaches half the winding period {period} on "
                          f"N = {s1.n} points: need n_range < {period // 2}")
    corr = np.fft.ifft(np.conj(np.fft.fft(_spectrum(s1))) * np.fft.fft(_spectrum(s2)))
    shifts = np.arange(-n_range, n_range + 1)
    scores = np.where(shifts % 2, -1.0, 1.0) * corr[shifts % s1.n].real

    def residual(n):        # s1 times the phase grid less s2, in row blocks
        phase = _gauge_phase(s1.n, n)
        res = abs(s2.delta_coeff - s1.delta_coeff * phase[0, 0].real)
        for rows in _row_blocks(s1.n):
            diff = s1.values[rows] * phase[rows] - s2.values[rows]
            np.fill_diagonal(diff[:, rows.start:], 0.0)
            res = np.maximum(res, np.max(np.abs(diff)))
        return float(res)

    tied = shifts[scores >= np.max(scores) - 1e-9 * np.max(np.abs(scores))]
    best_res, best_n = min((residual(n), n) for n in tied.tolist())
    return ConjugationReport(n=best_n, residual=best_res, equivalent=best_res <= 1e-3)


def default_strips(n: int) -> list[StripDomain]:
    """Strips over (0, pi) with halving widths from max(0.1, 8h) down to no less than
    4h, h = 2*pi/n: two on coarse grids, three (0.1, 0.05, 0.025) from n = 1006 on."""
    n = errors.integer(n, "grid size n", 1)
    h = 2.0 * math.pi / errors.real(n, "grid size n")      # an int past the floats has no h
    base = max(0.1, 8.0 * h)
    if not base < math.pi / 4.0:
        raise DomainError(f"the default strips on a {n}-point grid need widths {base:.4g} and "
                          f"{base / 2.0:.4g} (8h, 4h), but eps < pi/4 needs n > 64")
    widths = [base, base / 2.0] + ([base / 4.0] if base / 4.0 >= 4.0 * h else [])
    return [StripDomain(0.0, math.pi, eps) for eps in widths]


def recover_flux(grid: KernelGrid, obstacle_convex: bool) -> FluxEstimate:
    """End-to-end flux recovery from a sampled kernel.

    The convexity of the obstacle is a data-level hypothesis the kernel
    cannot certify; the caller must assert it.  Modes give ceil(alpha) and
    the exact phase (recover_flux_from_modes); strips, read in the gauge 1 - ceil(alpha) that
    brings the flux into (0, 1], give an independent sin(pi*alpha) estimate and, from the
    same strips (recover_flux_from_strip), the witness that the near-diagonal singularity
    survives multiplication by e^{2i(theta-theta')} - 1, the mechanism that
    forces equal fluxes for equal kernels.  The residual is the larger of the mode fit's
    and the gap between the two sin(pi*alpha) readings.
    """
    if not obstacle_convex:
        raise DomainError(
            "flux recovery from kernel data requires the convex-obstacle hypothesis"
        )
    modes = recover_flux_from_modes(grid)
    winding = 1 - modes.ceil_alpha     # the strip bias grows with ceil(alpha)
    strip_est = recover_flux_from_strip(grid, winding)
    residual = max(modes.residual,
                   abs(math.sin(math.pi * modes.alpha) - strip_est.sin_pi_alpha))
    return replace(modes, sin_pi_alpha=strip_est.sin_pi_alpha, residual=residual,
                   witness=strip_est.witness)
