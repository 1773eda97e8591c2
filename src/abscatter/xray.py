"""Line integrals of the potentials, sinograms, and filtered back-projection.

Lines are parameterized parallel-beam style: offset p and direction angle
phi give the base point x0 = p*(-sin phi, cos phi) and direction
omega = (cos phi, sin phi).  A line missing the origin sweeps half a turn, so the
full-line integral of A0 . omega is alpha times that angle (gaugefield's rule for
the flux part), exactly -alpha*pi*sgn(p).  So the exponential
exp(i * integral) only sees the flux mod 2: equality of the phase data pins
down flux differences to even integers, which flux_parity_test certifies
from the raw integrals.

All line integrals, on any (offsets x angles) grid, go through the segment
rule of gaugefield (the rule the eikonal phases use): each Gaussian
component integrates the lines that meet its own disk |x - c| <= 8.5 w with
its own 51-node Gauss-Legendre rule, lines that miss the disk cost nothing,
and the flux part is added in closed form.

Reconstruction is standard FBP: ramp filter with Hann apodization in the
offset variable (FFT, zero-padded 2x), then back-projection with linear
interpolation, scaled so the angle sum approximates int_0^pi dphi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import (
    DataInconsistencyError,
    DomainError,
    SchemaError,
    UndersampledSinogramWarning,
)
from .gaugefield import VectorPotential, _aprime_parts, _path_integral, _segment_integrals
from .io import grid_columns, read_table, write_table

__all__ = [
    "Sinogram",
    "ParityReport",
    "line_integrals",
    "radon_forward",
    "a_line_sinogram",
    "radon_invert",
    "reconstruction_axes",
    "sinogram_axes",
    "flux_parity_test",
    "save_sinogram_csv",
    "load_sinogram_csv",
]

@dataclass
class Sinogram:
    """Line-integral samples values[i, j] at (offsets[i], angles[j]) on nonempty axes, all
    finite: a NaN or infinite value is refused, naming the first."""

    offsets: np.ndarray
    angles: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.offsets = errors.array(self.offsets, "sinogram offsets", 1)
        self.angles = errors.array(self.angles, "sinogram angles", 1)
        self.values = errors.array(self.values, "sinogram values", 2, None)   # i,j,re,im: complex
        if not (self.offsets.size and self.angles.size):
            raise DomainError(f"sinogram offsets and angles must be nonempty, got "
                              f"{self.offsets.size} and {self.angles.size}")
        if self.values.shape != (self.offsets.size, self.angles.size):
            raise DomainError("sinogram dimensions are inconsistent")

    @property
    def p_max(self) -> float:
        return float(np.max(np.abs(self.offsets)))


def line_integrals(pot: VectorPotential, offsets, angles, quantity: str) -> np.ndarray:
    """Full-line integrals of V or A . omega (quantity "V" or "A") on the
    (offsets x angles) grid of two nonempty 1-D sequences.

    Line (p, phi) is p*(-sin phi, cos phi) + s*(cos phi, sin phi); the
    smooth parts go through gaugefield's segment rule, one angle's offsets
    per batch.  The flux part of A . omega adds -alpha*pi*sgn(p) in closed
    form, so lines through the origin are rejected.
    """
    if quantity not in ("V", "A"):
        raise DomainError(f"quantity must be 'V' or 'A', got {quantity!r}")
    offsets = errors.array(offsets, "line offsets", 1)
    angles = errors.array(angles, "line angles", 1)
    if not (offsets.size and angles.size):
        raise DomainError(f"line offsets and angles must be nonempty, got {offsets.size} and "
                          f"{angles.size}")
    if quantity == "V":
        parts = [(c, c.value) for c in pot.v.components]
    else:
        if np.any(np.abs(offsets) < 1e-12):
            raise DomainError("line passes through the origin (flux part singular)")
        parts = _aprime_parts(pot)
    values = np.zeros((offsets.size, angles.size))
    for j, phi in enumerate(angles):
        normal = np.array([-math.sin(phi), math.cos(phi)])
        omega = np.array([math.cos(phi), math.sin(phi)])
        values[:, j] = _segment_integrals(parts, offsets[:, None] * normal, omega)
    if quantity == "V":
        return values
    # a line clear of the origin sweeps half a turn about it, clockwise where p > 0
    return _path_integral(pot.alpha, -math.pi * np.sign(offsets)[:, None], values)


def sinogram_axes(n_p: int, n_phi: int, p_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Canonical sinogram grids: n_p offsets across [-p_max, p_max], n_phi angles k*pi/n_phi,
    for an n_p x n_phi sinogram that can be allocated and a p_max > 0 with 2 p_max finite."""
    n_p, n_phi = errors.integer(n_p, "n_p", 1), errors.integer(n_phi, "n_phi", 1)
    p_max = errors.real(p_max, "p_max")
    if not 0.0 < 2.0 * p_max < math.inf:
        raise DomainError(f"p_max must be positive with 2 p_max finite, got {p_max}")
    errors.allocatable((n_p, n_phi), f"a {n_p} x {n_phi} sinogram")
    return np.linspace(-p_max, p_max, n_p), np.arange(n_phi) * math.pi / n_phi


def radon_forward(pot: VectorPotential, n_p: int, n_phi: int, p_max: float) -> Sinogram:
    """Parallel-beam sinogram of V on uniform offsets/angles grids.

    Uses the per-component Gauss-Legendre rules of line_integrals, on each
    component's own window, whatever p_max is.
    """
    offsets, angles = sinogram_axes(errors.integer(n_p, "n_p", 64),
                                    errors.integer(n_phi, "n_phi", 64), p_max)
    return Sinogram(offsets=offsets, angles=angles,
                    values=line_integrals(pot, offsets, angles, "V"))


def a_line_sinogram(pot: VectorPotential, offsets, angles) -> Sinogram:
    """Raw line integrals of A . omega on an explicit (offsets x angles) grid.

    Offsets must avoid 0 (DomainError otherwise); use it to build the
    phase/parity data for lines clear of the obstacle disk.
    """
    return Sinogram(offsets=offsets, angles=angles,
                    values=line_integrals(pot, offsets, angles, "A"))


def reconstruction_axes(sino: Sinogram, grid_n: int) -> np.ndarray:
    """Pixel-center coordinates (same for both axes) of the FBP image."""
    return np.linspace(-sino.p_max, sino.p_max, grid_n)


def radon_invert(sino: Sinogram, grid_n: int) -> np.ndarray:
    """Filtered back-projection (ramp filter, Hann apodization).

    Returns image[i, j] = reconstruction at (axes[i], axes[j]) with axes from
    reconstruction_axes.  Accuracy contract: for phantoms well inside p_max,
    relative L2 error a few percent at 128 offsets x 180 angles.
    """
    offsets, grid_n = sino.offsets, errors.integer(grid_n, "grid_n")
    n_p = offsets.size
    if grid_n < 1 or n_p < 2:
        raise DomainError(f"FBP needs grid_n >= 1 and at least 2 offsets, got {grid_n} and {n_p}")
    # the image grids first, so a size that cannot be held fails before any other work
    errors.allocatable((3, grid_n, grid_n), f"a {grid_n} x {grid_n} image")
    axes = reconstruction_axes(sino, grid_n)
    xx, yy = np.meshgrid(axes, axes, indexing="ij")
    image = np.zeros((grid_n, grid_n))
    dp = offsets[1] - offsets[0]
    if np.max(np.abs(np.diff(offsets) - dp)) > 1e-9 * abs(dp):
        raise DomainError("FBP requires a uniform offset grid")
    n_phi = sino.angles.size
    if n_phi < max(64, grid_n // 2):
        warnings.warn(
            f"{n_phi} angles is low for a {grid_n}x{grid_n} reconstruction",
            UndersampledSinogramWarning,
        )

    m = 1
    while m < 2 * n_p:
        m *= 2
    freqs = np.fft.fftfreq(m, d=dp)
    nyquist = 0.5 / dp
    filt = np.abs(freqs) * 0.5 * (1.0 + np.cos(math.pi * freqs / nyquist))

    padded = np.zeros((m, n_phi))
    padded[:n_p, :] = sino.values
    filtered = np.real(np.fft.ifft(np.fft.fft(padded, axis=0) * filt[:, None], axis=0))[:n_p, :]

    for j, phi in enumerate(sino.angles):
        p_of_x = -xx * math.sin(phi) + yy * math.cos(phi)
        image += np.interp(p_of_x, offsets, filtered[:, j], left=0.0, right=0.0)
    image *= math.pi / n_phi
    return image


@dataclass(frozen=True)
class ParityReport:
    """Outcome of comparing two raw A-sinograms as phase data."""

    matched: bool
    certificate: int | None
    max_phase_discrepancy: float


def flux_parity_test(raw1: Sinogram, raw2: Sinogram) -> ParityReport:
    """Certify the even-integer flux difference behind equal phase data.

    Both sinograms must sample identical line grids (raw A . omega values).
    If the complex exponentials agree to 1e-6, the raw differences divided by
    pi must form one consistent even integer across lines (sign-corrected per
    offset side), which is returned as the certificate; otherwise a mismatch
    report is produced.  Inconsistent integers raise DataInconsistencyError.
    """
    if raw1.offsets.shape != raw2.offsets.shape or raw1.angles.shape != raw2.angles.shape \
            or np.any(raw1.offsets != raw2.offsets) or np.any(raw1.angles != raw2.angles):
        raise DomainError("parity test requires identical line grids")
    if np.any(raw1.offsets == 0.0):
        raise DomainError("offset 0 lines hit the origin; exclude them")

    phase1 = np.exp(1j * raw1.values)
    phase2 = np.exp(1j * raw2.values)
    disc = float(np.max(np.abs(phase2 - phase1)))
    if disc > 1e-6:
        return ParityReport(matched=False, certificate=None, max_phase_discrepancy=disc)

    # flux part of raw is -alpha*pi*sgn(p); p < 0 lines read the difference
    # with a + sign
    side = np.where(raw1.offsets < 0.0, 1.0, -1.0)
    n_est = (raw2.values - raw1.values) / math.pi * side[:, None]
    n_round = np.rint(n_est)
    if float(np.max(np.abs(n_est - n_round))) > 1e-4:
        raise DataInconsistencyError("raw differences are not integer multiples of pi")
    uniq = np.unique(n_round)
    if uniq.size != 1:
        raise DataInconsistencyError(f"integer certificate differs across lines: {uniq}")
    n = int(uniq[0])
    if n % 2 != 0:
        raise DataInconsistencyError(
            f"odd certificate {n} contradicts matching phase data"
        )
    return ParityReport(matched=True, certificate=n, max_phase_discrepancy=disc)


SINOGRAM_META = {"n_p": int, "n_phi": int, "p_max": float}


def save_sinogram_csv(sino: Sinogram, path) -> None:
    """CSV form; requires the canonical uniform grids so they reload exactly."""
    n_p, n_phi = sino.values.shape
    p_max = sino.p_max
    offsets, angles = sinogram_axes(n_p, n_phi, p_max)
    if np.any(sino.offsets != offsets) or np.any(sino.angles != angles):
        raise SchemaError("CSV sinograms must use the canonical uniform grids")
    row_header = "i,j,re,im" if np.iscomplexobj(sino.values) else "i,j,value"
    write_table(path, row_header, grid_columns(sino.values),
                dict(zip(SINOGRAM_META, (n_p, n_phi, p_max))))


def load_sinogram_csv(path) -> Sinogram:
    meta, _, values = read_table(path, ("i,j,value", "i,j,re,im"), SINOGRAM_META,
                                 dims=("n_p", "n_phi"))
    n_p, n_phi, p_max = meta.values()
    offsets, angles = sinogram_axes(n_p, n_phi, p_max)
    return Sinogram(offsets=offsets, angles=angles, values=values)
