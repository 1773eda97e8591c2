"""Line integrals of the potentials, sinograms, and filtered back-projection.

Lines are parameterized parallel-beam style: offset p and direction angle
phi give the base point x0 = p*(-sin phi, cos phi) and direction
omega = (cos phi, sin phi).  For the flux part, the full-line integral of
A0 . omega is exactly alpha*pi*sgn(x0 x omega) (the angle form sweeps half a
turn along any line missing the origin), so the exponential
exp(i * integral) only sees the flux mod 2: equality of the phase data pins
down flux differences to even integers, which flux_parity_test certifies
from the raw integrals.

All line integrals, single lines and whole sinograms alike, go through the
one Gauss-Legendre segment rule of gaugefield (the rule the eikonal phases
use): each line is clipped to the disk |x| <= R + 1, where R is the
Gaussian-envelope reach of the potential from the origin, and the flux part
is added in closed form.

Reconstruction is standard FBP: ramp filter with Hann apodization in the
offset variable (FFT, zero-padded 2x), then back-projection with linear
interpolation, scaled so the angle sum approximates int_0^pi dphi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataInconsistencyError,
    DomainError,
    SchemaError,
    UndersampledSinogramWarning,
)
from .gaugefield import VectorPotential, _segment_integrals
from .io import grid_columns, read_table, write_table

__all__ = [
    "LineSpec",
    "Sinogram",
    "ParityReport",
    "line_integral_V",
    "line_integral_A",
    "radon_forward",
    "a_line_sinogram",
    "radon_invert",
    "reconstruction_axes",
    "sinogram_axes",
    "flux_parity_test",
    "save_sinogram_csv",
    "load_sinogram_csv",
]

@dataclass(frozen=True)
class LineSpec:
    """Line {x0 + s*omega}; omega must be a unit vector."""

    x0: tuple[float, float]
    omega: tuple[float, float]

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=float)
        if abs(float(w @ w) - 1.0) > 1e-12:
            raise DomainError("omega must be a unit vector")

    @classmethod
    def parallel_beam(cls, p: float, phi: float) -> "LineSpec":
        return cls(x0=(-p * math.sin(phi), p * math.cos(phi)),
                   omega=(math.cos(phi), math.sin(phi)))


@dataclass
class Sinogram:
    """Line-integral samples values[i, j] at (offsets[i], angles[j])."""

    offsets: np.ndarray
    angles: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=float)
        self.angles = np.asarray(self.angles, dtype=float)
        self.values = np.asarray(self.values)
        if self.values.shape != (self.offsets.size, self.angles.size):
            raise DomainError("sinogram dimensions are inconsistent")

    @property
    def p_max(self) -> float:
        return float(np.max(np.abs(self.offsets)))


def _line_integrals(pot: VectorPotential, offsets: np.ndarray, angles: np.ndarray,
                    quantity: str) -> np.ndarray:
    """Full-line integrals of V or A . omega on the (offsets x angles) grid.

    Line (p, phi) is p*(-sin phi, cos phi) + s*(cos phi, sin phi); the
    smooth parts go through gaugefield's segment rule, one angle's offsets
    per batch.  The flux part of A . omega adds -alpha*pi*sgn(p) in closed
    form, so lines through the origin are rejected.
    """
    if not (np.all(np.isfinite(offsets)) and np.all(np.isfinite(angles))):
        raise DomainError("line offsets and angles must be finite")
    if quantity == "V":
        field, comps = pot.v, pot.v.components
        values = np.zeros((offsets.size, angles.size))
    else:
        if np.any(np.abs(offsets) < 1e-12):
            raise DomainError("line passes through the origin (flux part singular)")
        field, comps = pot.aprime, pot.bumps + pot.grad_l.components
        values = np.repeat(-pot.alpha * math.pi * np.sign(offsets)[:, None], angles.size, axis=1)
    for j, phi in enumerate(angles):
        normal = np.array([-math.sin(phi), math.cos(phi)])
        omega = np.array([math.cos(phi), math.sin(phi)])
        values[:, j] += _segment_integrals(field, comps, offsets[:, None] * normal, omega)
    return values


def _line(pot: VectorPotential, line: LineSpec, quantity: str) -> float:
    """One LineSpec as the grid point p = -(x0 x omega), phi = atan2(omega)."""
    (x1, x2), (w1, w2) = line.x0, line.omega
    p = np.array([x2 * w1 - x1 * w2], dtype=float)
    return float(_line_integrals(pot, p, np.array([math.atan2(w2, w1)]), quantity)[0, 0])


def line_integral_V(pot: VectorPotential, line: LineSpec) -> float:
    """Full-line integral of V by the Gauss-Legendre rule radon_forward uses."""
    return _line(pot, line, "V")


def line_integral_A(pot: VectorPotential, line: LineSpec) -> tuple[float, complex]:
    """(raw, phase): raw = full-line integral of A . omega, phase = exp(i*raw).

    The flux part integrates exactly to alpha*pi*sgn(x0 x omega); only the
    phase is gauge-meaningful, the raw value feeds the parity certificate.
    Lines through the origin are rejected (the flux part diverges there).
    """
    raw = _line(pot, line, "A")
    return raw, complex(np.exp(1j * raw))


def sinogram_axes(n_p: int, n_phi: int, p_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Canonical sinogram grids: n_p offsets across [-p_max, p_max], n_phi angles k*pi/n_phi."""
    return np.linspace(-p_max, p_max, n_p), np.arange(n_phi) * math.pi / n_phi


def radon_forward(pot: VectorPotential, n_p: int, n_phi: int, p_max: float) -> Sinogram:
    """Parallel-beam sinogram of V on uniform offsets/angles grids.

    Uses the same Gauss-Legendre rule as line_integral_V, on the reach window
    of V, whatever p_max is.
    """
    if n_p < 64 or n_phi < 64:
        raise DomainError("sinogram grid sizes must be >= 64")
    if not (math.isfinite(p_max) and p_max > 0.0):
        raise DomainError(f"p_max must be finite and positive, got {p_max}")
    offsets, angles = sinogram_axes(n_p, n_phi, p_max)
    return Sinogram(offsets=offsets, angles=angles,
                    values=_line_integrals(pot, offsets, angles, "V"))


def a_line_sinogram(pot: VectorPotential, offsets, angles) -> Sinogram:
    """Raw line integrals of A . omega on an explicit (offsets x angles) grid.

    Offsets must avoid 0 (DomainError otherwise); use it to build the
    phase/parity data for lines clear of the obstacle disk.
    """
    offsets = np.asarray(offsets, dtype=float)
    angles = np.asarray(angles, dtype=float)
    return Sinogram(offsets=offsets, angles=angles,
                    values=_line_integrals(pot, offsets, angles, "A"))


def reconstruction_axes(sino: Sinogram, grid_n: int) -> np.ndarray:
    """Pixel-center coordinates (same for both axes) of the FBP image."""
    return np.linspace(-sino.p_max, sino.p_max, grid_n)


def radon_invert(sino: Sinogram, grid_n: int) -> np.ndarray:
    """Filtered back-projection (ramp filter, Hann apodization).

    Returns image[i, j] = reconstruction at (axes[i], axes[j]) with axes from
    reconstruction_axes.  Accuracy contract: for phantoms well inside p_max,
    relative L2 error a few percent at 128 offsets x 180 angles.
    """
    offsets = sino.offsets
    n_p = offsets.size
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

    axes = reconstruction_axes(sino, grid_n)
    xx, yy = np.meshgrid(axes, axes, indexing="ij")
    image = np.zeros((grid_n, grid_n))
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
    message: str


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
        return ParityReport(matched=False, certificate=None, max_phase_discrepancy=disc,
                            message=f"phase data disagree (max discrepancy {disc:.3e})")

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
    return ParityReport(matched=True, certificate=n, max_phase_discrepancy=disc,
                        message=f"phases agree; flux difference certificate {n}")


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
