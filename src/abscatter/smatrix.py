"""The flux-only scattering kernel, its partial-wave spectrum, and kernel ops.

For flux alpha the scattering operator on the circle of directions acts by
the kernel

    s_alpha(tau) = cos(pi*alpha) * delta(tau)
                   + (i*sin(pi*alpha)/pi) * p.v. exp(i*[[alpha]]*tau) / (1 - exp(i*tau)),

with [[alpha]] = ceil(alpha).  Its spectrum consists of the two unimodular
values exp(+i*pi*alpha) on angular modes m >= alpha and exp(-i*pi*alpha) on
m < alpha.  The delta coefficient is always kept as exact data; only the
principal-value (regular) part is ever discretized.

Principal values have one quadrature, on the kernel's own uniform grid:
nodes come in +/- pairs around the singularity, whose pair-sums are smooth
periodic functions, so the trapezoid sums converge spectrally.  The excluded
diagonal node is restored as half the pair limit extrapolated from the two
nearest pairs (dropping it would cost O(h)), folded into the weights: 5h/3 at
diagonal offsets +-1, 5h/6 at +-2, h elsewhere (_pv_rows).  Composition and
the spectrum both use these weights; the spectrum takes its mode phases from one FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import errors
from .errors import DomainError, ResolutionError
from .io import grid_columns, read_table, write_table

__all__ = [
    "KernelGrid",
    "StripDomain",
    "sample_kernel",
    "strip_integral",
    "compose_with_amplitude",
    "extract_mode",
    "conjugate_kernel",
    "perturb_kernel",
    "save_kernel_csv",
    "load_kernel_csv",
]


# Trapezoid nodes across the strip width eps < tau < 2*eps.
_TAU_NODES = 64

# Rows per block of row-wise work on n x n grids (composition, perturbation, the
# spectrum, the winding residual): bounds the temporaries to a few rows of a grid.
_BLOCK_ROWS = 256


def _row_blocks(n: int):
    """Slices of _BLOCK_ROWS rows (the last one possibly short) covering rows 0 .. n."""
    return (slice(r0, r0 + _BLOCK_ROWS) for r0 in range(0, n, _BLOCK_ROWS))


@lru_cache(maxsize=16)
def _roots(n: int) -> np.ndarray:
    """Read-only e^{2 pi i k/n}, k < n, for every grid phase the spectrum's FFT does not apply:
    k/n turns is p exact quarter turns plus t in [-pi/4, pi/4), so libm sees only t."""
    p, s = np.divmod(8 * np.arange(n) + n, 2 * n)       # k/n = p/4 + (s - n)/(8n)
    z = [complex(math.cos(t), math.sin(t)) for t in (math.pi / 4.0 * ((s - n) / n)).tolist()]
    out = np.array([1, 1j, -1, -1j])[p % 4] * np.array(z)
    out.flags.writeable = False
    return out


def _circulant(row: np.ndarray) -> np.ndarray:
    """Read-only n x n grid [j, k] = row[(j - k) % n]: window n-1-j of the doubled, reversed row."""
    return np.lib.stride_tricks.sliding_window_view(np.tile(row[::-1], 2), len(row))[-2::-1]


def _gauge_phase(n: int, winding: int) -> np.ndarray:
    """(-1)^w e^{i w (theta_j - theta_k)}, a read-only circulant grid: +-_roots(n)[w(j-k) mod n]."""
    winding = errors.integer(winding, "winding")
    u = _roots(n)[winding % n * np.arange(n) % n]
    return _circulant(-u if winding % 2 else u)


@dataclass
class KernelGrid:
    """Sampled kernel on the uniform angular grid theta_j = 2*pi*j/n.

    values[j, k] holds the regular part at (theta_j, theta_k); diagonal
    entries are stored as 0 and are not data (the kernel is distributional
    there).  delta_coeff carries the delta part exactly.  Both must be finite: a
    NaN or infinite entry is refused, naming the first.  values may be a
    read-only view: sample_kernel's is a view of its 2n-value row, exact as
    the flux kernel is circulant.  No kernel operation writes into its input;
    a caller that edits entries takes np.array(grid.values).
    """

    n: int
    values: np.ndarray
    delta_coeff: complex
    alpha_hint: float | None = None

    def __post_init__(self):
        self.n = errors.integer(self.n, "grid size n", 1)
        self.values = errors.array(self.values, "kernel values", 2, complex)
        if self.values.shape != (self.n, self.n):
            raise DomainError(f"kernel values must be ({self.n}, {self.n}), "
                              f"got shape {self.values.shape}")
        self.delta_coeff = complex(errors.array(self.delta_coeff, "delta_coeff", 0, complex))

    @property
    def theta(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n) / self.n

    @property
    def spacing(self) -> float:
        return 2.0 * math.pi / self.n


@dataclass(frozen=True)
class StripDomain:
    """Near-diagonal strip a < theta < b, eps < theta - theta' < 2*eps."""

    a: float
    b: float
    eps: float

    def __post_init__(self):
        for name in ("a", "b", "eps"):
            object.__setattr__(self, name, errors.real(getattr(self, name), f"strip {name}"))
        if not 0.0 <= self.a < self.b <= 2.0 * math.pi + 1e-12:
            raise DomainError("strip angles must satisfy 0 <= a < b <= 2*pi")
        if not self.eps > 0.0:
            raise DomainError("eps must be positive")
        if not 2.0 * self.eps < self.b - self.a:
            raise DomainError("need 2*eps < b - a")
        if not self.eps < math.pi / 4.0:
            raise DomainError("need eps < pi/4")


def sample_kernel(alpha: float, n: int) -> KernelGrid:
    """Kernel grid of the flux-alpha kernel; diagonal zeroed, delta kept exact.

    values is a read-only n x n view of the 2n-value doubled row, which is
    exact because the kernel depends on theta - theta' alone (the grid is
    circulant): at n = 2048 it holds 64 KB where a dense grid holds 64 MB.  A
    caller that edits entries takes np.array(grid.values).  A grid whose dense
    size cannot be allocated is still refused first, as the kernel operations
    form dense grids.
    """
    n, alpha = errors.integer(n, "grid size n", 64), errors.real(alpha, "flux alpha")
    errors.allocatable((n, n), f"a {n} x {n} kernel grid of {16 * n * n >> 30} GiB", complex)
    # the regular part at tau = theta_j, j = 1 .. n-1; alpha mod 2 is exact and odd in alpha
    turns, roots = math.remainder(alpha, 2.0), _roots(n)
    rvals = np.zeros(n, dtype=complex)
    rvals[1:] = (1j * math.sin(math.pi * turns) / math.pi) \
        * roots[math.ceil(alpha) % n * np.arange(1, n) % n] / (1.0 - roots[1:])
    return KernelGrid(n=n, values=_circulant(rvals), delta_coeff=complex(math.cos(math.pi * turns)),
                      alpha_hint=alpha)


def strip_integral(grid: KernelGrid, strip: StripDomain, winding: int = 0) -> complex:
    """Integral of the regular part of conjugate_kernel(grid, winding) over the strip.

    Rows supply theta; values along theta' = theta - tau come from a 4-point
    Lagrange stencil along the row, so the strip must be at least 4 cells wide
    (eps >= 4 * spacing).  Each gathered stencil entry (j, k) is multiplied once by
    _gauge_phase(n, winding)[j, k], as in conjugate_kernel.  For the flux-alpha kernel, -Re
    tends to (b - a) * sin(pi*(alpha + winding)) * log(2) / pi as eps -> 0.
    """
    h = grid.spacing
    if strip.eps < 4.0 * h:
        raise ResolutionError(f"eps = {strip.eps} below 4 grid cells ({4.0 * h:.4g})")

    # rows whose theta-cell [theta_j - h/2, theta_j + h/2] meets (a, b) on the circle:
    # row 0's cell also meets (a - 2*pi, b - 2*pi) where b > 2*pi - h/2
    lo, hi = grid.theta - 0.5 * h, grid.theta + 0.5 * h
    w_theta = sum(np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)
                  for a, b in ((strip.a, strip.b), (strip.a - 2 * math.pi, strip.b - 2 * math.pi)))
    rows = np.nonzero(w_theta > 0.0)[0]

    tau = np.linspace(strip.eps, 2.0 * strip.eps, _TAU_NODES)
    w_tau = np.full(_TAU_NODES, tau[1] - tau[0])
    w_tau[0] *= 0.5
    w_tau[-1] *= 0.5

    # theta' = theta_j - tau at fractional column offset tau/h below j;
    # 4-point Lagrange interpolation along the row (stencil stays >= 3 cells
    # away from the excluded diagonal since eps >= 4h)
    idx = tau / h
    i0 = np.floor(idx).astype(int)
    t = idx - i0
    w_m1 = -t * (t - 1.0) * (t - 2.0) / 6.0
    w_0 = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
    w_p1 = -(t + 1.0) * t * (t - 2.0) / 2.0
    w_p2 = (t + 1.0) * t * (t - 1.0) / 6.0
    phase = _gauge_phase(grid.n, winding)
    vals = np.zeros((rows.size, tau.size), dtype=complex)
    for off, w in ((-1, w_m1), (0, w_0), (1, w_p1), (2, w_p2)):
        cols = (rows[:, None] - (i0 + off)[None, :]) % grid.n
        vals += grid.values[rows[:, None], cols] * phase[rows[:, None], cols] * w[None, :]
    return complex(np.sum(w_theta[rows][:, None] * w_tau[None, :] * vals))


def _pv_rows(grid: KernelGrid, rows: slice) -> np.ndarray:
    """Weights W with W[j] @ phi = p.v. int K(theta_j, t) phi(t) dt for smooth phi.

    The symmetric-pair sum h * K[j] @ phi misses the diagonal node, restored
    as (h/2) * G_j(0) for the even pair function
        G_j(tau) = K(theta_j, theta_j - tau) phi(theta_j - tau)
                 + K(theta_j, theta_j + tau) phi(theta_j + tau),
    G_j(0) = (4 G_j(h) - G_j(2h)) / 3 by quadratic extrapolation.  Folded into the weights:
    5h/3 at column offsets +-1, 5h/6 at +-2, 0 on the diagonal (not data), h elsewhere.
    """
    j = np.arange(grid.n)[rows, None]
    weights = grid.spacing * grid.values[rows]
    weights[np.arange(len(j))[:, None], (j + [0, 1, -1, 2, -2]) % grid.n] *= \
        [0.0, 5.0 / 3.0, 5.0 / 3.0, 5.0 / 6.0, 5.0 / 6.0]
    return weights


def compose_with_amplitude(grid: KernelGrid, amplitude) -> KernelGrid:
    """Kernel of the full scattering matrix for a smooth amplitude.

    amplitude(theta, omega) is the smooth kernel F, called once on the open
    grids theta[:, None], omega[None, :]; an amplitude that fails there with
    TypeError, ValueError or OverflowError, or whose result does not broadcast to
    n x n or is not finite, is refused with DomainError.  The composition is
        S(theta, omega) = s(theta - omega)
                          - 2*pi*i * [ delta_coeff * F(theta, omega)
                                       + p.v. int s_reg(theta - t) F(t, omega) dt ].
    The p.v. convolution is one product with the folded weights of _pv_rows,
    formed in blocks of rows, so F and the result are the only n x n arrays
    alive.  Delta part is returned unchanged.
    """
    n = grid.n
    theta, omega = grid.theta[:, None], grid.theta[None, :]
    try:
        fmat = np.broadcast_to(np.asarray(amplitude(theta, omega), dtype=complex), (n, n))
    except (TypeError, ValueError, OverflowError) as exc:   # ValueError: it does not broadcast
        raise DomainError(f"amplitude must give numbers that broadcast to {n} x {n} on open "
                          f"grids: {exc}") from exc
    fmat = np.ascontiguousarray(errors.array(fmat, "amplitude", 2, complex))

    new_vals = np.empty((n, n), dtype=complex)
    for rows in _row_blocks(n):
        block = new_vals[rows]
        np.matmul(_pv_rows(grid, rows), fmat, out=block)
        block += grid.delta_coeff * fmat[rows]
        block *= -2.0j * math.pi
        block += grid.values[rows]
    np.fill_diagonal(new_vals, 0.0)
    return KernelGrid(n=n, values=new_vals, delta_coeff=grid.delta_coeff,
                      alpha_hint=grid.alpha_hint)


def _spectrum(grid: KernelGrid) -> np.ndarray:
    """Eigenvalues on every angular mode exp(i*m*theta), at index m mod n, by grid quadrature:
    one length-n FFT of the wrapped diagonals of the folded weights of _pv_rows, averaged over
    every max(1, n // 256)-th row, plus the exact delta coefficient."""
    n, step = grid.n, max(1, grid.n // 256)
    sums = np.zeros(n, dtype=complex)
    for rows in _row_blocks(n):     # each block's rows j = 0 mod step, weighted and doubled
        j0 = -(-rows.start // step) * step
        doubled = np.concatenate([_pv_rows(grid, slice(j0, rows.stop, step))] * 2, axis=1)
        s0, s1 = doubled.strides    # view row r starts at column j0 + r * step
        sums += np.lib.stride_tricks.as_strided(
            doubled[:, j0:], (len(doubled), n), (s0 + step * s1, s1)).sum(axis=0)
    return grid.delta_coeff + np.fft.ifft(sums / len(range(0, n, step)), norm="forward")


def extract_mode(grid: KernelGrid, m: int) -> complex:
    """Eigenvalue on the angular mode exp(i*m*theta) by grid quadrature."""
    return complex(_spectrum(grid)[errors.integer(m, "mode m") % grid.n])


def conjugate_kernel(grid: KernelGrid, winding: int) -> KernelGrid:
    """Gauge conjugation by integer winding n in kernel form.

    S'(theta, theta') = exp(i*n*theta) S(theta, theta') exp(-i*n*(theta'+pi)),
    i.e. entry (j, k) is multiplied once by _gauge_phase(n, winding)[j, k] =
    (-1)^n exp(i*n*(theta_j-theta_k)), and the delta coefficient by its diagonal (-1)^n.
    For the flux-alpha kernel this lands exactly on the flux-(alpha+n) kernel;
    the alpha hint shifts by n, or becomes None where that is not a finite float.
    """
    phase = _gauge_phase(grid.n, winding)
    new_vals = grid.values * phase
    np.fill_diagonal(new_vals, 0.0)
    try:
        hint = grid.alpha_hint + winding if grid.alpha_hint is not None else math.inf
    except OverflowError:       # the winding has no float value
        hint = math.inf
    return KernelGrid(n=grid.n, values=new_vals,
                      delta_coeff=grid.delta_coeff * phase[0, 0].real,
                      alpha_hint=hint if math.isfinite(hint) else None)


def perturb_kernel(grid: KernelGrid, size: float, seed: int) -> KernelGrid:
    """The kernel plus three smooth terms c e^{i(a theta + b theta')} (`kernel --perturb`):
    a, b in [-3, 3] and complex normal c from default_rng(seed), scaled together to
    sup-norm size; the diagonal stays zero and the delta part is kept."""
    size, seed = errors.real(size, "perturbation size"), errors.integer(seed, "seed", 0)
    if size < 0.0:
        raise DomainError(f"perturbation size must be >= 0, got {size}")
    rng = np.random.default_rng(seed)
    terms = [(*rng.integers(-3, 4, size=2), rng.normal() + 1j * rng.normal()) for _ in range(3)]
    roots, j = _roots(grid.n), np.arange(grid.n)
    # each term is the outer product c e^{ia theta} x e^{ib theta'}, summed in row blocks
    factors = [(c * roots[a * j % grid.n], roots[b * j % grid.n]) for a, b, c in terms]
    vals = np.zeros((grid.n, grid.n), dtype=complex)
    peak = 0.0
    for rows in _row_blocks(grid.n):
        noise = vals[rows]
        for left, right in factors:
            noise += np.outer(left[rows], right)
        peak = max(peak, float(np.max(np.abs(noise))))
    vals *= size / peak
    vals += grid.values
    np.fill_diagonal(vals, 0.0)
    return KernelGrid(n=grid.n, values=vals, delta_coeff=grid.delta_coeff, alpha_hint=None)


KERNEL_META = {"n": int, "delta_re": float, "delta_im": float,
               "alpha_hint": lambda text: float(text) if text else None}


def save_kernel_csv(grid: KernelGrid, path) -> None:
    hint = None if grid.alpha_hint is None else float(grid.alpha_hint)
    meta = dict(zip(KERNEL_META, (grid.n, float(grid.delta_coeff.real),
                                  float(grid.delta_coeff.imag), hint)))
    write_table(path, "j,k,re,im", grid_columns(grid.values), meta)


def load_kernel_csv(path) -> KernelGrid:
    meta, _, values = read_table(path, ("j,k,re,im",), KERNEL_META, dims=("n", "n"))
    return KernelGrid(n=meta["n"], values=values,
                      delta_coeff=complex(meta["delta_re"], meta["delta_im"]),
                      alpha_hint=meta["alpha_hint"])
