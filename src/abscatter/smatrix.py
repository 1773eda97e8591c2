"""The flux-only scattering kernel, its partial-wave spectrum, and kernel ops.

For flux alpha the scattering operator on the circle of directions acts by
the kernel

    s_alpha(tau) = cos(pi*alpha) * delta(tau)
                   + (i*sin(pi*alpha)/pi) * p.v. exp(i*[[alpha]]*tau) / (1 - exp(i*tau)),

with [[alpha]] = ceil(alpha).  Its spectrum consists of the two unimodular
values exp(+i*pi*alpha) on angular modes m >= alpha and exp(-i*pi*alpha) on
m < alpha.  The delta coefficient is always kept as exact data; only the
principal-value (regular) part is ever discretized.

Principal values are handled by symmetric pairing: quadrature nodes come in
+/- pairs around the singularity, whose pair-sums are smooth periodic
functions, so the trapezoid/midpoint sums converge spectrally.  On uniform
grids the excluded diagonal node is restored as half the pair limit extrapolated
from the two nearest pairs (dropping it would cost O(h)), folded into the
weights: 5h/3 at diagonal offsets +-1, 5h/6 at +-2, h elsewhere (_pv_rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .io import grid_columns, read_table, write_table

__all__ = [
    "ceil_index",
    "kernel_regular",
    "PartialWaveSMatrix",
    "KernelGrid",
    "StripDomain",
    "build_partial_wave",
    "apply_kernel_to_mode",
    "sample_kernel",
    "strip_integral",
    "compose_with_amplitude",
    "extract_mode",
    "conjugate_kernel",
    "save_kernel_csv",
    "load_kernel_csv",
]


def ceil_index(alpha: float) -> int:
    """[[alpha]]: least integer >= alpha (equal to alpha when alpha is integral)."""
    return math.ceil(alpha)


def kernel_regular(alpha: float, tau) -> np.ndarray:
    """Regular (principal-value) part of the kernel at angle difference tau.

    Valid for tau not congruent to 0 mod 2*pi.
    """
    tau = np.asarray(tau, dtype=float)
    ca = ceil_index(alpha)
    return (1j * math.sin(math.pi * alpha) / math.pi) * np.exp(1j * ca * tau) / (1.0 - np.exp(1j * tau))


@dataclass(frozen=True)
class PartialWaveSMatrix:
    """Diagonal unitary action on angular modes m in [-m_max, m_max]."""

    alpha: float
    m_max: int
    eigenvalues: np.ndarray

    def eigenvalue(self, m: int) -> complex:
        if abs(m) > self.m_max:
            raise DomainError(f"mode {m} outside [-{self.m_max}, {self.m_max}]")
        return complex(self.eigenvalues[m + self.m_max])

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.m_max, self.m_max + 1)


def build_partial_wave(alpha: float, m_max: int) -> PartialWaveSMatrix:
    """Exact eigenvalues: exp(i*pi*alpha) for m >= alpha, exp(-i*pi*alpha) below."""
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    m = np.arange(-m_max, m_max + 1)
    up = np.exp(1j * math.pi * alpha)
    eig = np.where(m >= alpha, up, np.conj(up))
    return PartialWaveSMatrix(alpha=float(alpha), m_max=int(m_max), eigenvalues=eig)


@dataclass
class KernelGrid:
    """Sampled kernel on the uniform angular grid theta_j = 2*pi*j/n.

    values[j, k] holds the regular part at (theta_j, theta_k); diagonal
    entries are stored as 0 and are not data (the kernel is distributional
    there).  delta_coeff carries the delta part exactly.
    """

    n: int
    values: np.ndarray
    delta_coeff: complex
    alpha_hint: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.n, self.n):
            raise DomainError(f"values must be ({self.n}, {self.n})")

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
        if not self.eps > 0.0:
            raise DomainError("eps must be positive")
        if not 2.0 * self.eps < self.b - self.a:
            raise DomainError("need 2*eps < b - a")
        if not self.eps < math.pi / 4.0:
            raise DomainError("need eps < pi/4")


def sample_kernel(alpha: float, n: int) -> KernelGrid:
    """Kernel grid of the flux-alpha kernel; diagonal zeroed, delta kept exact."""
    if n < 64:
        raise DomainError("grid size must be >= 64")
    if not math.isfinite(alpha):
        raise DomainError(f"flux must be finite, got {alpha}")
    tau = 2.0 * math.pi * np.arange(n) / n
    rvals = np.empty(n, dtype=complex)
    rvals[0] = 0.0
    rvals[1:] = kernel_regular(alpha, tau[1:])
    values = np.empty((n, n), dtype=complex)
    cols = np.arange(n)
    for j in range(n):
        values[j] = rvals[(j - cols) % n]
    return KernelGrid(n=n, values=values, delta_coeff=complex(math.cos(math.pi * alpha)),
                      alpha_hint=float(alpha))


def apply_kernel_to_mode(alpha: float, m: int, n_quad: int = 2048) -> complex:
    """Quadrature of the kernel against exp(i*m*theta') at theta = 0.

    The principal value uses midpoint nodes symmetric about the singularity;
    the delta part contributes cos(pi*alpha) analytically.  Matches the exact
    eigenvalue to quadrature accuracy (well under 1e-6 at n_quad = 2048).
    """
    if n_quad < 512 or n_quad % 2 != 0:
        raise DomainError("n_quad must be even and >= 512")
    h = 2.0 * math.pi / n_quad
    nodes = -math.pi + (np.arange(n_quad) + 0.5) * h
    integrand = kernel_regular(alpha, -nodes) * np.exp(1j * m * nodes)
    return complex(math.cos(math.pi * alpha) + h * np.sum(integrand))


def strip_integral(grid: KernelGrid, strip: StripDomain, tau_nodes: int = 64) -> complex:
    """Integral of the regular kernel part over the strip domain.

    Rows supply theta; values along theta' = theta - tau are linearly
    interpolated on the grid, so the strip must be at least 4 cells wide
    (eps >= 4 * spacing).  For the flux-alpha kernel, -Re of the result
    tends to (b - a) * sin(pi*alpha) * log(2) / pi as eps -> 0.
    """
    return _strip_integral(grid, strip, tau_nodes)


def _strip_integral(grid: KernelGrid, strip: StripDomain, tau_nodes: int = 64,
                    winding: int = 0) -> complex:
    """strip_integral of the kernel (winding 0) or of its change under the gauge
    conjugation by a nonzero winding, conjugate_kernel(grid, winding).values
    - grid.values, formed with conjugate_kernel's arithmetic on the gathered
    stencil entries only (no n x n copy).
    """
    h = grid.spacing
    if strip.eps < 4.0 * h:
        raise ResolutionError(f"eps = {strip.eps} below 4 grid cells ({4.0 * h:.4g})")
    if not (0.0 <= strip.a < strip.b <= 2.0 * math.pi + 1e-12):
        raise DomainError("strip angles must satisfy 0 <= a < b <= 2*pi")

    # rows whose theta-cell [theta_j - h/2, theta_j + h/2] meets (a, b)
    theta = grid.theta
    lo = np.maximum(theta - 0.5 * h, strip.a)
    hi = np.minimum(theta + 0.5 * h, strip.b)
    w_theta = np.clip(hi - lo, 0.0, None)
    rows = np.nonzero(w_theta > 0.0)[0]
    if rows.size == 0:
        return 0.0 + 0.0j

    tau = np.linspace(strip.eps, 2.0 * strip.eps, tau_nodes)
    w_tau = np.full(tau_nodes, tau[1] - tau[0])
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
    if winding:
        sign = (-1.0) ** winding
        u = np.exp(1j * winding * theta)
    vals = np.zeros((rows.size, tau.size), dtype=complex)
    for off, w in ((-1, w_m1), (0, w_0), (1, w_p1), (2, w_p2)):
        cols = (rows[:, None] - (i0 + off)[None, :]) % grid.n
        entries = grid.values[rows[:, None], cols]
        if winding:
            entries = entries * (sign * u[rows])[:, None] * np.conj(u)[cols] - entries
        vals += entries * w[None, :]
    return complex(np.sum(w_theta[rows][:, None] * w_tau[None, :] * vals))


def _pv_rows(grid: KernelGrid, rows: slice) -> np.ndarray:
    """Weights W with W[j] @ phi = p.v. int K(theta_j, t) phi(t) dt for smooth phi.

    The symmetric-pair sum h * K[j] @ phi misses the diagonal node, restored
    as (h/2) * G_j(0) for the even pair function
        G_j(tau) = K(theta_j, theta_j - tau) phi(theta_j - tau)
                 + K(theta_j, theta_j + tau) phi(theta_j + tau),
    G_j(0) = (4 G_j(h) - G_j(2h)) / 3 by quadratic extrapolation.  Folded into
    the weights: 5h/3 at column offsets +-1, 5h/6 at +-2, h elsewhere.
    """
    n = grid.n
    j = np.arange(n)[rows]
    i = np.arange(j.size)
    weights = grid.spacing * grid.values[rows]
    for off, fold in ((1, 5.0 / 3.0), (-1, 5.0 / 3.0), (2, 5.0 / 6.0), (-2, 5.0 / 6.0)):
        weights[i, (j + off) % n] *= fold
    return weights


def compose_with_amplitude(grid: KernelGrid, amplitude) -> KernelGrid:
    """Kernel of the full scattering matrix for a smooth amplitude.

    amplitude(theta, omega) is the smooth kernel F; the composition is
        S(theta, omega) = s(theta - omega)
                          - 2*pi*i * [ delta_coeff * F(theta, omega)
                                       + p.v. int s_reg(theta - t) F(t, omega) dt ].
    The p.v. convolution is one product with the folded weights of _pv_rows.
    Delta part is returned unchanged.
    """
    n = grid.n
    tt, ww = np.meshgrid(grid.theta, grid.theta, indexing="ij")
    try:
        fmat = np.asarray(amplitude(tt, ww), dtype=complex)
        if fmat.shape != (n, n):
            raise ValueError("amplitude did not broadcast")
    except (TypeError, ValueError):
        fmat = np.asarray(np.vectorize(amplitude)(tt, ww), dtype=complex)
    del tt, ww  # two n x n grids fewer alive during the product below

    new_vals = _pv_rows(grid, slice(None)) @ fmat
    new_vals += grid.delta_coeff * fmat
    new_vals *= -2.0j * math.pi
    new_vals += grid.values
    np.fill_diagonal(new_vals, 0.0)
    return KernelGrid(n=n, values=new_vals, delta_coeff=grid.delta_coeff,
                      alpha_hint=grid.alpha_hint)


def _mode_values(grid: KernelGrid, modes, row_stride: int | None = None) -> np.ndarray:
    """Eigenvalues on the angular modes exp(i*m*theta), m in modes, by grid quadrature.

    Averages the p.v. row sums (folded weights of _pv_rows) over rows, then
    adds the exact delta coefficient; one product serves every mode.
    """
    if row_stride is None:
        row_stride = max(1, grid.n // 256)
    rows = slice(0, grid.n, row_stride)
    phase = np.exp(1j * np.outer(grid.theta, modes))
    per_row = (_pv_rows(grid, rows) @ phase) * np.conj(phase[rows])
    return grid.delta_coeff + per_row.mean(axis=0)


def extract_mode(grid: KernelGrid, m: int, row_stride: int | None = None) -> complex:
    """Eigenvalue on the angular mode exp(i*m*theta) by grid quadrature."""
    return complex(_mode_values(grid, [m], row_stride)[0])


def conjugate_kernel(grid: KernelGrid, winding: int) -> KernelGrid:
    """Gauge conjugation by integer winding n in kernel form.

    S'(theta, theta') = exp(i*n*theta) S(theta, theta') exp(-i*n*(theta'+pi)),
    i.e. values pick up exp(i*n*(theta-theta'))*(-1)^n and the delta
    coefficient flips sign for odd n (a rank-one row and column scaling).
    For the flux-alpha kernel this lands exactly on the flux-(alpha+n) kernel.
    """
    winding = int(winding)
    sign = (-1.0) ** winding
    u = np.exp(1j * winding * grid.theta)
    new_vals = grid.values * (sign * u)[:, None]
    new_vals *= np.conj(u)
    np.fill_diagonal(new_vals, 0.0)
    hint = None if grid.alpha_hint is None else grid.alpha_hint + winding
    return KernelGrid(n=grid.n, values=new_vals, delta_coeff=grid.delta_coeff * sign,
                      alpha_hint=hint)


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
