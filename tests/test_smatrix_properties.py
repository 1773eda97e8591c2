"""Property tests for the kernel operations: gauge conjugation lands on the
shifted flux, the winding search finds it, the principal-value quadrature of
compose_with_amplitude and extract_mode equals a dense reference, the
reflection alpha -> -alpha holds on the grid, and the spectrum is two-valued
with its flip at ceil(alpha), so the modes give the flux back."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abscatter.inverse import detect_conjugation, recover_flux_from_modes
from abscatter.smatrix import (
    KernelGrid,
    _mode_values,
    build_partial_wave,
    compose_with_amplitude,
    conjugate_kernel,
    extract_mode,
    sample_kernel,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)

# fluxes kept 0.05 from the integers, where sin(pi*alpha) and with it the
# whole regular part vanishes and relative comparisons lose their meaning
fluxes = st.floats(-3.0, 3.0).filter(lambda a: abs(a - round(a)) >= 0.05)
sizes = st.integers(64, 256)
# fluxes whose flip ceil(alpha) lies inside the default mode window [-8, 8],
# 0.02 from the integers as in the acceptance round trip
window_fluxes = st.floats(-7.9, 7.9).filter(lambda a: abs(a - round(a)) > 0.02)
windings = st.integers(-3, 3)
coeffs = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
# (a, b) with a + b != 0: e^{i(a theta + b theta')} is no function of theta - theta'
freqs = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda ab: ab[0] + ab[1] != 0)


def rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


def perturbed(alpha, n, terms):
    """Flux-alpha kernel plus dense non-circulant smooth terms, diagonal zeroed."""
    g = sample_kernel(alpha, n)
    th = g.theta
    vals = g.values.copy()
    for c, (a, b) in terms:
        vals += c * np.outer(np.exp(1j * a * th), np.exp(1j * b * th))
    np.fill_diagonal(vals, 0.0)
    return KernelGrid(n=n, values=vals, delta_coeff=g.delta_coeff)


def pv_reference(grid, fmat):
    """Dense p.v. convolution: h K @ F plus the restored diagonal half-weight.

    Row j gains (h/2) * (4 G_j(h) - G_j(2h)) / 3 with
    G_j(off*h) = K[j, j-off] F[j-off] + K[j, j+off] F[j+off].
    """
    n, h, k = grid.n, grid.spacing, grid.values
    j = np.arange(n)

    def pair(off):
        lo, hi = (j - off) % n, (j + off) % n
        return k[j, lo][:, None] * fmat[lo] + k[j, hi][:, None] * fmat[hi]

    return h * (k @ fmat) + 0.5 * h * (4.0 * pair(1) - pair(2)) / 3.0


@PROPERTY
@given(fluxes, windings, sizes)
def test_conjugation_lands_on_shifted_flux(alpha, w, n):
    got = conjugate_kernel(sample_kernel(alpha, n), w)
    want = sample_kernel(alpha + w, n)
    assert rel_err(got.values, want.values) <= 1e-12
    assert abs(got.delta_coeff - want.delta_coeff) <= 1e-12


@PROPERTY
@given(fluxes, windings, sizes, st.lists(st.tuples(coeffs, freqs), max_size=3))
def test_winding_search_recovers_winding(alpha, w, n, terms):
    g = perturbed(alpha, n, terms)
    pairs = ((g, conjugate_kernel(g, w)), (sample_kernel(alpha, n), sample_kernel(alpha + w, n)))
    for s1, s2 in pairs:
        rep = detect_conjugation(s1, s2, 3)
        assert rep.n == w and rep.residual <= 1e-12 and rep.equivalent


@PROPERTY
@given(fluxes, sizes, st.lists(st.tuples(coeffs, freqs), min_size=1, max_size=3),
       coeffs, st.integers(-4, 4), st.integers(-4, 4))
def test_compose_matches_dense_reference(alpha, n, terms, c, p, q):
    g = perturbed(alpha, n, terms)
    out = compose_with_amplitude(g, lambda t, w: c * np.exp(1j * (p * t + q * w)))
    th = g.theta
    fmat = c * np.exp(1j * (p * th[:, None] + q * th[None, :]))
    want = g.values - 2j * math.pi * (g.delta_coeff * fmat + pv_reference(g, fmat))
    np.fill_diagonal(want, 0.0)
    assert rel_err(out.values, want) <= 1e-12
    assert out.delta_coeff == g.delta_coeff


@PROPERTY
@given(fluxes, sizes, st.lists(st.tuples(coeffs, freqs), max_size=3),
       st.integers(-8, 8), st.integers(1, 5))
def test_extract_mode_matches_dense_reference(alpha, n, terms, m, stride):
    g = perturbed(alpha, n, terms)
    phase = np.exp(1j * m * g.theta)
    rows = np.arange(0, n, stride)
    per_row = pv_reference(g, phase[:, None])[rows, 0] * np.exp(-1j * m * g.theta[rows])
    want = g.delta_coeff + np.mean(per_row)
    assert abs(extract_mode(g, m, row_stride=stride) - want) <= 1e-12 * abs(want)


@PROPERTY
@given(fluxes, sizes, st.lists(st.tuples(coeffs, freqs), max_size=3), st.integers(1, 5))
def test_batched_modes_match_single_mode_extraction(alpha, n, terms, stride):
    g = perturbed(alpha, n, terms)
    modes = np.arange(-8, 9)
    single = np.array([extract_mode(g, m, row_stride=stride) for m in modes])
    assert rel_err(_mode_values(g, modes, row_stride=stride), single) <= 1e-14


@PROPERTY
@given(fluxes, sizes, st.integers(-8, 8))
def test_reflection(alpha, n, m):
    # s_{-alpha}(tau) = -conj(s_alpha(tau)) with the same delta part, so the
    # eigenvalue on mode -m of flux -alpha is 2 cos(pi alpha) - conj of the
    # eigenvalue on mode m of flux alpha (both are e^{+-i pi alpha})
    ga, gm = sample_kernel(alpha, n), sample_kernel(-alpha, n)
    assert rel_err(gm.values, -np.conj(ga.values)) <= 1e-12
    assert gm.delta_coeff == ga.delta_coeff
    want = 2.0 * math.cos(math.pi * alpha) - np.conj(extract_mode(ga, m))
    assert abs(extract_mode(gm, -m) - want) <= 1e-12


def two_valued(alpha, m_max):
    """exp(-i pi alpha) below the flip m = ceil(alpha), exp(+i pi alpha) from it on."""
    m = np.arange(-m_max, m_max + 1)
    up = np.exp(1j * math.pi * alpha)
    return np.where(m >= math.ceil(alpha), up, np.conj(up))


@PROPERTY
@given(window_fluxes)
def test_spectrum_is_two_valued_with_flip_at_ceil(alpha):
    assert np.array_equal(build_partial_wave(alpha, 8).eigenvalues, two_valued(alpha, 8))
    # the two values lie 2|sin(pi alpha)| >= 0.12 apart, so this also places the flip
    eig = _mode_values(sample_kernel(alpha, 1024), np.arange(-8, 9))
    assert np.max(np.abs(eig - two_valued(alpha, 8))) <= 1e-6


@PROPERTY
@given(window_fluxes)
def test_modes_round_trip_inside_window(alpha):
    for s, tol in ((build_partial_wave(alpha, 8), 1e-9), (sample_kernel(alpha, 1024), 1e-4)):
        est = recover_flux_from_modes(s)
        assert abs(est.alpha - alpha) <= tol and est.ceil_alpha == math.ceil(alpha)


def test_winding_search_ignores_the_diagonal_in_every_block():
    # three row blocks, the last one partial; diagonal entries are not data
    g = perturbed(0.3, 600, [(0.02 + 0.01j, (1, 2))])
    target = conjugate_kernel(g, 2)
    np.fill_diagonal(target.values, 5.0)
    rep = detect_conjugation(g, target, 3)
    assert rep.n == 2 and rep.residual <= 1e-12
