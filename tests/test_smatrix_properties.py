"""Property tests for the kernel operations: gauge conjugation lands on the
shifted flux, the winding search finds it below half its period, the flux
recovery reads the same sin(pi*alpha) in every gauge, the principal-value
quadrature of compose_with_amplitude and extract_mode equals a dense
reference, the reflection alpha -> -alpha holds on the grid, and the spectrum
is two-valued with its flip at ceil(alpha), so the modes give the flux back;
recover_flux widens its mode window until it holds the flip.
The winding search returns the exhaustive search's report whenever a winding
relates the kernels, since conjugation shifts the spectrum.  The table
of roots of unity behind every grid phase is within an ulp of the exact
roots, and its gauge phase repeats after n windings."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abscatter import smatrix
from abscatter.errors import DomainError
from abscatter.inverse import (
    ConjugationReport,
    _flux_from_eigenvalues,
    detect_conjugation,
    recover_flux,
    recover_flux_from_modes,
)
from abscatter.smatrix import (
    KernelGrid,
    _gauge_phase,
    _roots,
    _spectrum,
    compose_with_amplitude,
    conjugate_kernel,
    extract_mode,
    sample_kernel,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)

# fluxes kept 0.05 from the integers, where sin(pi*alpha) and with it the
# whole regular part vanishes and relative comparisons lose their meaning
fluxes = st.floats(-3.0, 3.0).filter(lambda a: abs(a - round(a)) >= 0.05)
wide_fluxes = st.floats(-50.0, 50.0).filter(lambda a: abs(a - round(a)) >= 0.05)
# multiples of 2^-10, for which alpha + w is exact
dyadic_fluxes = st.integers(-50 * 1024, 50 * 1024).map(lambda k: k / 1024).filter(
    lambda a: abs(a - round(a)) >= 0.05)
sizes = st.integers(64, 256)
# sizes from 512 on average every (n // 256)-th row of the mode quadrature
strided_sizes = sizes | st.integers(512, 1300)
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
@given(wide_fluxes, dyadic_fluxes, st.integers(-50, 50), sizes)
def test_conjugation_lands_on_shifted_flux(alpha, dyadic, w, n):
    # an arbitrary float's alpha + w itself rounds; a dyadic one's is exact, which
    # leaves only the kernel's own rounding
    for a, tol in ((alpha, 1e-12), (dyadic, 4e-15)):
        got = conjugate_kernel(sample_kernel(a, n), w)
        want = sample_kernel(a + w, n)
        assert rel_err(got.values, want.values) <= tol
        assert abs(got.delta_coeff - want.delta_coeff) <= tol


@PROPERTY
@given(st.integers(64, 4096))
def test_roots_table_is_within_an_ulp(n):
    roots = _roots(n)
    assert not roots.flags.writeable
    with mpmath.workprec(113):
        err = max(abs(mpmath.mpc(z.real, z.imag) - mpmath.expjpi(mpmath.mpf(2 * k) / n))
                  for k, z in enumerate(roots))
    assert err <= math.ulp(1.0)


@PROPERTY
@given(st.integers(64, 512), st.integers(-1000, 1000))
def test_gauge_phase_repeats_after_n_windings(n, w):
    # bit for bit, with the sign (-1)^n; the grid is a read-only view
    phase, phase_n = _gauge_phase(n, w), _gauge_phase(n, w + n)
    assert not phase.flags.writeable
    assert phase_n.tobytes() == (-phase if n % 2 else phase).tobytes()


@pytest.mark.parametrize("parity", [0, 1])
@PROPERTY
@given(fluxes, st.integers(32, 80), st.data())
def test_winding_search_recovers_windings_below_half_period(parity, alpha, half_n, data):
    # windings w and w + N differ by (-1)^N: the period is N for even N, 2N for odd N
    n = 2 * half_n + parity
    limit = n // 2 if parity == 0 else n
    w = data.draw(st.integers(1 - limit, limit - 1))
    g = sample_kernel(alpha, n)
    rep = detect_conjugation(g, conjugate_kernel(g, w), limit - 1)
    assert rep.n == w and rep.residual <= 1e-12 and rep.equivalent
    with pytest.raises(DomainError, match=f"N = {n}"):
        detect_conjugation(g, g, limit)


@PROPERTY
@given(window_fluxes, st.integers(-15, 15))
def test_flux_recovery_reads_the_same_sine_in_every_gauge(alpha, w):
    assume(-7.9 < alpha + w < 7.9)
    g = sample_kernel(alpha, 1024)
    base = recover_flux(g, obstacle_convex=True)
    shifted = recover_flux(conjugate_kernel(g, w), obstacle_convex=True)
    assert shifted.ceil_alpha == base.ceil_alpha + w
    # flux alpha + w: sin(pi*(alpha + w)) = (-1)^w sin(pi*alpha)
    assert abs(shifted.sin_pi_alpha - (-1) ** w * base.sin_pi_alpha) <= 1e-12


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
@given(fluxes, strided_sizes, st.lists(st.tuples(coeffs, freqs), max_size=3),
       st.integers(-8, 8))
def test_extract_mode_matches_dense_reference(alpha, n, terms, m):
    g = perturbed(alpha, n, terms)
    phase = np.exp(1j * m * g.theta)
    rows = np.arange(0, n, max(1, n // 256))
    per_row = pv_reference(g, phase[:, None])[rows, 0] * np.exp(-1j * m * g.theta[rows])
    want = g.delta_coeff + np.mean(per_row)
    assert abs(extract_mode(g, m) - want) <= 1e-12 * abs(want)


@PROPERTY
@given(fluxes, strided_sizes, st.lists(st.tuples(coeffs, freqs), max_size=3))
def test_batched_modes_match_single_mode_extraction(alpha, n, terms):
    # the spectrum holds mode m at index m mod n, and the high modes equal the
    # dense reference as the low ones do
    g = perturbed(alpha, n, terms)
    modes = np.concatenate([np.arange(-8, 9), [n // 2, -(n // 2), n - 1]])
    spectrum = _spectrum(g)[modes % n]
    assert np.array_equal(spectrum, [extract_mode(g, m) for m in modes])
    phase = np.exp(1j * np.outer(g.theta, modes))
    rows = np.arange(0, n, max(1, n // 256))
    want = g.delta_coeff + np.mean(pv_reference(g, phase)[rows] * np.conj(phase[rows]), axis=0)
    assert rel_err(spectrum, want) <= 1e-12


@PROPERTY
@given(fluxes, strided_sizes, st.lists(st.tuples(coeffs, freqs), max_size=3), st.data())
def test_conjugation_shifts_the_spectrum(alpha, n, terms, data):
    # entry (j, k) gains (-1)^w e^{iw(theta_j - theta_k)}, so every wrapped diagonal
    # gains one phase, for any kernel: S2[m] = (-1)^w S1[m - w], over the whole period
    g = perturbed(alpha, n, terms)
    w = data.draw(st.integers(-n, n))
    want = (-1) ** w * np.roll(_spectrum(g), w)
    assert rel_err(_spectrum(conjugate_kernel(g, w)), want) <= 1e-12


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
    # the two values lie 2|sin(pi alpha)| >= 0.12 apart, so this also places the flip
    eig = _spectrum(sample_kernel(alpha, 1024))[np.arange(-8, 9)]
    assert np.max(np.abs(eig - two_valued(alpha, 8))) <= 1e-6


# every flux whose flip the largest window [-64, 64] of a 1024-point grid holds with
# two modes to spare; 0.05 from the integers, where the witness's 2|sin(pi alpha)|/pi
# stays above its 0.05 threshold
far_fluxes = st.floats(-62.0, 62.0).filter(lambda a: abs(a - round(a)) >= 0.05)


@settings(PROPERTY, max_examples=15)
@given(far_fluxes)
def test_recovery_widens_the_mode_window_to_the_flip(alpha):
    verdict = recover_flux(sample_kernel(alpha, 1024), obstacle_convex=True)
    assert verdict.ceil_alpha == math.ceil(alpha)
    assert abs(verdict.alpha - alpha) <= 1e-6 and verdict.witness


@PROPERTY
@given(window_fluxes)
def test_modes_round_trip_inside_window(alpha):
    for est, tol in ((_flux_from_eigenvalues(two_valued(alpha, 8), 8), 1e-9),
                     (recover_flux_from_modes(sample_kernel(alpha, 1024)), 1e-4)):
        assert abs(est.alpha - alpha) <= tol and est.ceil_alpha == math.ceil(alpha)


def test_winding_search_ignores_the_diagonal_in_every_block():
    # three row blocks, the last one partial; diagonal entries are not data
    g = perturbed(0.3, 600, [(0.02 + 0.01j, (1, 2))])
    target = conjugate_kernel(g, 2)
    np.fill_diagonal(target.values, 5.0)
    rep = detect_conjugation(g, target, 3)
    assert rep.n == 2 and rep.residual <= 1e-12


def full_residual(s1, s2, n):
    """Max-norm residual of s2 against the whole conjugate_kernel(s1, n), delta included."""
    diff = conjugate_kernel(s1, n).values - s2.values
    np.fill_diagonal(diff, 0.0)
    return max(abs(s2.delta_coeff - s1.delta_coeff * (-1.0) ** n), float(np.max(np.abs(diff))))


def exhaustive_search(s1, s2, n_range):
    """Every winding checked in full: the least residual, ties to the least n."""
    res, n = min((full_residual(s1, s2, n), n) for n in range(-n_range, n_range + 1))
    return ConjugationReport(n=n, residual=res, equivalent=res <= 1e-3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["zero", "delta", "spike", "equal", "conjugated", "noise"]),
       st.integers(8, 72), st.integers(1, 20), st.integers(0, 3), windings, st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
def test_winding_search_matches_exhaustive_when_equivalent(kind, n, block_rows, n_range, w,
                                                           scale, seed):
    # small row blocks give many blocks; "zero" and "delta" kernels have flat spectra
    # that tie some or all windings exactly; a "spike" entry of s2 where s1 is 0 makes
    # a pair that no winding relates
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    s1 = KernelGrid(n=n, values=0 * vals if kind in ("zero", "delta") else vals,
                    delta_coeff=complex(kind != "zero"))
    if kind in ("conjugated", "noise"):
        s2 = conjugate_kernel(s1, w)
        s2.values += scale * (rng.normal(size=(n, n)) if kind == "noise" else 1e-13)
    elif kind == "spike":
        s1.values[-1, 0] = 0.0
        s2 = KernelGrid(n=n, values=np.zeros((n, n), dtype=complex), delta_coeff=1.0)
        s2.values[-1, 0] = 1e3
    else:
        s2 = KernelGrid(n=n, values=s1.values.copy(), delta_coeff=s1.delta_coeff)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smatrix, "_BLOCK_ROWS", block_rows)
        got = detect_conjugation(s1, s2, n_range)
    want = exhaustive_search(s1, s2, n_range)
    if want.equivalent:
        assert got == want
    else:
        # the correlation's candidate, with the full residual of the winding it names
        assert not got.equivalent and abs(got.n) <= n_range
        assert got.residual == full_residual(s1, s2, got.n)
