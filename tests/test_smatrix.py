import math

import numpy as np
import pytest
from test_smatrix_properties import two_valued

from abscatter.errors import DomainError, ResolutionError
from abscatter.inverse import detect_conjugation
from abscatter.smatrix import (
    KernelGrid,
    StripDomain,
    _pv_rows,
    _spectrum,
    compose_with_amplitude,
    conjugate_kernel,
    extract_mode,
    load_kernel_csv,
    perturb_kernel,
    sample_kernel,
    save_kernel_csv,
    strip_integral,
)

LOG2 = math.log(2.0)


class TestModeQuadrature:
    def test_matches_exact_value(self):
        v = extract_mode(sample_kernel(0.5, 1024), 2)
        assert abs(v - 1j) <= 1e-6

    def test_integer_flux(self):
        assert abs(extract_mode(sample_kernel(1.0, 1024), 0) - (-1.0)) <= 1e-12

    def test_negative_mode(self):
        v = extract_mode(sample_kernel(0.25, 1024), -3)
        assert abs(v - np.exp(-1j * math.pi / 4)) <= 1e-6

    def test_sweep_against_spectrum(self):
        modes = np.arange(-8, 9)
        for k in range(1, 20):
            alpha = 0.1 * k
            if abs(alpha - 1.0) < 1e-12:
                continue
            vals = _spectrum(sample_kernel(alpha, 1024))[modes]
            assert np.max(np.abs(vals - two_valued(alpha, 8))) <= 1e-6


class TestKernelGrid:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_flux(self, alpha):
        with pytest.raises(DomainError):
            sample_kernel(alpha, 64)

    def test_zero_flux_grid(self):
        g = sample_kernel(0.0, 64)
        assert np.max(np.abs(g.values)) == 0.0
        assert g.delta_coeff == 1.0 + 0.0j

    def test_antipodal_value(self):
        # at tau = pi: (i/pi) * e^{i*pi}/(1 - e^{i*pi}) = -i/(2*pi)
        g = sample_kernel(0.5, 256)
        assert abs(g.values[128, 0] - (-1j / (2 * math.pi))) <= 1e-12

    def test_near_diagonal_laurent_behavior(self):
        g = sample_kernel(0.5, 256)
        tau = g.theta[3]
        assert abs(g.values[3, 0].real / (-1.0 / (math.pi * tau)) - 1.0) <= 2e-3

    def test_diagonal_zeroed_and_delta_exact(self):
        g = sample_kernel(0.37, 128)
        assert np.all(np.diag(g.values) == 0.0)
        assert g.delta_coeff == complex(math.cos(math.pi * 0.37))

    def test_reflection_symmetry(self, rng):
        # kernel of -alpha = conj of swapped kernel of alpha, re-phased by the
        # ceiling reindex [[-a]] = 1 - [[a]]
        for alpha in rng.uniform(-2.9, 2.9, 10):
            if abs(alpha - round(alpha)) < 1e-6:
                continue
            n = 64
            ga = sample_kernel(alpha, n)
            gm = sample_kernel(-alpha, n)
            th = ga.theta
            dmat = th[:, None] - th[None, :]
            rephase = np.exp(1j * (1 - 2 * math.ceil(alpha)) * dmat)
            pred = np.conj(ga.values.T) * rephase
            np.fill_diagonal(pred, 0.0)
            assert np.max(np.abs(gm.values - pred)) <= 1e-12
            assert abs(gm.delta_coeff - np.conj(ga.delta_coeff)) == 0.0

    def test_huge_even_flux_is_the_identity(self):
        # 1e300 is an even integer; the flux is reduced modulo 2 exactly
        g = sample_kernel(1e300, 64)
        assert g.delta_coeff == 1.0
        assert np.all(g.values == 0.0)

    def test_grid_size_floor(self):
        with pytest.raises(DomainError):
            sample_kernel(0.5, 32)

    @pytest.mark.parametrize("n", [64.5, 64.0, "64", None])
    def test_grid_size_must_be_an_integer(self, n):
        with pytest.raises(DomainError, match=f"grid size n must be an integer, got {n!r}"):
            sample_kernel(0.5, n)

    @pytest.mark.parametrize("n", [True, 2.0, 0])
    def test_size_must_be_a_positive_integer(self, n):
        with pytest.raises(DomainError, match=r"grid size n must be (an integer|>= 1), got"):
            KernelGrid(n=n, values=np.zeros((1, 1)), delta_coeff=1)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_entry_is_named(self, entry):
        vals = np.array(sample_kernel(0.3, 64).values)
        vals[9, 2] = vals[5, 7] = entry     # the first in row-major order is named
        with pytest.raises(DomainError, match=r"kernel values must be finite, .* \(5, 7\)"):
            KernelGrid(n=64, values=vals, delta_coeff=1.0)

    @pytest.mark.parametrize("delta", [math.nan, complex(math.inf, 0.0)])
    def test_non_finite_delta_is_refused(self, delta):
        with pytest.raises(DomainError, match="delta_coeff must be finite"):
            KernelGrid(n=64, values=sample_kernel(0.3, 64).values, delta_coeff=delta)

    def test_entries_whose_sum_overflows_are_accepted(self):
        # every entry is finite; only their sum leaves the floats
        vals = np.full((64, 64), complex(1e308, -1e308))
        assert KernelGrid(n=64, values=vals, delta_coeff=1.0).values[3, 4] == vals[3, 4]

    @pytest.mark.parametrize("n", [10**8, 10**10, 10**400])
    def test_grid_too_large_to_hold(self, n):
        # 1.5e8 GiB, or more than the index type counts (10**400 has no float value
        # either): the grid allocation fails at once, before any per-angle array is built
        with pytest.raises(DomainError, match=rf"{n} x {n} kernel grid of \d+ GiB is more than"):
            sample_kernel(0.3, n)


class TestStripIntegral:
    def test_zero_flux_vanishes(self):
        g = sample_kernel(0.0, 512)
        assert strip_integral(g, StripDomain(0.0, math.pi, 0.1)) == 0.0

    def test_half_flux_log2(self):
        g = sample_kernel(0.5, 2048)
        v = strip_integral(g, StripDomain(0.0, math.pi, 0.025))
        assert abs(-v.real - LOG2) / LOG2 <= 0.05

    def test_quarter_flux_value(self):
        g = sample_kernel(0.25, 2048)
        v = strip_integral(g, StripDomain(0.0, 2.0, 0.02))
        target = 2.0 * math.sin(math.pi / 4) / math.pi * LOG2
        assert abs(-v.real - target) / target <= 0.05

    def test_monotone_approach(self):
        g = sample_kernel(0.5, 4096)
        target = math.pi * math.sin(math.pi * 0.5) / math.pi * LOG2
        devs = []
        for eps in (0.2, 0.1, 0.05):
            v = strip_integral(g, StripDomain(0.0, math.pi, eps))
            devs.append(abs(-v.real - target))
        assert devs[0] > devs[1] - 1e-4 and devs[1] > devs[2] - 1e-4

    def test_placement_on_the_circle(self):
        # a circulant kernel gives each theta the same integral, so strips of one length
        # agree wherever they sit, also one ending at 2*pi: row 0's cell wraps there
        g = sample_kernel(0.3, 1024)
        want = strip_integral(g, StripDomain(0.0, math.pi, 0.05))
        for a in (math.pi, 0.5):
            got = strip_integral(g, StripDomain(a, a + math.pi, 0.05))
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_resolution_guard(self):
        g = sample_kernel(0.5, 128)
        with pytest.raises(ResolutionError):
            strip_integral(g, StripDomain(0.0, math.pi, 0.05))

    def test_strip_domain_invariants(self):
        with pytest.raises(DomainError):
            StripDomain(0.0, 0.1, 0.06)
        with pytest.raises(DomainError):
            StripDomain(0.0, 3.0, math.pi / 3)

    @pytest.mark.parametrize("a, b, eps", [(math.nan, math.pi, 0.5), (0.0, math.nan, 0.1),
                                           (-0.1, 1.0, 0.1), (1.0, 0.5, 0.1), (0.0, 7.0, 0.1),
                                           (math.nan, math.pi, math.nan)])
    def test_strip_angles_are_checked_first(self, a, b, eps):
        # the strip itself refuses its angles, before its width is looked at; a NaN angle
        # by the scalar check, which names it
        named = "strip [ab] must be a finite float" if math.isnan(a + b) else r"0 <= a < b <= 2\*pi"
        with pytest.raises(DomainError, match=named):
            StripDomain(a, b, eps)


class TestCompose:
    def test_zero_amplitude_is_identity(self):
        g = sample_kernel(0.5, 128)
        out = compose_with_amplitude(g, lambda t, w: 0.0)
        assert np.array_equal(out.values, g.values)
        assert out.delta_coeff == g.delta_coeff

    def test_zero_flux_separable_amplitude(self):
        g = sample_kernel(0.0, 128)
        out = compose_with_amplitude(g, lambda t, w: np.cos(t) * np.sin(w))
        th = g.theta
        expected = -2j * math.pi * np.cos(th)[:, None] * np.sin(th)[None, :]
        np.fill_diagonal(expected, 0.0)
        assert np.max(np.abs(out.values - expected)) <= 1e-12

    def test_consistent_with_mode_action(self):
        # with F(t, w) = exp(i t), the row at theta = 0 shifts by
        # -2*pi*i * (kernel action on the first mode)
        g = sample_kernel(0.5, 512)
        out = compose_with_amplitude(g, lambda t, w: np.exp(1j * t))
        target = -2j * math.pi * two_valued(0.5, 1)[2]     # the eigenvalue on mode 1
        diff = out.values[0, 1:] - g.values[0, 1:]
        assert np.max(np.abs(diff - target)) <= 1e-6


    def test_memory_peak(self, alloc_peak):
        # the product is formed in row blocks: F and the result are the only
        # n x n arrays alive, with the amplitude's own temporaries before them
        # (2.25 grids; 3.00 with a full weight copy and dense meshgrids)
        n = 1024
        g = sample_kernel(0.3, n)
        peak = alloc_peak(lambda: compose_with_amplitude(
            g, lambda t, w: 0.01 * np.exp(2j * (t - w))))
        assert peak <= 2.5 * n * n * 16

    @pytest.mark.parametrize("n", [300, 1000])     # the last row block is short
    def test_matches_the_unblocked_product(self, n):
        g = perturb_kernel(sample_kernel(0.37, n), 0.02, 5)
        out = compose_with_amplitude(g, lambda t, w: np.cos(t) * np.sin(2 * w) + 0.1j * t * w)
        th = g.theta
        fmat = np.cos(th)[:, None] * np.sin(2 * th)[None, :] + 0.1j * th[:, None] * th[None, :]
        want = unblocked_composition(g, fmat)
        assert np.max(np.abs(out.values - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("amplitude", [
        pytest.param(lambda t, w: 0.02 - 0.01j, id="python-scalar"),
        pytest.param(lambda t, w: 0.01 * np.cos(t), id="omega-independent-column"),
    ])
    def test_amplitude_shapes(self, amplitude):
        g = sample_kernel(0.37, 300)
        out = compose_with_amplitude(g, amplitude)
        fmat = np.array([[complex(amplitude(t, w)) for w in g.theta] for t in g.theta])
        want = unblocked_composition(g, fmat)
        assert np.max(np.abs(out.values - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("amplitude", [
        pytest.param(lambda t, w: 0.01 * math.cos(t) * math.sin(w), id="scalars-only"),
        pytest.param(lambda t, w: np.ones((3, 3)), id="wrong-shape"),
    ])
    def test_amplitude_that_does_not_broadcast_is_refused(self, amplitude):
        # the amplitude is called once, on the open grids; there is no elementwise form
        with pytest.raises(DomainError, match="broadcast to 300 x 300"):
            compose_with_amplitude(sample_kernel(0.37, 300), amplitude)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_amplitude_is_named(self, bad):
        # one bad value would spread through the product to a whole column
        def amplitude(t, w):
            return np.where((t > 1.0) & (w < 0.5), bad, 0.01 * np.cos(t - w))
        with pytest.raises(DomainError, match="amplitude must be finite"):
            compose_with_amplitude(sample_kernel(0.37, 128), amplitude)


def unblocked_composition(grid, fmat):
    """compose_with_amplitude's formula as one product with the full weight matrix."""
    want = _pv_rows(grid, slice(None)) @ fmat
    want += grid.delta_coeff * fmat
    want *= -2.0j * math.pi
    want += grid.values
    np.fill_diagonal(want, 0.0)
    return want


class TestPerturb:
    @pytest.mark.parametrize("seed, says", [(-1, "seed must be >= 0, got -1"),
                                            (2.5, "seed must be an integer, got 2.5"),
                                            (True, "seed must be an integer, got True")])
    def test_seed_must_be_a_non_negative_integer(self, seed, says):
        with pytest.raises(DomainError, match=says):
            perturb_kernel(sample_kernel(0.3, 64), 0.1, seed)

    def test_memory_peak(self, alloc_peak):
        # the noise is summed in row blocks into the result (1.50 grids; 3.00
        # with a full noise grid beside the result)
        n = 1024
        g = sample_kernel(0.3, n)
        peak = alloc_peak(lambda: perturb_kernel(g, 0.02, 7))
        assert peak <= 2.0 * n * n * 16


class TestModeExtraction:
    def test_grid_eigenvalues(self):
        g = sample_kernel(0.5, 1024)
        exact = two_valued(0.5, 8)
        for m in range(-8, 9):
            assert abs(extract_mode(g, m) - exact[m + 8]) <= 1e-6

    def test_composed_delta_respected(self):
        g = sample_kernel(1.3, 1024)
        exact = two_valued(1.3, 4)
        for m in (-4, 0, 2, 4):
            assert abs(extract_mode(g, m) - exact[m + 4]) <= 1e-6


class TestConjugation:
    def test_matches_shifted_flux_kernel(self):
        g = conjugate_kernel(sample_kernel(0.5, 256), 2)
        target = sample_kernel(2.5, 256)
        assert np.max(np.abs(g.values - target.values)) <= 1e-12
        assert abs(g.delta_coeff - target.delta_coeff) <= 1e-15
        assert g.alpha_hint == 2.5

    @pytest.mark.parametrize("w", [1, 50, 200, -200])
    def test_no_drift_with_winding(self, w):
        # the gauge phase and the kernel read one table of roots of unity, and each
        # entry takes one phase, so the error does not grow with w; 0.375 + w is exact.
        # The drift measures 3.7e-17, 8.3e-17, 7.4e-17, 1.5e-16 (delta 1.1e-16 at w = 1)
        g = conjugate_kernel(sample_kernel(0.375, 1024), w)
        target = sample_kernel(0.375 + w, 1024)
        assert np.max(np.abs(g.values - target.values)) <= 3e-16 * np.max(np.abs(target.values))
        assert abs(g.delta_coeff - target.delta_coeff) <= 3e-16

    @pytest.mark.parametrize("extra", [0, 1])
    def test_huge_winding(self, extra):
        # 10**400 has no float value; 64 divides it, so 10**400 + extra acts as
        # winding extra, its parity read from the integer, and the hint becomes None
        g = sample_kernel(0.3, 64)
        got, want = conjugate_kernel(g, 10**400 + extra), conjugate_kernel(g, extra)
        assert np.array_equal(got.values, want.values) and got.delta_coeff == want.delta_coeff
        assert got.alpha_hint is None and want.alpha_hint == 0.3 + extra

    @pytest.mark.parametrize("winding", [2.5, 2.0, True, "2", None])
    def test_winding_must_be_an_integer(self, winding):
        # int() would truncate 2.5 to 2, and True counts as 1
        g = sample_kernel(0.5, 64)
        for call in (lambda: conjugate_kernel(g, winding),
                     lambda: strip_integral(g, StripDomain(0.5, 2.5, 0.5), winding=winding)):
            with pytest.raises(DomainError, match=f"winding must be an integer, got {winding!r}"):
                call()
        assert np.array_equal(conjugate_kernel(g, np.int64(2)).values,
                              conjugate_kernel(g, 2).values)

    def test_hint_past_the_float_range_is_none(self):
        g = KernelGrid(n=64, values=sample_kernel(0.3, 64).values, delta_coeff=1.0,
                       alpha_hint=1.7e308)
        assert conjugate_kernel(g, 10**308).alpha_hint is None
        assert conjugate_kernel(g, -10**308).alpha_hint == 1.7e308 - 1e308

    def test_mode_space_identity(self):
        # eigenvalue identity e^{i pi (a - n)} = e^{i pi (a + n)} for integer n
        for n in range(-2, 3):
            g = conjugate_kernel(sample_kernel(0.7, 512), n)
            exact = two_valued(0.7 + n, 6)
            for m in (-4, -1, 0, 1, 4):
                assert abs(extract_mode(g, m) - exact[m + 6]) <= 1e-6


def test_kernel_grid_path_takes_no_complex_exp(monkeypatch):
    # grid phases are table lookups, so their bits do not depend on numpy's complex exp loop
    real_exp = np.exp

    def exp(x, *args, **kwargs):
        if np.iscomplexobj(x):
            raise AssertionError("complex np.exp on the kernel-grid path")
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", exp)
    g = sample_kernel(0.3, 128)
    shifted = conjugate_kernel(g, 3)
    perturbed = perturb_kernel(g, 0.05, 7)
    assert math.isfinite(abs(extract_mode(perturbed, 2)))
    assert math.isfinite(abs(strip_integral(g, StripDomain(0.5, 2.5, 0.25), winding=2)))
    assert detect_conjugation(g, shifted, 4).n == 3


def test_kernel_csv_round_trip(tmp_path):
    g = sample_kernel(0.31, 64)
    path = tmp_path / "k.csv"
    save_kernel_csv(g, path)
    g2 = load_kernel_csv(path)
    assert g2.n == g.n
    assert np.array_equal(g2.values, g.values)
    assert g2.delta_coeff == g.delta_coeff
    assert g2.alpha_hint == g.alpha_hint

    g.alpha_hint = None
    save_kernel_csv(g, path)
    g3 = load_kernel_csv(path)
    assert g3.alpha_hint is None
