import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from abscatter.errors import (
    DataInconsistencyError,
    DomainError,
    UndersampledSinogramWarning,
)
from abscatter.gaugefield import (
    GaussianBump,
    GaussianScalar,
    ScalarMixture,
    VectorPotential,
)
from abscatter.xray import (
    Sinogram,
    a_line_sinogram,
    flux_parity_test,
    line_integrals,
    load_sinogram_csv,
    radon_forward,
    radon_invert,
    reconstruction_axes,
    save_sinogram_csv,
    sinogram_axes,
)


def gaussian_v(center, strength, width):
    return VectorPotential(alpha=0.0,
                           v=ScalarMixture((GaussianScalar(center, strength, width),)))


def v_closed_form(comps, pp, ff):
    """Full-line integrals of Gaussian scalars on lines (p, phi)."""
    exact = np.zeros(np.shape(pp))
    for c in comps:
        d = pp + c.center[0] * np.sin(ff) - c.center[1] * np.cos(ff)
        exact += c.strength * math.sqrt(2.0 * math.pi) * c.width \
            * np.exp(-d * d / (2.0 * c.width ** 2))
    return exact


def line_grid(rng, count, p_lo=2.5, p_hi=8.0):
    ps = rng.uniform(p_lo, p_hi, count) * rng.choice([-1.0, 1.0], count)
    phis = rng.uniform(0.0, math.pi, count)
    return ps, phis


class TestLineIntegralV:
    def test_gaussian_closed_form(self):
        # V = exp(-|x|^2): along the unit-offset horizontal line the integral
        # is sqrt(pi) * e^{-1}
        pot = gaussian_v((0.0, 0.0), 1.0, 1.0 / math.sqrt(2.0))
        v = line_integrals(pot, [1.0], [0.0], "V")[0, 0]
        assert abs(v - math.sqrt(math.pi) * math.exp(-1.0)) <= 1e-8

    def test_line_outside_support(self):
        pot = gaussian_v((0.0, 0.0), 1.0, 0.3)
        assert line_integrals(pot, [50.0], [0.7], "V")[0, 0] == 0.0

    def test_zero_potential(self):
        assert line_integrals(VectorPotential(alpha=0.3), [1.0], [0.0], "V")[0, 0] == 0.0


class TestLineIntegralA:
    def test_pure_flux_half_turn(self):
        pot = VectorPotential(alpha=0.5)
        raw, raw_other = line_integrals(pot, [1.0, -1.0], [0.0], "A")[:, 0]
        assert abs(abs(raw) - 0.5 * math.pi) <= 1e-12
        assert abs(raw + raw_other) <= 1e-12  # opposite sides, opposite signs

    def test_gradient_part_integrates_to_zero(self):
        pot = VectorPotential(alpha=0.0,
                              grad_l=ScalarMixture((GaussianScalar((1.0, 0.0), 0.8, 1.0),)))
        raw = line_integrals(pot, [2.0], [0.3], "A")[0, 0]
        assert abs(raw) <= 1e-8

    def test_line_through_origin_rejected(self):
        with pytest.raises(DomainError):
            line_integrals(VectorPotential(alpha=0.5), [0.0], [0.0], "A")

    @pytest.mark.parametrize("offsets, angles, quantity, match", [
        ([1.0], [0.0], "B", "'V' or 'A'"),
        (1.0, [0.0], "A", "1-D"),
        ([[1.0, 2.0], [3.0, 4.0]], [0.0, 0.5], "V", "1-D"),
    ])
    def test_bad_arguments_rejected(self, offsets, angles, quantity, match):
        with pytest.raises(DomainError, match=match):
            line_integrals(VectorPotential(alpha=0.5), offsets, angles, quantity)

    def test_gauge_pair_even_winding(self, rng):
        base = VectorPotential(alpha=0.4, bumps=(GaussianBump((1.0, 0.0), 0.9, 0.8),))
        # the gauge e^{i (2 theta + L)}: flux alpha + 2, and grad L added to A'
        other = replace(base, alpha=base.alpha + 2,
                        grad_l=ScalarMixture((GaussianScalar((0.5, 0.5), 0.6, 0.9),)))
        ps, phis = line_grid(rng, 50)
        for p, phi in zip(ps, phis):
            r1 = line_integrals(base, [p], [phi], "A")[0, 0]
            r2 = line_integrals(other, [p], [phi], "A")[0, 0]
            assert abs(np.exp(1j * r1) - np.exp(1j * r2)) <= 1e-8
            k = (r2 - r1) / (2.0 * math.pi)
            assert abs(k - round(k)) <= 1e-9

    def test_odd_winding_flips_phase(self, rng):
        base = VectorPotential(alpha=0.4)
        other = replace(base, alpha=base.alpha + 1)
        ps, phis = line_grid(rng, 10)
        for p, phi in zip(ps, phis):
            ph1 = np.exp(1j * line_integrals(base, [p], [phi], "A")[0, 0])
            ph2 = np.exp(1j * line_integrals(other, [p], [phi], "A")[0, 0])
            assert abs(ph1 + ph2) <= 1e-10  # phases differ by e^{i pi}


class TestRadonForward:
    def test_matches_adaptive_line_op(self):
        # independent oracle: adaptive quadrature along each line, over the
        # component's envelope window
        from scipy.integrate import quad

        pot = gaussian_v((3.0, 0.0), 1.0, 0.5)
        sino = radon_forward(pot, 64, 64, 8.0)
        for i, j in [(5, 7), (40, 33), (63, 0)]:
            p, phi = sino.offsets[i], sino.angles[j]
            x0 = p * np.array([-math.sin(phi), math.cos(phi)])
            omega = np.array([math.cos(phi), math.sin(phi)])
            sc = float((np.array([3.0, 0.0]) - x0) @ omega)
            ref, _ = quad(lambda s: float(pot.v((x0 + s * omega)[None])[0]), sc - 4.25, sc + 4.25,
                          epsabs=1e-10, epsrel=1e-10, limit=200)
            assert abs(sino.values[i, j] - ref) <= 1e-8
            assert abs(line_integrals(pot, [p], [phi], "V")[0, 0] - ref) <= 1e-8

    def test_narrow_component_large_p_max(self):
        # the integration window depends on the potential's reach, not on
        # p_max: a wide offset range must not thin out the nodes
        w, d0 = 0.15, 5.5
        pot = gaussian_v((d0, 0.0), 1.0, w)
        sino = radon_forward(pot, 128, 180, 50.0)
        pp, ff = np.meshgrid(sino.offsets, sino.angles, indexing="ij")
        d = pp + d0 * np.sin(ff)  # signed distance of the center from the line
        exact = math.sqrt(2.0 * math.pi) * w * np.exp(-d * d / (2.0 * w * w))
        assert float(np.max(np.abs(sino.values - exact))) <= 1e-8

    @pytest.mark.parametrize("center, width", [((20.0, 0.0), 0.05), ((3.0, 0.0), 1e-4)])
    def test_narrow_component_integrates_on_its_own_disk(self, center, width):
        # each component has its own 51-node rule on its own disk |y - c| <= 8.5 w:
        # a narrow component, near or far, neither refines the rule of the wide
        # one nor widens its window
        comps = (GaussianScalar((0.0, 0.0), 1.0, 1.0), GaussianScalar(center, 1.0, width))
        pot = VectorPotential(alpha=0.0, v=ScalarMixture(comps))
        start = time.perf_counter()
        sino = radon_forward(pot, 128, 180, 25.0)
        assert time.perf_counter() - start < 1.0
        pp, ff = np.meshgrid(sino.offsets, sino.angles, indexing="ij")
        assert float(np.max(np.abs(sino.values - v_closed_form(comps, pp, ff)))) <= 1e-10
        # lines through and beside the narrow peak, which the grid above misses
        phi = np.array([0.3, 1.2, 2.5])
        pp = (-center[0] * np.sin(phi) + center[1] * np.cos(phi)
              + width * np.array([[0.0], [0.5], [2.0]]))
        ff = np.broadcast_to(phi, pp.shape)
        got = np.reshape([line_integrals(pot, [p], [f], "V")[0, 0]
                          for p, f in zip(pp.flat, ff.flat)], pp.shape)
        assert float(np.max(np.abs(got - v_closed_form(comps, pp, ff)))) <= 1e-10

    # 10**400 has no float value; at 1e308 the offsets' span 2 p_max overflows
    @pytest.mark.parametrize("p_max", [0.0, -8.0, math.nan, math.inf, 10**400, 1e308])
    def test_bad_p_max_rejected(self, p_max):
        with pytest.raises(DomainError, match="p_max"):
            radon_forward(gaussian_v((0, 0), 1, 1), 64, 64, p_max)

    def test_linearity(self):
        p1 = gaussian_v((2.0, 1.0), 0.8, 0.6)
        p2 = gaussian_v((-1.0, -2.0), 1.1, 0.5)
        both = VectorPotential(alpha=0.0, v=ScalarMixture(p1.v.components + p2.v.components))
        s1 = radon_forward(p1, 64, 64, 8.0)
        s2 = radon_forward(p2, 64, 64, 8.0)
        s12 = radon_forward(both, 64, 64, 8.0)
        assert np.max(np.abs(s12.values - s1.values - s2.values)) <= 1e-10

    def test_radial_symmetry(self):
        pot = gaussian_v((0.0, 0.0), 1.0, 0.7)
        sino = radon_forward(pot, 64, 90, 6.0)
        spread = np.max(sino.values, axis=1) - np.min(sino.values, axis=1)
        assert float(np.max(spread)) <= 1e-8

    def test_grid_size_floor(self):
        with pytest.raises(DomainError):
            radon_forward(gaussian_v((0, 0), 1, 1), 32, 64, 8.0)

    @pytest.mark.parametrize("n_p, n_phi", [(10**30, 64), (64, 10**30)])
    def test_grid_too_large_to_hold(self, n_p, n_phi):
        # the sinogram's size is probed before its axes are built, for the V sinogram
        # and for the axes of an A sinogram alike
        says = rf"a {n_p} x {n_phi} sinogram is more than can be allocated"
        with pytest.raises(DomainError, match=says):
            radon_forward(gaussian_v((0, 0), 1, 1), n_p, n_phi, 8.0)
        with pytest.raises(DomainError, match=says):
            sinogram_axes(n_p, n_phi, 8.0)


class TestRadonInvert:
    def test_zero_phantom(self):
        sino = Sinogram(offsets=np.linspace(-8, 8, 128),
                        angles=np.arange(128) * math.pi / 128,
                        values=np.zeros((128, 128)))
        img = radon_invert(sino, 64)
        assert np.max(np.abs(img)) <= 1e-8

    def test_gaussian_phantom_recovery(self):
        pot = gaussian_v((3.0, 0.0), 1.0, 0.5)
        sino = radon_forward(pot, 128, 180, 8.0)
        img = radon_invert(sino, 128)
        axes = reconstruction_axes(sino, 128)
        xx, yy = np.meshgrid(axes, axes, indexing="ij")
        truth = np.exp(-((xx - 3.0) ** 2 + yy ** 2) / (2 * 0.5 ** 2))
        r = np.hypot(xx, yy)
        annulus = (r > 2.2) & (r < 7.0)
        rel = np.linalg.norm((img - truth)[annulus]) / np.linalg.norm(truth[annulus])
        assert rel <= 0.05
        peak = np.unravel_index(np.argmax(img), img.shape)
        pixel = axes[1] - axes[0]
        assert abs(axes[peak[0]] - 3.0) <= pixel and abs(axes[peak[1]]) <= pixel

    def test_interior_difference_invisible_outside(self):
        # phantoms differing only inside |x| < 2 reconstruct identically
        # outside |x| > 2.2, mirroring support-theorem recovery
        inner1 = gaussian_v((0.5, 0.0), 1.0, 0.35)
        inner2 = gaussian_v((-0.4, 0.3), -0.7, 0.3)
        outer = GaussianScalar((3.5, 1.0), 1.0, 0.5)
        pot1 = VectorPotential(alpha=0.0, v=ScalarMixture((*inner1.v.components, outer)))
        pot2 = VectorPotential(alpha=0.0, v=ScalarMixture((*inner2.v.components, outer)))
        s1 = radon_forward(pot1, 128, 180, 8.0)
        s2 = radon_forward(pot2, 128, 180, 8.0)
        i1 = radon_invert(s1, 128)
        i2 = radon_invert(s2, 128)
        axes = reconstruction_axes(s1, 128)
        xx, yy = np.meshgrid(axes, axes, indexing="ij")
        r = np.hypot(xx, yy)
        region = (r > 2.2) & (r < 7.0)
        truth = np.exp(-((xx - 3.5) ** 2 + (yy - 1.0) ** 2) / (2 * 0.5 ** 2))
        rel = np.linalg.norm((i1 - i2)[region]) / np.linalg.norm(truth[region])
        assert rel <= 0.05

    def test_more_angles_reduce_error(self):
        # a sharp off-center phantom makes angular sampling the accuracy
        # bottleneck (smooth centered phantoms sit at the apodization floor,
        # where the angle count is irrelevant)
        pot = gaussian_v((5.5, 0.0), 1.0, 0.15)

        def rel_err(n_phi):
            sino = radon_forward(pot, 512, n_phi, 8.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UndersampledSinogramWarning)
                img = radon_invert(sino, 192)
            axes = reconstruction_axes(sino, 192)
            xx, yy = np.meshgrid(axes, axes, indexing="ij")
            truth = np.exp(-((xx - 5.5) ** 2 + yy ** 2) / (2 * 0.15 ** 2))
            r = np.hypot(xx, yy)
            annulus = (r > 2.2) & (r < 7.0)
            return np.linalg.norm((img - truth)[annulus]) / np.linalg.norm(truth[annulus])

        assert rel_err(180) < 0.6 * rel_err(90)

    @pytest.mark.parametrize("n_p, grid_n, match", [
        (128, 0, "grid_n >= 1"), (128, -5, "grid_n >= 1"), (1, 64, "at least 2 offsets"),
        # no offsets at all falls short of FBP's 2 as well; the Sinogram refuses it first
        pytest.param(0, 64, "offsets and angles must be nonempty", id="0-64-at least 2 offsets"),
        (128, 10**21, "more than can be allocated"),
        (128, 10.5, "grid_n must be an integer, got 10.5"),
    ])
    def test_bad_image_or_offsets_rejected(self, n_p, grid_n, match):
        # refused before the filter runs: 10**21 pixels a side exceeds numpy's
        # maximum array size, so nothing is allocated; no offsets, when the sinogram is built
        with pytest.raises(DomainError, match=match):
            radon_invert(Sinogram(offsets=np.linspace(-8, 8, n_p),
                                  angles=np.arange(64) * math.pi / 64,
                                  values=np.zeros((n_p, 64))), grid_n)

    def test_undersampling_warning(self):
        sino = Sinogram(offsets=np.linspace(-8, 8, 128),
                        angles=np.arange(32) * math.pi / 32,
                        values=np.zeros((128, 32)))
        with pytest.warns(UndersampledSinogramWarning):
            radon_invert(sino, 128)


class TestALineSinogram:
    def test_matches_closed_form(self):
        # bump: sqrt(2 pi) S q / w e^{-q^2/2w^2} with q the signed distance
        # (x0 - c) x omega; gradient pieces integrate to 0; flux -alpha pi sgn p
        bump = GaussianBump((1.5, -0.5), 1.2, 0.7)
        pot = VectorPotential(alpha=0.37, bumps=(bump,),
                              grad_l=ScalarMixture((GaussianScalar((0.0, 1.0), 0.6, 1.1),)))
        offsets = np.concatenate([np.linspace(-9.0, -0.5, 12), np.linspace(0.5, 9.0, 12)])
        angles = np.linspace(0.0, math.pi, 16, endpoint=False)
        sino = a_line_sinogram(pot, offsets, angles)
        pp, ff = np.meshgrid(offsets, angles, indexing="ij")
        cx, cy = bump.center
        q = cy * np.cos(ff) - cx * np.sin(ff) - pp
        w = bump.width
        exact = -pot.alpha * math.pi * np.sign(pp) \
            + bump.strength * q * math.sqrt(2.0 * math.pi) / w * np.exp(-q * q / (2.0 * w * w))
        assert float(np.max(np.abs(sino.values - exact))) <= 1e-8

    def test_zero_offset_rejected_before_integrating(self, monkeypatch):
        def no_integration(self, x):
            raise AssertionError("integrated before checking the offsets")

        monkeypatch.setattr(VectorPotential, "aprime", no_integration)
        pot = VectorPotential(alpha=0.5, bumps=(GaussianBump((1.0, 0.0), 0.9, 0.8),))
        with pytest.raises(DomainError, match="origin"):
            a_line_sinogram(pot, np.linspace(-8.0, 8.0, 65), np.arange(8) * math.pi / 8)

    @pytest.mark.parametrize("p, phi", [(math.nan, 0.5), (2.0, math.inf)])
    def test_non_finite_line_rejected(self, p, phi):
        pot = VectorPotential(alpha=0.5, bumps=(GaussianBump((1.0, 0.0), 0.9, 0.8),))
        with pytest.raises(DomainError, match="finite"):
            a_line_sinogram(pot, [p], [phi])

    def test_huge_flux_is_refused_naming_it(self):
        # alpha * pi, each line's flux part, overflows at alpha = 1e308
        with pytest.raises(DomainError, match=r"flux alpha = 1e\+308 times the angle"):
            a_line_sinogram(VectorPotential(alpha=1e308), *sinogram_axes(4, 4, 8.0))

    def test_flux_part_plus_aprime_past_the_floats_is_refused_naming_both(self):
        # each line's flux part, 5.7e307 pi, and its A' integral, near 2e308 e^-1/2, are
        # finite, but their sum overflows on both sides of the origin, with no warning (an
        # error under this suite)
        pot = VectorPotential(alpha=5.7e307, bumps=(GaussianBump((0.0, 0.0), 8e307, 1.0),))
        for offsets in ([-1.0, 1.0], [-1.0], [1.0]):
            with pytest.raises(DomainError, match=r"flux alpha = 5.7e\+307 times the angle its "
                                                  r"path sweeps, plus the integral of A'"):
                line_integrals(pot, offsets, [0.0], "A")
        assert np.all(np.isfinite(line_integrals(pot, [-1.0, 1.0], [0.0], "V")))

    @pytest.mark.parametrize("pot, quantity", [
        (VectorPotential(alpha=0.0, v=ScalarMixture((GaussianScalar((0, 0), 1.7e308, 1e10),))),
         "V"),
        (VectorPotential(alpha=0.0, bumps=(GaussianBump((0, 0), 1.7e308, 1e10),)), "A"),
    ])
    def test_a_wide_strong_component_whose_integral_overflows_is_refused_naming_it(self, pot,
                                                                                  quantity):
        # each field value is finite, but the segment rule's sum times the chord's half
        # length, 8.5e10, is not; no warning (an error under this suite)
        with pytest.raises(DomainError, match=r"component of strength 1.7e\+308 and width "
                                              r"1e\+10 overflows"):
            line_integrals(pot, [-1e10, 1e10], [0.0], quantity)


class TestSinogram:
    def test_empty_axes_are_refused(self):
        # the grid's p_max, its reconstruction axes and its CSV form all need a line
        with pytest.raises(DomainError, match="sinogram offsets and angles must be nonempty"):
            Sinogram(offsets=[], angles=[], values=np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_refused_naming_the_first(self, bad):
        values = np.zeros((3, 2))
        values[1, 0] = values[2, 1] = bad
        with pytest.raises(DomainError, match=rf"sinogram values must be finite, got {bad} at "
                                              r"entry \(1, 0\)"):
            Sinogram(offsets=[-2.0, 1.0, 2.0], angles=[0.0, 1.0], values=values)

    def test_parity_data_with_a_nan_is_refused_as_data(self):
        # a NaN would pass the phase comparison (nan > 1e-6 is false) and be blamed on the
        # certificate, "differs across lines"
        offsets, angles = np.array([-3.0, 3.0]), np.array([0.0, 1.0])
        values = line_integrals(VectorPotential(alpha=0.4), offsets, angles, "A")
        values[0, 1] = math.nan
        with pytest.raises(DomainError, match=r"got nan at entry \(0, 1\)"):
            flux_parity_test(Sinogram(offsets, angles, values), Sinogram(offsets, angles, values))


class TestParity:
    def setup_method(self):
        self.offsets = np.concatenate([np.linspace(-8.0, -2.5, 10),
                                       np.linspace(2.5, 8.0, 10)])
        self.angles = np.linspace(0.0, math.pi, 8, endpoint=False)

    def test_same_potential(self):
        pot = VectorPotential(alpha=0.4, bumps=(GaussianBump((1.0, 0.0), 0.9, 0.8),))
        s = a_line_sinogram(pot, self.offsets, self.angles)
        rep = flux_parity_test(s, s)
        assert rep.matched and rep.certificate == 0

    def test_flux_plus_two(self):
        base = VectorPotential(alpha=0.4, bumps=(GaussianBump((1.0, 0.0), 0.9, 0.8),))
        other = replace(base, alpha=base.alpha + 2)
        s1 = a_line_sinogram(base, self.offsets, self.angles)
        s2 = a_line_sinogram(other, self.offsets, self.angles)
        rep = flux_parity_test(s1, s2)
        assert rep.matched and rep.certificate == 2
        assert rep.max_phase_discrepancy <= 1e-6

    def test_flux_plus_one_mismatch(self):
        s1 = a_line_sinogram(VectorPotential(alpha=0.4), self.offsets, self.angles)
        s2 = a_line_sinogram(VectorPotential(alpha=1.4), self.offsets, self.angles)
        rep = flux_parity_test(s1, s2)
        assert not rep.matched and rep.certificate is None

    def test_inconsistent_data_rejected(self):
        s1 = a_line_sinogram(VectorPotential(alpha=0.4), self.offsets, self.angles)
        tweaked = Sinogram(offsets=s1.offsets, angles=s1.angles, values=s1.values.copy())
        tweaked.values[3, 4] += 2.0 * math.pi  # same phase, broken raw integer
        with pytest.raises(DataInconsistencyError):
            flux_parity_test(s1, tweaked)

    def test_grid_mismatch_rejected(self):
        s1 = a_line_sinogram(VectorPotential(alpha=0.4), self.offsets, self.angles)
        s2 = a_line_sinogram(VectorPotential(alpha=0.4), self.offsets + 0.1, self.angles)
        with pytest.raises(DomainError):
            flux_parity_test(s1, s2)


def test_sinogram_csv_round_trip(tmp_path):
    pot = gaussian_v((2.0, 0.5), 1.0, 0.6)
    sino = radon_forward(pot, 64, 64, 6.0)
    path = tmp_path / "sino.csv"
    save_sinogram_csv(sino, path)
    back = load_sinogram_csv(path)
    assert np.array_equal(back.values, sino.values)
    assert np.array_equal(back.offsets, sino.offsets)
    assert np.array_equal(back.angles, sino.angles)


def test_complex_sinogram_csv_round_trip(tmp_path):
    n_p, n_phi = 64, 64
    rng = np.random.default_rng(3)
    values = np.exp(1j * rng.uniform(-math.pi, math.pi, (n_p, n_phi)))
    sino = Sinogram(offsets=np.linspace(-4, 4, n_p),
                    angles=np.arange(n_phi) * math.pi / n_phi,
                    values=values)
    path = tmp_path / "phase.csv"
    save_sinogram_csv(sino, path)
    back = load_sinogram_csv(path)
    assert np.array_equal(back.values, sino.values)
