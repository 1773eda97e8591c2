import math

import numpy as np
import pytest

from abscatter.errors import (
    DataInconsistencyError,
    DomainError,
    IntegerFluxError,
    TooSingularError,
)
from abscatter.inverse import (
    _multiplied_kernel_witness,
    default_strips,
    detect_conjugation,
    recover_flux,
    recover_flux_from_modes,
    recover_flux_from_strip,
    verdict_to_json,
)
from abscatter.smatrix import (
    KernelGrid,
    StripDomain,
    build_partial_wave,
    _strip_integral,
    conjugate_kernel,
    sample_kernel,
    strip_integral,
)

STRIPS = [StripDomain(0.0, math.pi, e) for e in (0.1, 0.05, 0.025)]


def random_noninteger_fluxes(rng, count, lo=-3.0, hi=3.0, margin=0.02):
    out = []
    while len(out) < count:
        a = float(rng.uniform(lo, hi))
        if abs(a - round(a)) > margin:
            out.append(a)
    return out


def smooth_perturbation(n, sup, seed=0):
    rng = np.random.default_rng(seed)
    th = 2.0 * math.pi * np.arange(n) / n
    noise = np.zeros((n, n), dtype=complex)
    for _ in range(3):
        a, b = rng.integers(-3, 4, size=2)
        c = rng.normal() + 1j * rng.normal()
        noise += c * np.exp(1j * (a * th[:, None] + b * th[None, :]))
    noise *= sup / np.max(np.abs(noise))
    return noise


def perturbed_kernel(alpha, n, sup, seed=0):
    g = sample_kernel(alpha, n)
    vals = g.values + smooth_perturbation(n, sup, seed)
    np.fill_diagonal(vals, 0.0)
    return KernelGrid(n=n, values=vals, delta_coeff=g.delta_coeff, alpha_hint=None)


class TestModeRecovery:
    def test_half_flux(self):
        est = recover_flux_from_modes(build_partial_wave(0.5, 8))
        assert abs(est.alpha - 0.5) <= 1e-9

    def test_one_point_seven(self):
        est = recover_flux_from_modes(build_partial_wave(1.7, 8))
        assert est.ceil_alpha == 2
        assert abs(est.alpha - 1.7) <= 1e-9

    def test_integer_flux_degenerate(self):
        with pytest.raises(IntegerFluxError):
            recover_flux_from_modes(build_partial_wave(0.0, 8))
        with pytest.raises(IntegerFluxError):
            recover_flux_from_modes(build_partial_wave(2.0, 8))

    def test_empty_mode_window(self):
        for s in (build_partial_wave(0.3, 8), sample_kernel(0.3, 256)):
            with pytest.raises(DomainError, match="mode window is empty"):
                recover_flux_from_modes(s, m_max=0)

    def test_flip_outside_mode_window(self):
        # exact data: every eigenvalue in [-8, 8] is e^{-i pi 8.5}
        with pytest.raises(IntegerFluxError, match=r"outside the mode window \[-8, 8\]"):
            recover_flux_from_modes(build_partial_wave(8.5, 10), m_max=8)
        # grid quadrature leaves 1e-4 of noise on those equal eigenvalues,
        # which no two-valued spectrum fits
        with pytest.raises(DataInconsistencyError, match=r"outside the mode window \[-8, 8\]"):
            recover_flux_from_modes(sample_kernel(9.3, 256))

    def test_round_trip_twenty_random_fluxes(self, rng):
        for a in random_noninteger_fluxes(rng, 20):
            est = recover_flux_from_modes(build_partial_wave(a, 8))
            assert abs(est.alpha - a) <= 1e-9
            assert est.ceil_alpha == math.ceil(a)

    def test_round_trip_from_kernel_grids(self, rng):
        for a in random_noninteger_fluxes(rng, 6):
            est = recover_flux_from_modes(sample_kernel(a, 1024))
            assert abs(est.alpha - a) <= 1e-4

    def test_estimate_consistency_fields(self):
        est = recover_flux_from_modes(build_partial_wave(-1.3, 8))
        assert math.ceil(est.alpha) == est.ceil_alpha
        assert abs(math.sin(math.pi * est.alpha) - est.sin_pi_alpha) <= 1e-12


class TestStripRecovery:
    def test_clean_half_flux(self):
        est = recover_flux_from_strip(sample_kernel(0.5, 2048), STRIPS)
        assert abs(est.sin_pi_alpha - 1.0) <= 0.05

    def test_zero_flux(self):
        est = recover_flux_from_strip(sample_kernel(0.0, 2048), STRIPS)
        assert abs(est.sin_pi_alpha) <= 1e-4

    def test_perturbed_quarter_flux(self):
        grid = perturbed_kernel(0.25, 2048, sup=0.05)
        est = recover_flux_from_strip(grid, STRIPS)
        assert abs(est.sin_pi_alpha - math.sin(math.pi / 4)) / math.sin(math.pi / 4) <= 0.05

    def test_sign_recovered_for_reflected_flux(self):
        est = recover_flux_from_strip(sample_kernel(1.7, 2048), STRIPS)
        assert abs(est.sin_pi_alpha - math.sin(1.7 * math.pi)) <= 0.05
        assert est.sin_pi_alpha < 0.0 and est.alpha is None

    def test_perturbation_robustness_bound(self):
        target = math.sin(math.pi * 0.3)
        for sup in (0.02, 0.05, 0.1):
            est = recover_flux_from_strip(perturbed_kernel(0.3, 2048, sup, seed=1), STRIPS)
            assert abs(est.sin_pi_alpha - target) <= 0.5 * sup + 0.02

    def test_too_singular_perturbation_detected(self):
        g = sample_kernel(0.4, 2048)
        th = g.theta
        dmat = th[:, None] - th[None, :]
        np.fill_diagonal(dmat, 1.0)
        # |tau|^{-1}-type perturbation defeats the eps-linear extrapolation model
        rough = 0.3 / np.abs(np.exp(1j * dmat) - 1.0) ** 1.5
        vals = g.values + rough
        np.fill_diagonal(vals, 0.0)
        gp = KernelGrid(n=2048, values=vals, delta_coeff=g.delta_coeff)
        with pytest.raises(TooSingularError):
            recover_flux_from_strip(gp, [StripDomain(0.0, math.pi, e)
                                         for e in (0.2, 0.1, 0.05, 0.025)])

    @pytest.mark.parametrize("sup", [0.02, 0.05])
    def test_smooth_perturbations_settle(self, sup):
        # the `kernel --perturb` recipe, seeds 0-23: quadrature noise of about
        # 1e-3 in the estimates must not read as a too-singular perturbation
        g = sample_kernel(0.5, 1024)
        th = g.theta
        for seed in range(24):
            rng = np.random.default_rng(seed)
            noise = np.zeros((g.n, g.n), dtype=complex)
            for _ in range(3):
                a, b = rng.integers(-3, 4, size=2)
                c = rng.normal() + 1j * rng.normal()
                noise += c * np.outer(np.exp(1j * a * th), np.exp(1j * b * th))
            vals = g.values + noise * (sup / np.max(np.abs(noise)))
            np.fill_diagonal(vals, 0.0)
            grid = KernelGrid(n=g.n, values=vals, delta_coeff=g.delta_coeff, alpha_hint=None)
            verdict = recover_flux(grid, obstacle_convex=True)
            assert abs(verdict.alpha - 0.5) <= 1e-6
            assert abs(verdict.sin_pi_alpha - 1.0) <= 5e-3

    def test_strip_preconditions(self):
        g = sample_kernel(0.5, 1024)
        with pytest.raises(DomainError):
            recover_flux_from_strip(g, STRIPS[:1])
        with pytest.raises(DomainError):
            recover_flux_from_strip(g, [STRIPS[1], STRIPS[0]])


class TestConjugation:
    def test_self_is_zero(self):
        g = sample_kernel(0.5, 256)
        rep = detect_conjugation(g, g, 3)
        assert rep.n == 0 and rep.residual <= 1e-12 and rep.equivalent

    def test_recovers_each_winding(self):
        g = sample_kernel(0.5, 256)
        for n in range(-3, 4):
            rep = detect_conjugation(g, conjugate_kernel(g, n), 3)
            assert rep.n == n and rep.residual <= 1e-9

    def test_conjugate_equals_shifted_flux(self):
        g = sample_kernel(0.5, 256)
        for n in (-2, -1, 1, 2):
            shifted = sample_kernel(0.5 + n, 256)
            rep = detect_conjugation(g, shifted, 3)
            assert rep.n == n and rep.residual <= 1e-9

    def test_memory_peak_below_one_kernel(self, alloc_peak):
        # the search walks row blocks with rank-one phases: no n x n temporaries
        n = 1024
        g = sample_kernel(0.3, n)
        shifted = conjugate_kernel(g, 1)
        peak = alloc_peak(lambda: detect_conjugation(g, shifted, 3))
        assert peak < n * n * 16

    def test_inequivalent_fluxes(self):
        rep = detect_conjugation(sample_kernel(0.5, 256), sample_kernel(0.7, 256), 3)
        assert not rep.equivalent and rep.residual > 1e-3


class TestWitness:
    @pytest.mark.parametrize("alpha, m", [(0.3, 1), (1.7, 2), (-0.6, 1)])
    def test_matches_the_full_multiplied_kernel(self, alpha, m):
        # the strips of (e^{2im(theta-theta')} - 1) K, formed on the gathered
        # entries only, against the same strips of the whole multiplied kernel
        grid = perturbed_kernel(alpha, 1024, sup=0.05, seed=1)
        full = conjugate_kernel(grid, 2 * m).values
        full -= grid.values
        mult = KernelGrid(n=grid.n, values=full, delta_coeff=0.0)
        for st in STRIPS:
            ref = strip_integral(mult, st)
            assert abs(_strip_integral(grid, st, winding=2 * m) - ref) <= 2e-16 * abs(ref)

    def test_verdicts(self):
        assert _multiplied_kernel_witness(sample_kernel(0.5, 1024), STRIPS)
        assert not _multiplied_kernel_witness(sample_kernel(2.0, 1024), STRIPS)

    def test_memory_peak_below_one_kernel(self, alloc_peak):
        n = 1024
        g = sample_kernel(0.3, n)
        assert alloc_peak(lambda: _multiplied_kernel_witness(g, STRIPS)) < n * n * 16


class TestPipeline:
    def test_clean_half_flux_with_witness(self):
        verdict = recover_flux(sample_kernel(0.5, 2048), obstacle_convex=True, strips=STRIPS)
        assert abs(verdict.alpha - 0.5) <= 1e-9
        assert verdict.witness
        assert abs(verdict.sin_pi_alpha - 1.0) <= 0.05

    def test_zero_flux_degenerate(self):
        with pytest.raises(IntegerFluxError):
            recover_flux(sample_kernel(0.0, 1024), obstacle_convex=True)

    def test_perturbed_one_point_seven(self):
        grid = perturbed_kernel(1.7, 2048, sup=0.05, seed=2)
        verdict = recover_flux(grid, obstacle_convex=True, strips=STRIPS)
        assert abs(verdict.alpha - 1.7) <= 1e-4
        assert abs(verdict.sin_pi_alpha - math.sin(1.7 * math.pi)) <= 0.05
        assert verdict.witness

    def test_convexity_hypothesis_required(self):
        with pytest.raises(DomainError):
            recover_flux(sample_kernel(0.5, 1024), obstacle_convex=False)

    def test_strip_and_mode_components_agree(self):
        verdict = recover_flux(sample_kernel(-0.6, 2048), obstacle_convex=True, strips=STRIPS)
        assert abs(math.sin(math.pi * verdict.alpha) - verdict.sin_pi_alpha) <= 0.05

    @pytest.mark.parametrize("alpha", [2.37, 3.8, -1.3])
    def test_strips_read_in_the_gauge_of_the_modes(self, alpha):
        # conjugated by 1 - ceil(alpha), the strips see a flux in (0, 1]:
        # 6.7e-3, 9.0e-3 and 1.6e-3 off when read in the original gauge
        verdict = recover_flux(sample_kernel(alpha, 1024), obstacle_convex=True)
        assert abs(verdict.sin_pi_alpha - math.sin(math.pi * alpha)) <= 1e-3

    def test_strip_reading_is_the_same_in_every_gauge(self):
        grid = sample_kernel(0.3, 1024)
        base = recover_flux(grid, obstacle_convex=True, strips=STRIPS)
        # ceil(alpha) = 1 already: the strips are recover_flux_from_strip's, bit for bit
        assert base.sin_pi_alpha == recover_flux_from_strip(grid, STRIPS).sin_pi_alpha
        for w in (-2, -1, 1, 3):
            shifted = recover_flux(conjugate_kernel(grid, w), obstacle_convex=True, strips=STRIPS)
            # flux alpha + w: sin(pi*(alpha + w)) = (-1)^w sin(pi*alpha)
            assert abs(shifted.sin_pi_alpha - (-1) ** w * base.sin_pi_alpha) <= 1e-12

    def test_default_strip_schedule(self):
        # halving from max(0.1, 8h), never below 4 grid cells h = 2*pi/n
        assert [st.eps for st in default_strips(1024, 0.0, math.pi)] == [0.1, 0.05, 0.025]
        for n in (128, 256, 512, 4096):
            strips = default_strips(n, 0.5, 2.0)
            assert {(st.a, st.b) for st in strips} == {(0.5, 2.0)}
            assert strips[-1].eps >= 4.0 * 2.0 * math.pi / n and len(strips) >= 2

    def test_verdict_json_fields(self):
        verdict = recover_flux(sample_kernel(0.5, 1024), obstacle_convex=True)
        import json
        payload = json.loads(verdict_to_json(verdict))
        assert set(payload) == {"alpha", "ceil_alpha", "sin_pi_alpha", "residual", "witness"}
