import dataclasses
import json
import math

import numpy as np
import pytest
from test_smatrix_properties import two_valued

from abscatter import inverse
from abscatter.errors import (
    DataInconsistencyError,
    DomainError,
    IntegerFluxError,
    TooSingularError,
)
from abscatter.inverse import (
    _flux_from_eigenvalues,
    default_strips,
    detect_conjugation,
    recover_flux,
    recover_flux_from_modes,
    recover_flux_from_strip,
)
from abscatter.smatrix import (
    KernelGrid,
    StripDomain,
    _spectrum,
    conjugate_kernel,
    perturb_kernel,
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


def perturbed_kernel(alpha, n, sup, seed=0):
    return perturb_kernel(sample_kernel(alpha, n), sup, seed)


def exact_modes(alpha, m):
    """The mode side's reading of the exact flux-alpha eigenvalues on the modes [-m, m]."""
    return _flux_from_eigenvalues(two_valued(alpha, m), m)


def grid_window(grid, m):
    """The mode side's reading of a kernel grid's eigenvalues on the modes [-m, m] alone."""
    return _flux_from_eigenvalues(_spectrum(grid)[np.arange(-m, m + 1)], m)


class TestModeRecovery:
    def test_half_flux(self):
        est = exact_modes(0.5, 8)
        assert abs(est.alpha - 0.5) <= 1e-9

    def test_one_point_seven(self):
        est = exact_modes(1.7, 8)
        assert est.ceil_alpha == 2
        assert abs(est.alpha - 1.7) <= 1e-9

    def test_integer_flux_degenerate(self):
        with pytest.raises(IntegerFluxError):
            exact_modes(0.0, 8)
        with pytest.raises(IntegerFluxError):
            exact_modes(2.0, 8)

    def test_flip_outside_mode_window(self):
        # exact data: every eigenvalue in [-8, 8] is e^{-i pi 8.5}
        with pytest.raises(IntegerFluxError, match=r"outside the mode window \[-8, 8\]"):
            exact_modes(8.5, 8)
        # grid quadrature leaves 1e-4 of noise on those equal eigenvalues,
        # which no two-valued spectrum fits
        grid = sample_kernel(9.3, 256)
        with pytest.raises(DataInconsistencyError, match=r"outside the mode window \[-8, 8\]"):
            grid_window(grid, 8)
        # on the grid itself the window doubles to [-16, 16], which holds the flip
        est = recover_flux_from_modes(grid)
        assert est.ceil_alpha == 10 and abs(est.alpha - 9.3) <= 1e-4

    def test_mode_window_stops_at_a_sixteenth_of_the_grid(self):
        # [-8, 8] doubles once on 256 points: the flip of 16.5 stays outside [-16, 16]
        with pytest.raises(DataInconsistencyError, match=r"mode window \[-16, 16\] gives"):
            recover_flux_from_modes(sample_kernel(16.5, 256))
        # the last step reaches n // 16 = 17 on 272 points, short of a doubling
        with pytest.raises(IntegerFluxError, match=r"mode window \[-17, 17\] gives"):
            recover_flux_from_modes(sample_kernel(3.0, 272))

    def test_no_flip_visible(self):
        # a first mode already holding the limit value: the flip is below the window
        eig = two_valued(0.5, 8)
        eig[0] = eig[-1]
        with pytest.raises(DataInconsistencyError,
                           match=r"no flip visible: .*outside the mode window \[-8, 8\]"):
            _flux_from_eigenvalues(eig, 8)

    def test_limit_phase_must_match_the_flip(self):
        # two-valued, flipping at 1, but the limit phase -pi/2 puts alpha at 1.5, not in (0, 1]
        eig = np.where(np.arange(-8, 9) >= 1, -1j, 1j)
        with pytest.raises(DataInconsistencyError, match=r"limit phase -0.500000\*pi .* index 1"):
            _flux_from_eigenvalues(eig, 8)

    def test_input_must_be_mode_data_or_a_kernel_grid(self):
        with pytest.raises(DomainError, match="expected a KernelGrid"):
            recover_flux_from_modes(np.eye(4))

    def test_round_trip_twenty_random_fluxes(self, rng):
        for a in random_noninteger_fluxes(rng, 20):
            est = exact_modes(a, 8)
            assert abs(est.alpha - a) <= 1e-9
            assert est.ceil_alpha == math.ceil(a)

    def test_round_trip_from_kernel_grids(self, rng):
        for a in random_noninteger_fluxes(rng, 6):
            est = recover_flux_from_modes(sample_kernel(a, 1024))
            assert abs(est.alpha - a) <= 1e-4

    def test_estimate_consistency_fields(self):
        est = exact_modes(-1.3, 8)
        assert math.ceil(est.alpha) == est.ceil_alpha
        assert abs(math.sin(math.pi * est.alpha) - est.sin_pi_alpha) <= 1e-12


class TestStripRecovery:
    def test_clean_half_flux(self):
        est = recover_flux_from_strip(sample_kernel(0.5, 2048))
        assert abs(est.sin_pi_alpha - 1.0) <= 0.05

    def test_zero_flux(self):
        est = recover_flux_from_strip(sample_kernel(0.0, 2048))
        assert abs(est.sin_pi_alpha) <= 1e-4

    def test_residual_is_the_last_strips_distance_from_the_extrapolation(self):
        grid = sample_kernel(0.3, 1024)
        est = recover_flux_from_strip(grid)
        last = -strip_integral(grid, STRIPS[-1]).real / (math.pi * math.log(2.0) / math.pi)
        assert est.residual == abs(last - est.sin_pi_alpha) > 0.0

    def test_perturbed_quarter_flux(self):
        grid = perturbed_kernel(0.25, 2048, sup=0.05)
        est = recover_flux_from_strip(grid)
        assert abs(est.sin_pi_alpha - math.sin(math.pi / 4)) / math.sin(math.pi / 4) <= 0.05

    def test_sign_recovered_for_reflected_flux(self):
        grid = sample_kernel(1.7, 2048)
        est = recover_flux_from_strip(grid)
        assert abs(est.sin_pi_alpha - math.sin(1.7 * math.pi)) <= 0.05
        assert est.sin_pi_alpha < 0.0 and est.alpha is None
        # the default reads the grid's own strips (gauge -1 would read flux 0.7's)
        assert est == recover_flux_from_strip(grid, 0)

    def test_perturbation_robustness_bound(self):
        target = math.sin(math.pi * 0.3)
        for sup in (0.02, 0.05, 0.1):
            est = recover_flux_from_strip(perturbed_kernel(0.3, 2048, sup, seed=1))
            assert abs(est.sin_pi_alpha - target) <= 0.5 * sup + 0.02

    @staticmethod
    def too_singular_kernel(n, size=0.3, power=1.5):
        g = sample_kernel(0.4, n)
        th = g.theta
        dmat = th[:, None] - th[None, :]
        np.fill_diagonal(dmat, 1.0)
        # |tau|^{-1}-type perturbation defeats the eps-linear extrapolation model
        rough = size / np.abs(np.exp(1j * dmat) - 1.0) ** power
        vals = g.values + rough
        np.fill_diagonal(vals, 0.0)
        return KernelGrid(n=n, values=vals, delta_coeff=g.delta_coeff)

    def test_too_singular_perturbation_detected(self):
        # a |tau|^{-2} perturbation: the three default strips' two corrections grow
        for n, size in ((1024, 0.01), (1024, 0.3), (2048, 0.003), (2048, 0.3)):
            with pytest.raises(TooSingularError, match="not settling"):
                recover_flux_from_strip(self.too_singular_kernel(n, size, power=2.0))

    @pytest.mark.parametrize("n, floor", [(1024, "0.245"), (2048, "0.123")])
    def test_too_singular_perturbation_detected_on_the_default_strips(self, n, floor):
        # three strips compare only two corrections, which settle here; the estimate,
        # -5.55, is no sine: |s| exceeds 1 by more than the floor h/eps of the last strip
        gp = self.too_singular_kernel(n)
        with pytest.raises(TooSingularError,
                           match=rf"= -5\.5\d* exceeds 1 by more than the floor {floor};"):
            recover_flux_from_strip(gp)

    def test_small_too_singular_perturbation_fails_the_cross_check(self):
        # the strips alone read 0.734 for sin(0.4*pi) = 0.951 and raise nothing;
        # the verdict's residual, against the mode reading, exposes the kernel
        gp = self.too_singular_kernel(1024, size=0.01)
        assert abs(recover_flux_from_strip(gp).sin_pi_alpha
                   - math.sin(0.4 * math.pi)) > 0.2
        assert recover_flux(gp, obstacle_convex=True).residual > 0.2

    # flips at modes -13 and -16: the limit phase is read at the flip, not 16
    # modes above it, on the modes |m| <= 3 that the perturbation loads
    @pytest.mark.parametrize("alpha, sup", [
        pytest.param(0.5, 0.02, id="0.02"),
        pytest.param(0.5, 0.05, id="0.05"),
        pytest.param(-13.7, 0.02, id="-13.7-0.02"),
        pytest.param(-16.4, 0.02, id="-16.4-0.02"),
    ])
    def test_smooth_perturbations_settle(self, alpha, sup):
        # the `kernel --perturb` recipe, seeds 0-23: quadrature noise of about
        # 1e-3 in the estimates must not read as a too-singular perturbation
        g = sample_kernel(alpha, 1024)
        for seed in range(24):
            verdict = recover_flux(perturb_kernel(g, sup, seed), obstacle_convex=True)
            assert abs(verdict.alpha - alpha) <= 1e-6
            assert abs(verdict.sin_pi_alpha - math.sin(math.pi * alpha)) <= 5e-3

    @pytest.mark.parametrize("extra", [0, 1])
    def test_huge_winding(self, extra):
        # 256 divides 10**400: the strips and the sign follow the winding's residue
        # and parity, with no float conversion of the winding
        g = sample_kernel(0.3, 256)
        assert recover_flux_from_strip(g, 10**400 + extra) == recover_flux_from_strip(g, extra)


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

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("w", [-2, -1, 1, 2, 3])
    def test_flat_spectrum_is_settled_by_the_residual(self, w, seed):
        # integer flux has no regular part, and these seeds' noise no circulant part:
        # the spectrum is flat, every shift of w's parity ties, and the residual decides
        g = perturb_kernel(sample_kernel(1.0, 256), 0.02, seed)
        assert np.ptp(np.abs(_spectrum(g))) <= 1e-12
        rep = detect_conjugation(g, conjugate_kernel(g, w), 3)
        assert rep.n == w and rep.residual <= 1e-12 and rep.equivalent

    def test_memory_peak_below_one_kernel(self, alloc_peak):
        # the search walks row blocks of the circulant phase view: no n x n temporaries
        n = 1024
        g = sample_kernel(0.3, n)
        shifted = conjugate_kernel(g, 1)
        peak = alloc_peak(lambda: detect_conjugation(g, shifted, 3))
        assert peak < n * n * 16

    @pytest.mark.parametrize("n, half", [(128, 64), (129, 129)])
    def test_range_stops_below_half_the_winding_period(self, n, half):
        # w and w + N differ by (-1)^N: period N for even N, 2N for odd N
        g = sample_kernel(0.3, n)
        assert detect_conjugation(g, conjugate_kernel(g, 1 - half), half - 1).n == 1 - half
        for n_range in (half, 100000):
            with pytest.raises(DomainError, match=f"on N = {n} points.*need n_range < {half}"):
                detect_conjugation(g, g, n_range)

    def test_grid_sizes_must_agree(self):
        with pytest.raises(DomainError, match="equal size"):
            detect_conjugation(sample_kernel(0.3, 128), sample_kernel(0.3, 256), 3)

    def test_negative_range_is_refused(self):
        g = sample_kernel(0.3, 128)
        with pytest.raises(DomainError, match="n_range must be >= 0"):
            detect_conjugation(g, g, -1)

    def test_inequivalent_fluxes(self):
        rep = detect_conjugation(sample_kernel(0.5, 256), sample_kernel(0.7, 256), 3)
        assert not rep.equivalent and rep.residual > 1e-3


class TestWitness:
    @pytest.mark.parametrize("alpha, w", [(0.3, 2), (1.7, 4), (-0.6, 2), (0.3, -1), (1.7, 3)])
    def test_winding_strips_are_the_conjugated_kernels_strips(self, alpha, w):
        # the witness reads strip_integral(grid, st, 2m) - strip_integral(grid, st);
        # the gathered stencil entries are conjugated with conjugate_kernel's
        # arithmetic, so the strips equal those of the whole conjugated kernel
        grid = perturbed_kernel(alpha, 1024, sup=0.05, seed=1)
        conj = conjugate_kernel(grid, w)
        for st in STRIPS:
            assert strip_integral(grid, st, w) == strip_integral(conj, st)

    def test_verdicts(self):
        assert recover_flux_from_strip(sample_kernel(0.5, 1024), 0).witness
        assert not recover_flux_from_strip(sample_kernel(2.0, 1024), -1).witness
        assert recover_flux_from_modes(sample_kernel(0.5, 1024)).witness is None
        # the least strip decides: at alpha = 0.0251 the strips read 0.04996, 0.0501, 0.0501
        assert not recover_flux_from_strip(sample_kernel(0.0251, 1024)).witness

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_smooth_noise_is_no_singularity(self, seed):
        # the noise of an integer flux kernel changes under the odd conjugations 1 and 3
        # (seed 1: 0.061 scaled) but not under 2 (at most 0.0023): only winding + 2 is the
        # multiplier e^{2i(theta-theta')}
        grid = perturb_kernel(sample_kernel(2.0, 1024), 0.05, seed)
        assert not recover_flux_from_strip(grid, -1).witness

    @pytest.mark.parametrize("n, count", [(1024, 6), (512, 4)])
    def test_each_strip_is_integrated_once_per_gauge(self, monkeypatch, n, count):
        # the estimate and the witness share the gauge-w strips: 2 integrals per strip
        calls = []

        def counted(*args):
            calls.append(args[1:])
            return strip_integral(*args)
        monkeypatch.setattr(inverse, "strip_integral", counted)
        recover_flux(sample_kernel(0.3, n), obstacle_convex=True)
        assert len(calls) == count == 2 * len(default_strips(n))
        assert len(set(calls)) == count

    @pytest.mark.parametrize("alpha", [0.3, 20.3, 60.3, -13.7, 0.03])
    def test_witness_is_read_in_the_gauge_of_the_strips(self, alpha):
        # in gauge w = 1 - ceil(alpha) the scaled values approach 2|sin(pi alpha)|/pi
        # at every flux; read in gauge 0 they fall to 0.011 at alpha = 60.3 on this grid,
        # and at alpha = 0.03 they are 0.0597-0.0599, just above the 0.05 threshold
        grid, w = sample_kernel(alpha, 1024), 1 - math.ceil(alpha)
        want = 2.0 * abs(math.sin(math.pi * alpha)) / math.pi
        for st in STRIPS:
            got = abs(strip_integral(grid, st, w + 2) - strip_integral(grid, st, w)) \
                / (st.eps * (st.b - st.a))
            assert abs(got - want) <= 0.02
        assert recover_flux_from_strip(grid, w).witness
        assert recover_flux(grid, obstacle_convex=True).witness

    def test_memory_peak_below_one_kernel(self, alloc_peak):
        n = 1024
        g = sample_kernel(0.3, n)
        assert alloc_peak(lambda: recover_flux_from_strip(g, 0).witness) < n * n * 16


class TestPipeline:
    def test_clean_half_flux_with_witness(self):
        verdict = recover_flux(sample_kernel(0.5, 2048), obstacle_convex=True)
        assert abs(verdict.alpha - 0.5) <= 1e-9
        assert verdict.witness
        assert abs(verdict.sin_pi_alpha - 1.0) <= 0.05

    def test_zero_flux_degenerate(self):
        # an integer flux stays degenerate in every window up to [-n // 16, n // 16]
        for alpha in (0.0, 3.0, -40.0):
            with pytest.raises(IntegerFluxError, match=r"mode window \[-64, 64\]"):
                recover_flux(sample_kernel(alpha, 1024), obstacle_convex=True)

    def test_perturbed_one_point_seven(self):
        grid = perturbed_kernel(1.7, 2048, sup=0.05, seed=2)
        verdict = recover_flux(grid, obstacle_convex=True)
        assert abs(verdict.alpha - 1.7) <= 1e-4
        assert abs(verdict.sin_pi_alpha - math.sin(1.7 * math.pi)) <= 0.05
        assert verdict.witness

    def test_convexity_hypothesis_required(self):
        with pytest.raises(DomainError):
            recover_flux(sample_kernel(0.5, 1024), obstacle_convex=False)

    def test_strip_and_mode_components_agree(self):
        grid = sample_kernel(-0.6, 2048)
        verdict = recover_flux(grid, obstacle_convex=True)
        gap = abs(math.sin(math.pi * verdict.alpha) - verdict.sin_pi_alpha)
        assert gap <= 0.05
        # the residual is the larger of the mode fit's and this gap
        assert verdict.residual == max(recover_flux_from_modes(grid).residual, gap)

    @pytest.mark.parametrize("alpha", [2.37, 3.8, -1.3])
    def test_strips_read_in_the_gauge_of_the_modes(self, alpha):
        # conjugated by 1 - ceil(alpha), the strips see a flux in (0, 1]:
        # 6.7e-3, 9.0e-3 and 1.6e-3 off when read in the original gauge
        verdict = recover_flux(sample_kernel(alpha, 1024), obstacle_convex=True)
        assert abs(verdict.sin_pi_alpha - math.sin(math.pi * alpha)) <= 1e-3

    def test_strip_reading_is_the_same_in_every_gauge(self):
        grid = sample_kernel(0.3, 1024)
        base = recover_flux(grid, obstacle_convex=True)
        # ceil(alpha) = 1 already: the strips are recover_flux_from_strip's, bit for bit
        assert base.sin_pi_alpha == recover_flux_from_strip(grid).sin_pi_alpha
        for w in (-2, -1, 1, 3):
            shifted = recover_flux(conjugate_kernel(grid, w), obstacle_convex=True)
            # flux alpha + w: sin(pi*(alpha + w)) = (-1)^w sin(pi*alpha)
            assert abs(shifted.sin_pi_alpha - (-1) ** w * base.sin_pi_alpha) <= 1e-12

    def test_default_strip_schedule(self):
        # halving from max(0.1, 8h), never below 4 grid cells h = 2*pi/n
        assert default_strips(1024) == STRIPS and default_strips(2048) == STRIPS
        for n in (128, 256, 512, 4096):
            strips = default_strips(n)
            assert {(st.a, st.b) for st in strips} == {(0.0, math.pi)}
            assert strips[-1].eps >= 4.0 * 2.0 * math.pi / n and len(strips) >= 2

    def test_default_strips_need_more_than_64_points(self):
        # 8h reaches pi/4 at n = 64
        with pytest.raises(DomainError, match=r"64-point grid need widths 0.7854 and 0.3927"):
            default_strips(64)
        with pytest.raises(DomainError, match="64-point grid"):
            recover_flux(sample_kernel(0.4, 64), obstacle_convex=True)
        assert default_strips(65)[0].eps < math.pi / 4

    @pytest.mark.parametrize("alpha, n, window", [(8.5, 256, 16), (20.3, 512, 32),
                                                   (20.3, 1024, 32), (20.3, 2048, 32)])
    def test_mode_window_widens_to_the_flip(self, alpha, n, window):
        # the first of [-8, 8], [-16, 16], ... that holds the flip; at [-8, 8] flux 20.3
        # read as inconsistent data at n = 1024 and as an integer flux at n = 2048
        grid = sample_kernel(alpha, n)
        verdict = recover_flux(grid, obstacle_convex=True)
        assert verdict.ceil_alpha == math.ceil(alpha) and abs(verdict.alpha - alpha) <= 1e-6
        assert verdict.alpha == grid_window(grid, window).alpha
        assert verdict.alpha == recover_flux_from_modes(grid).alpha and verdict.witness
        with pytest.raises((DataInconsistencyError, IntegerFluxError),
                           match=rf"mode window \[-{window // 2}, {window // 2}\]"):
            grid_window(grid, window // 2)

    def test_verdict_json_fields(self):
        verdict = recover_flux(sample_kernel(0.5, 1024), obstacle_convex=True)
        # the CLI's serializer: every field must be a plain JSON value, in the order
        # that `recover` has always written them
        payload = json.loads(json.dumps(dataclasses.asdict(verdict), allow_nan=False))
        assert list(payload) == ["alpha", "ceil_alpha", "sin_pi_alpha", "residual", "witness"]
