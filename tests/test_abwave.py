import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abscatter import abwave
from abscatter.abwave import (
    _CHUNK_POINTS,
    ABWaveSpec,
    _modes_needed,
    ab_wave_window,
    eval_ab_wave_grid,
    load_wave_csv,
    save_wave_csv,
)
from abscatter.errors import DomainError
from abscatter.specfun import bessel_j_ladder


def azimuth(x, omega) -> float:
    """Counterclockwise angle from omega to a nonzero x, in [0, 2 pi)."""
    return (math.atan2(x[1], x[0]) - math.atan2(omega[1], omega[0])) % (2.0 * math.pi)


def mode_phase(x, omega, sign=1) -> complex:
    """e^{i gamma} for the angle gamma(x; s omega) the wave's modes carry: at zero flux the
    one-mode window l = 1 is i^s e^{i gamma} J_1(|x|) at energy 1."""
    spec = ABWaveSpec(alpha=0.0, lam=1.0, omega=omega, sign=sign)
    j1 = bessel_j_ladder(1.0, 1, [math.hypot(*x)])[0, 0]
    return complex(ab_wave_window(spec, [x], 1, 1)[0] / (1j ** sign * j1))


class TestAzimuth:
    # the wave's modes carry the counterclockwise angle from s * omega to x
    def test_zero_angle_to_itself(self):
        assert abs(mode_phase((1.0, 0.0), (1.0, 0.0)) - 1.0) <= 1e-15

    def test_quarter_turn(self):
        assert abs(mode_phase((0.0, 1.0), (1.0, 0.0)) - 1j) <= 1e-15

    def test_antipodal(self):
        assert abs(mode_phase((-1.0, 0.0), (1.0, 0.0)) + 1.0) <= 1e-15
        assert abs(mode_phase((1.0, 0.0), (1.0, 0.0), sign=-1) + 1.0) <= 1e-15

    def test_range_and_orientation(self, rng):
        for _ in range(100):     # |x| inside 3.83, the first zero of J_1
            ang = rng.uniform(0, 2 * math.pi, 2)
            x = np.array([math.cos(ang[0]), math.sin(ang[0])]) * rng.uniform(0.1, 3.0)
            w = np.array([math.cos(ang[1]), math.sin(ang[1])])
            assert abs(mode_phase(x, w) - np.exp(1j * (ang[0] - ang[1]))) <= 1e-12


class TestSpec:
    def test_invariants(self):
        with pytest.raises(DomainError):
            ABWaveSpec(alpha=0.0, lam=0.0, omega=(1, 0))
        with pytest.raises(DomainError):
            ABWaveSpec(alpha=0.0, lam=1.0, omega=(1.0, 0.1))
        with pytest.raises(DomainError):
            ABWaveSpec(alpha=0.0, lam=1.0, omega=(1, 0), sign=2)

    @pytest.mark.parametrize("alpha, lam", [(math.nan, 1.0), (math.inf, 1.0),
                                            (0.5, math.nan), (0.5, math.inf)])
    def test_non_finite_inputs(self, alpha, lam):
        with pytest.raises(DomainError):
            ABWaveSpec(alpha=alpha, lam=lam, omega=(1, 0))

    def test_truncation_policy(self):
        # the farthest point, |x| = 10 at sqrt(lam) = 2, fixes L = 60 for every point
        spec = ABWaveSpec(alpha=0.3, lam=4.0, omega=(1.0, 0.0))
        pts = np.array([[0.5, -0.2], [6.0, 8.0], [-3.0, 1.0]])
        assert _modes_needed(2.0 * 10.0, 0.3) == math.ceil(2.0 * 10.0) + 40
        assert np.array_equal(eval_ab_wave_grid(spec, pts), ab_wave_window(spec, pts, -60, 60))
        assert not np.array_equal(eval_ab_wave_grid(spec, pts[[0, 2]]),
                                  ab_wave_window(spec, pts[[0, 2]], -60, 60))

    @pytest.mark.parametrize("omega", [(math.nan, 0.0), (math.inf, 0.0), (0.6, math.nan)])
    def test_non_finite_direction_rejected(self, omega):
        with pytest.raises(DomainError, match="omega must be a finite 2-vector"):
            ABWaveSpec(alpha=0.5, lam=1.0, omega=omega)

    @pytest.mark.parametrize("alpha", [1e18, 1e300])
    def test_window_too_large_to_allocate(self, alpha):
        # the long ladder of about 2|alpha| orders passes the ladder's top order, which is
        # refused before anything is allocated
        spec = ABWaveSpec(alpha=alpha, lam=1.0, omega=(1.0, 0.0))
        with pytest.raises(DomainError, match=r"\(count = 2\d{18,300}\) must lie in \[0, 20000\]"):
            eval_ab_wave_grid(spec, [[3.0, 4.0], [-5.0, 1.0]])


    @pytest.mark.parametrize("alpha", [1.7e308, -1.7e308])
    def test_window_phase_too_large(self, alpha):
        # one short ladder next to ceil(alpha), whose phase l * gamma overflows
        c = math.ceil(alpha)
        spec = ABWaveSpec(alpha=alpha, lam=1.0, omega=(1.0, 0.0))
        with pytest.raises(DomainError, match="too large for a finite phase"):
            ab_wave_window(spec, [(-0.3, 0.4)], c, c + 3)


class TestWaveValues:
    def test_plane_wave_reduction(self):
        # at zero flux the series is the Jacobi-Anger expansion of exp(i*w.x)
        spec = ABWaveSpec(alpha=0.0, lam=1.0, omega=(1.0, 0.0), sign=1)
        v = eval_ab_wave_grid(spec, [(2.0, 0.0)])[0]
        assert abs(v - np.exp(2.0j)) <= 1e-8

    def test_plane_wave_reduction_both_signs(self, rng):
        pts = rng.uniform(-7, 7, size=(100, 2))
        for sign in (1, -1):
            spec = ABWaveSpec(alpha=0.0, lam=1.0, omega=(0.6, 0.8), sign=sign)
            vals = eval_ab_wave_grid(spec, pts)
            plane = np.exp(1j * (pts @ np.array([0.6, 0.8])))
            assert np.max(np.abs(vals - plane)) <= 1e-8

    def test_vanishes_at_origin_for_fractional_flux(self):
        spec = ABWaveSpec(alpha=0.5, lam=3.0, omega=(0.0, 1.0), sign=1)
        assert eval_ab_wave_grid(spec, [(0.0, 0.0)])[0] == 0.0

    def test_truncation_self_consistency(self):
        spec = ABWaveSpec(alpha=0.3, lam=1.0, omega=(1, 0), sign=1)
        a = ab_wave_window(spec, [(3.0, 1.0)], -44, 44)[0]
        b = ab_wave_window(spec, [(3.0, 1.0)], -176, 176)[0]
        assert abs(a - b) <= 1e-8

    def test_doubling_changes_little_inside_policy_radius(self, rng):
        spec = ABWaveSpec(alpha=1.2, lam=2.0, omega=(1.0, 0.0), sign=-1)
        wide = 2 * _modes_needed(math.sqrt(2.0) * 4.0, 1.2)
        pts = rng.uniform(-2.8, 2.8, size=(50, 2))
        d = np.abs(eval_ab_wave_grid(spec, pts) - ab_wave_window(spec, pts, -wide, wide))
        assert np.max(d) < 1e-8

    def test_flux_shift_reindexes_modes(self, rng):
        # the series at alpha+2 equals exp(2i*gamma) times the series at
        # alpha with the mode window shifted by 2
        for _ in range(20):
            alpha = rng.uniform(-1.5, 1.5)
            x = rng.uniform(-4, 4, 2)
            if np.hypot(*x) < 0.2:
                continue
            sa = ABWaveSpec(alpha=alpha, lam=1.5, omega=(1.0, 0.0), sign=1)
            sa2 = ABWaveSpec(alpha=alpha + 2.0, lam=1.5, omega=(1.0, 0.0), sign=1)
            g = azimuth(x, (1.0, 0.0))
            lhs = ab_wave_window(sa2, x[None], -40, 44)[0]
            rhs = np.exp(2j * g) * ab_wave_window(sa, x[None], -42, 42)[0]
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


    def test_corner_of_certified_square(self):
        # z = 141 at the corner: the truncation tail must stay below 1e-12 there
        spec = ABWaveSpec(alpha=0.0, lam=100.0, omega=(1.0, 0.0), sign=1)
        assert abs(eval_ab_wave_grid(spec, [(10.0, 10.0)])[0] - np.exp(100.0j)) <= 1e-12

    @pytest.mark.parametrize("alpha", [20.5, -20.5])
    def test_tail_at_large_flux(self, alpha):
        # modes up to L have orders down to L - |alpha|: the policy must pay for that
        spec = ABWaveSpec(alpha=alpha, lam=100.0, omega=(1.0, 0.0), sign=1)
        wide = 2 * _modes_needed(10.0 * 10.0, alpha)
        pts = np.array([[0.0, 10.0], [-10.0, 0.0], [7.0, 7.14]])
        diff = eval_ab_wave_grid(spec, pts) - ab_wave_window(spec, pts, -wide, wide)
        assert np.max(np.abs(diff)) <= 1e-12

    def test_plane_wave_where_series_would_cancel(self):
        # z = sqrt(lam)*|x| in [11.5, 12.25]: the Bessel values must not lose digits there
        r, th = np.meshgrid(np.linspace(2.3, 2.45, 16), np.linspace(0.0, 2.0 * math.pi, 64))
        pts = np.stack([(r * np.cos(th)).ravel(), (r * np.sin(th)).ravel()], axis=1)
        for omega in ((1.0, 0.0), (0.6, 0.8)):
            spec = ABWaveSpec(alpha=0.0, lam=25.0, omega=omega, sign=1)
            plane = np.exp(5.0j * (pts @ np.array(omega)))
            assert np.max(np.abs(eval_ab_wave_grid(spec, pts) - plane)) <= 1e-13

    def test_mode_sum_memory_peak(self, alloc_peak):
        # one batch's Bessel ladder is the only (modes x points) array: no
        # phase matrix, and nothing of that size over all points
        axis = np.linspace(-5.0, 5.0, 201)
        pts = np.stack([a.ravel() for a in np.meshgrid(axis, axis)], axis=1)
        assert len(pts) > 4 * _CHUNK_POINTS
        spec = ABWaveSpec(alpha=0.5, lam=25.0, omega=(1.0, 0.0), sign=1)
        modes = 2 * _modes_needed(5.0 * 5.0 * math.sqrt(2.0), 0.5) + 1
        peak = alloc_peak(lambda: eval_ab_wave_grid(spec, pts))
        assert peak <= modes * _CHUNK_POINTS * 8 + 32 * len(pts)


def dense_window_sum(spec, pts, l_min, l_max):
    """sum_l exp(s*i*|l-alpha|*pi/2) exp(i*l*gamma) J_{|l-alpha|}(z) with a full phase matrix."""
    ls = np.arange(l_min, l_max + 1)
    nu = np.abs(ls - spec.alpha)
    omega = spec.sign * np.asarray(spec.omega)
    gam = np.array([azimuth(x, omega) for x in pts])
    z = math.sqrt(spec.lam) * np.hypot(pts[:, 0], pts[:, 1])
    jj = np.array([bessel_j_ladder(v, 1, z)[0] for v in nu])
    coeff = np.exp(1j * spec.sign * nu * (math.pi / 2.0))
    return (coeff[:, None] * np.exp(1j * np.outer(ls, gam)) * jj).sum(axis=0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(-3.0, 3.0), st.sampled_from([1, -1]), st.floats(0.5, 4.0),
       st.integers(-40, 10), st.integers(0, 50), st.integers(0, 2**32 - 1))
def test_window_sum_matches_dense_phase_matrix(alpha, sign, lam, l_min, width, seed):
    spec = ABWaveSpec(alpha=alpha, lam=lam, omega=(0.6, -0.8), sign=sign)
    pts = np.random.default_rng(seed).uniform(-6.0, 6.0, size=(40, 2))
    got = ab_wave_window(spec, pts, l_min, l_min + width)
    assert np.max(np.abs(got - dense_window_sum(spec, pts, l_min, l_min + width))) <= 1e-13


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(-3.0, 3.0), st.sampled_from([1, -1]), st.floats(0.5, 4.0),
       st.integers(-40, 10), st.integers(0, 50), st.integers(3, 13),
       st.integers(0, 2**32 - 1))
def test_window_sum_across_batches(alpha, sign, lam, l_min, width, chunk, seed):
    # 40 points in batches of at most 13: more than two batches, often a short last one
    spec = ABWaveSpec(alpha=alpha, lam=lam, omega=(0.6, -0.8), sign=sign)
    pts = np.random.default_rng(seed).uniform(-6.0, 6.0, size=(40, 2))
    l_max = l_min + width
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abwave, "_CHUNK_POINTS", chunk)
        got = ab_wave_window(spec, pts, l_min, l_max)
    single = np.array([ab_wave_window(spec, p[None, :], l_min, l_max)[0] for p in pts])
    assert np.max(np.abs(got - single)) <= 1e-13
    assert np.max(np.abs(got - dense_window_sum(spec, pts, l_min, l_max))) <= 1e-13


def full_grid(extent, size):
    axis = np.linspace(-extent, extent, size)
    pts = np.stack([a.ravel() for a in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    return pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-9]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(-3.0, 3.0), st.integers(-2, 2), st.sampled_from([1, -1]),
       st.floats(0.5, 9.0), st.floats(0.0, 2.0 * math.pi))
def test_gauge_shift_on_grid(alpha, n, sign, lam, phi):
    # psi_{alpha+n}(x) = e^{i n gamma} psi_alpha(x), gamma the angle from s*omega to x
    omega = (math.cos(phi), math.sin(phi))
    pts = full_grid(4.0, 41)
    psi = eval_ab_wave_grid(ABWaveSpec(alpha, lam, omega, sign), pts)
    shifted = eval_ab_wave_grid(ABWaveSpec(alpha + n, lam, omega, sign), pts)
    gam = np.array([azimuth(x, (sign * omega[0], sign * omega[1])) for x in pts])
    assert np.max(np.abs(shifted - np.exp(1j * n * gam) * psi)) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(-3.0, 3.0), st.sampled_from([1, -1]), st.floats(0.5, 9.0),
       st.floats(0.0, 2.0 * math.pi))
def test_flux_reflection_on_grid(alpha, sign, lam, phi):
    # alpha -> -alpha is gamma -> -gamma: reflect the points across the omega axis
    omega = np.array([math.cos(phi), math.sin(phi)])
    pts = full_grid(4.0, 41)
    mirrored = 2.0 * (pts @ omega)[:, None] * omega - pts
    psi = eval_ab_wave_grid(ABWaveSpec(alpha, lam, tuple(omega), sign), pts)
    reflected = eval_ab_wave_grid(ABWaveSpec(-alpha, lam, tuple(omega), sign), mirrored)
    assert np.max(np.abs(reflected - psi)) <= 1e-12


class TestBoundedness:
    @pytest.mark.parametrize("alpha,lam", [(-2.0, 1.0), (-0.5, 0.5), (0.7, 1.0),
                                           (1.5, 4.0), (2.0, 0.5)])
    def test_bounded_on_grid(self, alpha, lam):
        axis = np.linspace(-5.0, 5.0, 200)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-9]
        spec = ABWaveSpec(alpha=alpha, lam=lam, omega=(1.0, 0.0), sign=1)
        vals = eval_ab_wave_grid(spec, pts)
        assert float(np.max(np.abs(vals))) <= 10.0


def stencil_residual(spec, pts, h):
    """|((-i grad - A0)^2 - lam) psi| at points 4h or more off the origin, from the wave's
    values on the 5-point stencil of step h; A0 = alpha (-x2, x1) / |x|^2 is divergence free,
    so the operator is -Lap psi + 2i A0 . grad psi + |A0|^2 psi - lam psi."""
    steps = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    psi, east, west, north, south = eval_ab_wave_grid(
        spec, np.concatenate([pts + step for step in steps])).reshape(5, -1)
    lap = (east + west + north + south - 4.0 * psi) / (h * h)
    grad = np.stack([east - west, north - south], axis=1) / (2.0 * h)
    a0 = spec.alpha * np.stack([-pts[:, 1], pts[:, 0]], axis=1) / (pts ** 2).sum(axis=1)[:, None]
    res = -lap + 2j * (a0 * grad).sum(axis=1) + ((a0 ** 2).sum(axis=1) - spec.lam) * psi
    return np.abs(res)


class TestPdeResidual:
    def test_residual_shrinks_on_mesh_halving(self, rng):
        spec = ABWaveSpec(alpha=0.5, lam=1.0, omega=(1.0, 0.0), sign=1)
        th = rng.uniform(0, 2 * math.pi, 60)
        rr = rng.uniform(1.0, 5.0, 60)
        pts = np.stack([rr * np.cos(th), rr * np.sin(th)], axis=1)
        r_coarse = stencil_residual(spec, pts, 0.02)
        r_fine = stencil_residual(spec, pts, 0.01)
        ratio = r_coarse / r_fine
        assert float(np.min(ratio)) >= 3.5


def far_field_remainder(spec, direction, radii):
    """psi - e^{i alpha (gamma(x; -s omega) - pi)} e^{i sqrt(lam) omega . x} at r * direction,
    the wave less its geometric term, which leaves the circular wave
    c0 e^{-i s sqrt(lam) r} / sqrt(r) and terms of order r^(-3/2)."""
    points = radii[:, None] * np.asarray(direction, dtype=float)
    omega = np.asarray(spec.omega, dtype=float)
    back = -spec.sign * omega
    gamma = (math.atan2(direction[1], direction[0]) - math.atan2(back[1], back[0])) % (2 * math.pi)
    geometric = np.exp(1j * spec.alpha * (gamma - math.pi)) \
        * np.exp(1j * math.sqrt(spec.lam) * (points @ omega))
    return eval_ab_wave_grid(spec, points) - geometric


class TestDecay:
    def test_zero_flux_is_exact(self):
        # at alpha = 0 the wave is its geometric term, the plane wave
        spec = ABWaveSpec(alpha=0.0, lam=1.0, omega=(1.0, 0.0), sign=1)
        rest = far_field_remainder(spec, (0.0, 1.0), np.linspace(20, 200, 10))
        assert float(np.max(np.abs(rest))) < 1e-8

    def test_fractional_flux_decay_rate(self):
        # c0 and c1 of rest = (c0 + c1 / r) e^{-i s r} / sqrt(r) by least squares; what
        # the circular wave c0 leaves falls off like r^(-3/2) (the fit reads -1.50)
        spec = ABWaveSpec(alpha=0.5, lam=1.0, omega=(1.0, 0.0), sign=1)
        radii = np.linspace(20, 200, 13)
        rest = far_field_remainder(spec, (0.0, 1.0), radii)
        wave = np.exp(-1j * spec.sign * radii) / np.sqrt(radii)
        basis = np.stack([np.ones_like(radii), 1.0 / radii], axis=1).astype(complex)
        c0 = np.linalg.lstsq(basis, rest / wave, rcond=None)[0][0]
        assert abs(c0) >= 0.1
        slope = np.polyfit(np.log(radii), np.log(np.abs(rest - c0 * wave)), 1)[0]
        assert slope <= -1.2


SPEC = ABWaveSpec(alpha=0.5, lam=1.0, omega=(1.0, 0.0))


# each non-finite input is refused by the check that names it, before any
# arithmetic on it can raise or warn (a RuntimeWarning is an error under this suite)
@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: eval_ab_wave_grid(SPEC, [(math.nan, 1.0)]), "points must be finite",
                 id="wave-nan-point"),
    pytest.param(lambda: eval_ab_wave_grid(SPEC, [(1.0, -math.inf)]), "points must be finite",
                 id="wave-inf-point"),
    pytest.param(lambda: ab_wave_window(SPEC, [(math.inf, 0.0)], -3, 3),
                 "points must be finite", id="window-inf-point"),
    # sqrt(lam) * max|x| = 1.4e309 overflows before the truncation is sized from it
    pytest.param(lambda: eval_ab_wave_grid(ABWaveSpec(0.5, 1e308, (1.0, 0.0)), [(1.4e155, 0.0)]),
                 r"sqrt\(lam\) \* max\|x\| = inf", id="wave-argument-overflow"),
])
def test_non_finite_inputs_name_their_cause(call, match):
    with pytest.raises(DomainError, match=match):
        call()


def test_no_points_give_no_values():
    # an empty point array is empty data
    assert eval_ab_wave_grid(SPEC, np.zeros((0, 2))).shape == (0,)


def test_wave_csv_round_trip(tmp_path, rng):
    spec = ABWaveSpec(alpha=0.4, lam=1.0, omega=(1.0, 0.0), sign=1)
    pts = rng.uniform(-3, 3, size=(17, 2))
    vals = eval_ab_wave_grid(spec, pts)
    path = tmp_path / "wave.csv"
    save_wave_csv(path, pts, vals)
    pts2, vals2 = load_wave_csv(path)
    assert np.array_equal(pts, pts2)
    assert np.array_equal(vals, vals2)


def test_wave_csv_refuses_a_one_dimensional_point(tmp_path):
    # one point is a (1, 2) array, as for the evaluators: a bare 2-vector writes nothing
    path = tmp_path / "wave.csv"
    with pytest.raises(DomainError, match=r"points must be 2-D, got shape \(2,\)"):
        save_wave_csv(path, [1.0, 2.0], [0.5 + 0.5j])
    assert not path.exists()
