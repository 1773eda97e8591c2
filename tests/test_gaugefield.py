import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from abscatter import gaugefield
from abscatter.errors import DomainError, FluxConvergenceWarning, SchemaError
from abscatter.gaugefield import (
    EikonalPhase,
    GaussianBump,
    GaussianScalar,
    VectorPotential,
    eikonal_phase,
    flux,
    gradient_formula,
    load_potential_json,
    phase_gradient,
    phase_gradient_check,
    ray_field_integral,
    save_potential_json,
)


def random_region_point(rng, sign):
    """Random (x, xi) pair in the allowed region, biased away from its edge."""
    while True:
        x = rng.uniform(-5, 5, 2)
        xi = rng.uniform(-2, 2, 2)
        nx, nxi = np.hypot(*x), np.hypot(*xi)
        if nx < 0.3 or nxi < 0.3:
            continue
        if sign * float(x @ xi) / (nx * nxi) >= -0.8:
            return x, xi


def decomposition_terms(pot, sign, x, xi):
    """The three terms of the split of the eikonal phase of A' (alpha = 0 makes A' all of A),
        -s (x cross xi) int_0^inf int_0^1 B(tau x + s t xi) dtau dt,
        int_0^1 x . A'(tau x) dtau  and  -s int_0^inf A'(s t xi) . xi dt,
    by scipy.integrate; the rays stop at t = T, where s t xi is 12 widths past every
    component's center and past x (the Gaussian fields are below 1e-31 there)."""
    from scipy import integrate
    x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
    comps = (*pot.bumps, *pot.grad_l)
    t_max = (max(math.hypot(*c.center) + 12.0 * c.width for c in comps)
             + math.hypot(*x)) / math.hypot(*xi)

    def b(y):
        return float(sum(c.curl(y[None])[0] for c in pot.bumps))

    def a(y):
        return pot.aprime(y[None])[0]

    tol = {"epsabs": 1e-10, "epsrel": 1e-10}
    cross = float(x[0] * xi[1] - x[1] * xi[0])
    inner = integrate.dblquad(lambda tau, t: b(tau * x + sign * t * xi), 0.0, t_max, 0.0, 1.0,
                              **tol)[0]
    return (-sign * cross * inner,
            integrate.quad(lambda tau: float(x @ a(tau * x)), 0.0, 1.0, **tol)[0],
            -sign * integrate.quad(lambda t: float(a(sign * t * xi) @ xi), 0.0, t_max,
                                   limit=200, **tol)[0])


class TestFlux:
    def test_pure_flux_exact(self):
        res = flux(VectorPotential(alpha=0.7), [10.0])
        assert abs(res.estimate - 0.7) <= 1e-9

    def test_exact_gradient_has_zero_circulation(self):
        pot = VectorPotential(alpha=0.0,
                              grad_l=(GaussianScalar((1.0, 0.5), 2.0, 1.0),))
        assert abs(flux(pot, [8.0, 12.0]).estimate) <= 1e-9

    def test_bump_circulation_decays(self):
        pot = VectorPotential(alpha=1.3, bumps=(GaussianBump((2.0, 0.0), 1.5, 1.0),))
        res = flux(pot, [10.0, 20.0, 40.0])
        assert abs(res.estimate - 1.3) <= 1e-6
        assert len(res.sequence) == 3

    def test_convergence_warning(self):
        # a bump far out keeps circulating mass between the probe radii
        pot = VectorPotential(alpha=0.0, bumps=(GaussianBump((12.0, 0.0), 40.0, 2.0),))
        with pytest.warns(FluxConvergenceWarning):
            flux(pot, [10.0, 13.0])

    def test_preconditions(self):
        pot = VectorPotential(alpha=0.2, obstacle_radius=3.0)
        with pytest.raises(DomainError):
            flux(pot, [2.0, 5.0])
        with pytest.raises(DomainError):
            flux(pot, [5.0, 4.0])
        for radii in ([math.nan], [5.0, math.nan, 10.0], [5.0, math.inf]):
            with pytest.raises(DomainError, match="finite"):
                flux(pot, radii)

    @pytest.mark.parametrize("radii", [
        pytest.param([1e160], id="1e160"),
        pytest.param([10.0, 1e200], id="10,1e200"),
        pytest.param([1e-200, 10.0], id="1e-200,10"),
    ])
    def test_radius_whose_square_leaves_the_floats_is_named(self, radii):
        # a circle sweeps 2 pi about the flux line whatever its radius, so the flux part
        # reads alpha exactly where |x|^2 leaves the floats
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = flux(VectorPotential(alpha=0.3), radii)
        assert res.estimate == 0.3 and res.sequence == (0.3,) * len(radii)

    def test_huge_flux(self):
        # alpha * (-x2, x1) would overflow at |x| = 1e10 where the field is 1e290
        pot = VectorPotential(alpha=1e300)
        assert np.array_equal(pot.flux_part([[1e10, 0.0]]), [[0.0, 1e290]])
        assert flux(pot, [1e10, 2e10]).estimate == 1e300
        # the circulation 2 pi 1e308 overflows; the flux part reads alpha without forming it,
        # and A' (none here) is all the convergence warning compares
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for radii in ([10.0, 20.0], [3.0, 7.0]):
                assert flux(VectorPotential(alpha=1e308), radii).sequence == (1e308, 1e308)
        with pytest.raises(DomainError, match=r"point \[1e-10, 0.0\] .*flux alpha = 1e\+300 "
                                              r"overflows"):
            pot.flux_part([[1.0, 0.0], [1e-10, 0.0]])

    def test_estimate_past_the_floats_is_refused(self):
        # the bump's field peaks at 8e307 e^-1/2 on the unit circle: summed over the circle's
        # 2048 nodes it would overflow, but its mean does not, and A' circulates about
        # 4.9e307, which alpha = 1.75e308 carries past the largest float
        pot = VectorPotential(alpha=1.75e308, bumps=(GaussianBump((0.0, 0.0), 8e307, 1.0),))
        circulation = flux(replace(pot, alpha=0.0), [1.0]).estimate
        assert circulation == pytest.approx(8e307 * math.exp(-0.5))
        with pytest.raises(DomainError, match="flux at radius 1 is not finite"):
            flux(pot, [1.0])


class TestGaugeTransform:
    # the gauge e^{i (n theta + L)} takes the flux to alpha + n and adds grad L to A'

    def test_pure_winding_shifts_flux_only(self, generic_potential):
        # a ray's phase moves by the flux part alone: -2 times the angle the ray sweeps
        out = replace(generic_potential, alpha=generic_potential.alpha + 2)
        x, xi = np.array([0.4, 2.0]), np.array([1.0, -0.3])
        swept = math.atan2(x[0] * xi[1] - x[1] * xi[0], x @ xi)
        shift = (eikonal_phase(EikonalPhase(1, out), x, xi)
                 - eikonal_phase(EikonalPhase(1, generic_potential), x, xi))
        assert abs(shift + 2.0 * swept) <= 1e-12

    def test_flux_additivity(self, generic_potential):
        base = flux(generic_potential, [30.0, 40.0]).estimate
        l_field = (GaussianScalar((1.0, 0.0), 0.5, 0.7),)
        for n in range(-2, 3):
            out = replace(generic_potential, alpha=generic_potential.alpha + n,
                          grad_l=generic_potential.grad_l + l_field)
            assert abs(flux(out, [30.0, 40.0]).estimate - base - n) <= 1e-6


class TestPotentialFields:
    def test_transversality_of_flux_part(self, generic_potential, rng):
        # x . A0(x) = 0 identically; float evaluation leaves at most an ulp
        for _ in range(50):
            x = rng.uniform(-5, 5, 2)
            a0 = generic_potential.flux_part(x[None])[0]
            assert abs(float(x @ a0)) <= 1e-15 * max(1.0, float(np.abs(a0).max()))

    def test_curl_matches_analytic_field(self, generic_potential, rng):
        h = 1e-5
        x = rng.uniform(-4, 4, (30, 2))
        da2 = (generic_potential.aprime(x + [h, 0])[:, 1]
               - generic_potential.aprime(x - [h, 0])[:, 1]) / (2 * h)
        da1 = (generic_potential.aprime(x + [0, h])[:, 0]
               - generic_potential.aprime(x - [0, h])[:, 0]) / (2 * h)
        b_field = sum(b.curl(x) for b in generic_potential.bumps)
        assert np.max(np.abs((da2 - da1) - b_field)) <= 1e-6

    def test_decay_envelope(self, generic_potential):
        for r in (5.0, 10.0, 20.0, 40.0):
            x = np.array([r, 0.3 * r])
            a = generic_potential.aprime((x / np.hypot(*x) * r)[None])[0]
            assert float(np.hypot(*a)) * (1 + r) ** 1.5 <= 10.0


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: VectorPotential(0.3, bumps=None),
                 r"bumps must be a sequence of GaussianBump, got None", id="bumps-none"),
    pytest.param(lambda: VectorPotential(0.3, bumps=GaussianBump((0, 0), 1, 1)),
                 r"bumps must be a sequence of GaussianBump, got GaussianBump", id="bare-bump"),
    pytest.param(lambda: VectorPotential(0.3, grad_l=(GaussianBump((0, 0), 1, 1),)),
                 r"grad_l must be a sequence of GaussianScalar, got \(GaussianBump",
                 id="grad-l-tuple"),
    pytest.param(lambda: VectorPotential(0.3, bumps=(GaussianScalar((0, 0), 1, 1),)),
                 r"bumps must be a sequence of GaussianBump, got \(GaussianScalar",
                 id="bumps-of-scalars"),
    pytest.param(lambda: VectorPotential(0.3, v=[GaussianBump((0, 0), 1, 1)]),
                 r"v must be a sequence of GaussianScalar, got \[GaussianBump",
                 id="mixture-of-bumps"),
    pytest.param(lambda: EikonalPhase(1, None),
                 r"potential must be a VectorPotential, got None", id="phase-without-potential"),
])
def test_containers_refuse_a_wrong_part_by_name(build, match):
    with pytest.raises(DomainError, match=match):
        build()


def test_a_list_of_bumps_is_kept_as_a_tuple():
    bump = GaussianBump((1.0, 0.0), 0.5, 0.8)
    assert VectorPotential(0.3, bumps=[bump]) == VectorPotential(0.3, bumps=(bump,))


class TestEikonal:
    def test_zero_potential(self):
        ph = EikonalPhase(sign=1, potential=VectorPotential(alpha=0.0))
        assert eikonal_phase(ph, (1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_unit_flux_quarter_ray(self):
        # int_0^inf ds/(1+s^2) = pi/2 with an overall minus sign
        ph = EikonalPhase(sign=1, potential=VectorPotential(alpha=1.0))
        v = eikonal_phase(ph, (1.0, 0.0), (0.0, 1.0))
        assert abs(v + math.pi / 2) <= 1e-12

    def test_flux_part_plus_aprime_past_the_floats_is_refused_naming_both(self):
        # the ray sweeps a finite flux part and a finite A' integral whose sum overflows;
        # the stencil of phase_gradient meets the same sum, and neither warns (a warning is
        # an error under this suite)
        pot = VectorPotential(alpha=5.7e307, bumps=(GaussianBump((0.0, 0.0), 8e307, 1.0),))
        ph = EikonalPhase(sign=1, potential=pot)
        for fn in (eikonal_phase, phase_gradient):
            with pytest.raises(DomainError, match=r"flux alpha = 5.7e\+307 times the angle its "
                                                  r"path sweeps, plus the integral of A'"):
                fn(ph, (-0.5, 1.0), (1.0, 0.0))

    def test_a_wide_strong_bump_whose_ray_integral_overflows_is_refused_naming_it(self):
        # the ray's A' integral overflows before any flux part is added, with no warning
        pot = VectorPotential(alpha=0.0, bumps=(GaussianBump((0.0, 0.0), 1.7e308, 1e10),))
        ph = EikonalPhase(sign=1, potential=pot)
        for fn in (eikonal_phase, phase_gradient):
            with pytest.raises(DomainError, match=r"component of strength 1.7e\+308 and width "
                                                  r"1e\+10 overflows"):
                fn(ph, (-1e10, 1e10), (1.0, 0.0))

    def test_backward_cone_rejected(self):
        ph = EikonalPhase(sign=1, potential=VectorPotential(alpha=1.0))
        with pytest.raises(DomainError):
            eikonal_phase(ph, (1.0, 0.0), (-1.0, 0.001))
        with pytest.raises(DomainError):
            eikonal_phase(ph, (0.01, 0.0), (1.0, 0.0))

    def test_zero_potential_gradient_residual(self):
        ph = EikonalPhase(sign=1, potential=VectorPotential(alpha=0.0))
        assert phase_gradient_check(ph, (1.0, 0.2), (0.5, 1.0)) == 0.0

    def test_gradient_orthogonality(self, generic_potential, rng):
        for sign in (1, -1):
            ph = EikonalPhase(sign=sign, potential=generic_potential)
            for _ in range(25):
                x, xi = random_region_point(rng, sign)
                assert phase_gradient_check(ph, x, xi) <= 1e-6

    def test_gradient_is_the_central_difference_of_the_phase(self, generic_potential, rng):
        # the stencil's four phases in one pass are eikonal_phase's to a few ulps: a
        # gradient within 8 eps * max|phase| / h of the per-axis differences
        for sign in (1, -1):
            ph = EikonalPhase(sign=sign, potential=generic_potential)
            for _ in range(10):
                x, xi = random_region_point(rng, sign)
                h = 1e-5 * (1.0 + float(np.hypot(*x)))
                stencil = [(eikonal_phase(ph, x + e, xi), eikonal_phase(ph, x - e, xi))
                           for e in h * np.eye(2)]
                ref = np.array([(p - m) / (2.0 * h) for p, m in stencil])
                bound = 8.0 * np.finfo(float).eps * np.max(np.abs(stencil)) / h
                assert np.max(np.abs(phase_gradient(ph, x, xi) - ref)) <= bound

    def test_one_segment_pass_per_ray_call(self, generic_potential, monkeypatch):
        passes = []
        segment_integrals = gaugefield._segment_integrals

        def counted(*args, **kwargs):
            passes.append(1)
            return segment_integrals(*args, **kwargs)

        monkeypatch.setattr(gaugefield, "_segment_integrals", counted)
        ph = EikonalPhase(sign=1, potential=generic_potential)
        x, xi = (2.0, 1.0), (0.5, 1.0)
        for fn in (eikonal_phase, phase_gradient, phase_gradient_check, ray_field_integral,
                   gradient_formula):
            passes.clear()
            fn(ph, x, xi)
            assert len(passes) == 1, fn.__name__
        # a phase, its gradient check and the gradient formula: one ray of the X-ray benchmark
        passes.clear()
        eikonal_phase(ph, x, xi), phase_gradient_check(ph, x, xi), gradient_formula(ph, x, xi)
        assert len(passes) == 3

    def test_stencil_rows_keep_their_order_and_refusals(self):
        # h = 1.100001e-5: x + h e1 lies in the region, and x - h e1, the next row, does not
        ph = EikonalPhase(sign=1, potential=VectorPotential(alpha=0.3))
        with pytest.raises(DomainError, match=r"\|x\| and \|xi\| must exceed 0.1 .* "
                                              r"got 0.09999 and 1$"):
            phase_gradient(ph, (0.100001, 0.0), (0.0, 1.0))

    def test_stencil_row_past_the_floats_is_refused_by_name(self):
        # x + h e1 overflows to inf: the region check names it, with no overflow warning
        ph = EikonalPhase(sign=1, potential=VectorPotential(alpha=0.3))
        with pytest.raises(DomainError, match=r"\|x\| and \|xi\| .* got inf and 1$"):
            phase_gradient(ph, (1.797693e308, 0.0), (0.0, 1.0))

    def test_gradient_matches_field_integral_formula(self, generic_potential, rng):
        for sign in (1, -1):
            ph = EikonalPhase(sign=sign, potential=generic_potential)
            for _ in range(15):
                x, xi = random_region_point(rng, sign)
                lhs = phase_gradient(ph, x, xi)
                rhs = gradient_formula(ph, x, xi)
                assert float(np.max(np.abs(lhs - rhs))) <= 1e-6

    def test_decomposition_for_smooth_potentials(self, smooth_potential, rng):
        for sign in (1, -1):
            ph = EikonalPhase(sign=sign, potential=smooth_potential)
            for _ in range(4):
                x, xi = random_region_point(rng, sign)
                split = sum(decomposition_terms(smooth_potential, sign, x, xi))
                assert abs(eikonal_phase(ph, x, xi) - split) <= 1e-8

    def test_decomposition_requires_smoothness(self, generic_potential):
        # the split moves paths through the origin; with flux 0.8 there, the smooth
        # terms miss the flux part's phase -s alpha (x cross xi) atan2(|x cross xi|,
        # s x . xi) / |x cross xi|, which is not small
        x, xi = np.array([2.0, 0.0]), np.array([1.0, 0.5])
        for sign in (1, -1):
            phase = eikonal_phase(EikonalPhase(sign=sign, potential=generic_potential), x, xi)
            split = sum(decomposition_terms(generic_potential, sign, x, xi))
            cross = float(x[0] * xi[1] - x[1] * xi[0])
            flux_part = -sign * 0.8 * cross * math.atan2(abs(cross), sign * float(x @ xi)) \
                / abs(cross)
            assert abs(flux_part) >= 0.3
            assert abs(phase - split - flux_part) <= 1e-8

    @pytest.fixture
    def wide_potential(self):
        # widths of 2 keep the smooth tails measurable over radii 5..16
        return VectorPotential(alpha=0.8,
                               bumps=(GaussianBump((2.0, 0.0), 1.0, 2.0),),
                               grad_l=(GaussianScalar((0.0, 1.0), 0.6, 2.0),))

    def test_flux_part_is_homogeneous_and_bumps_fade(self, wide_potential):
        # the flux part of the phase is exactly degree-0 homogeneous, so the
        # radial deviation is the smooth tail and settles to a
        # direction-only value at least as fast as 1/r
        ph = EikonalPhase(sign=1, potential=wide_potential)
        xhat = np.array([0.8, 0.6])
        xi = np.array([1.0, 0.1]) / np.hypot(1.0, 0.1)
        radii = np.array([8.0, 10.0, 12.0, 14.0, 16.0])
        vals = np.array([eikonal_phase(ph, r * xhat, xi) for r in radii])
        ref = eikonal_phase(ph, 300.0 * xhat, xi)
        dev = np.abs(vals - ref)
        assert np.all(np.diff(dev) < 0.0)
        slope = np.polyfit(np.log(radii), np.log(dev), 1)[0]
        assert slope <= -0.8

    def test_forward_axis_value_vanishes(self, wide_potential):
        ph = EikonalPhase(sign=1, potential=wide_potential)
        xi = np.array([0.6, 0.8])
        radii = (5.0, 7.0, 9.0)
        vals = [abs(eikonal_phase(ph, r * xi, xi)) for r in radii]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] <= vals[0] * (radii[0] / radii[2])  # beats 1/r

    def test_ray_field_integral_zero_without_bumps(self):
        ph = EikonalPhase(sign=1, potential=VectorPotential(alpha=0.9))
        assert ray_field_integral(ph, (1.0, 0.0), (0.0, 1.0)) == 0.0

    BAD_RAYS = [
        ((math.nan, 1.0), (0.5, 1.0), "x must be a finite 2-vector"),
        ((1.0, math.inf), (0.5, 1.0), "x must be a finite 2-vector"),
        ((1.0, 0.2, 0.0), (0.5, 1.0), "x must be a finite 2-vector"),
        ("ab", (0.5, 1.0), "x must be a finite 2-vector"),
        ((1.0, 0.2), (math.nan, 1.0), "xi must be a finite 2-vector"),
        ((1.0, 0.2), (-math.inf, 1.0), "xi must be a finite 2-vector"),
        ((1.0, 0.2), (0.5,), "xi must be a finite 2-vector"),
        ((1.0, 0.2), (0.0, 0.0), "xi must be nonzero"),
    ]

    @pytest.mark.parametrize("x, xi, match", BAD_RAYS)
    @pytest.mark.parametrize("fn", [eikonal_phase, phase_gradient, phase_gradient_check,
                                    ray_field_integral, gradient_formula])
    def test_bad_ray_arguments(self, fn, x, xi, match, smooth_potential):
        with pytest.raises(DomainError, match=match):
            fn(EikonalPhase(sign=1, potential=smooth_potential), x, xi)

    @pytest.mark.parametrize("sign", [0, 2, -1.5, None])
    def test_bad_sign(self, sign, generic_potential):
        # the ray functions take their sign from the phase, which checks it
        with pytest.raises(DomainError, match="sign"):
            EikonalPhase(sign=sign, potential=generic_potential)


def test_potential_json_round_trip(tmp_path, generic_potential):
    path = tmp_path / "pot.json"
    save_potential_json(generic_potential, path)
    back = load_potential_json(path)
    assert back == generic_potential
    # bit-exact after a second pass through the file
    path2 = tmp_path / "pot2.json"
    save_potential_json(back, path2)
    assert path.read_text() == path2.read_text()


@pytest.mark.parametrize("alpha, r0", [(math.nan, 0.0), (math.inf, 0.0), (0.3, math.nan),
                                       (0.3, -math.inf)])
def test_non_finite_flux_or_obstacle_radius_is_refused(alpha, r0):
    # a NaN flux would later be blamed on the point: "too close to the flux line"
    says = ("flux alpha" if not math.isfinite(alpha) else "R0") + " must be a finite float"
    with pytest.raises(DomainError, match=says):
        VectorPotential(alpha=alpha, obstacle_radius=r0)
    with pytest.raises(SchemaError, match=says):
        VectorPotential.from_config({"alpha": alpha, "R0": r0})


def test_gauge_transform_past_the_float_range_is_refused():
    # the gauge e^{i 10^308 theta} takes the flux 1.7e308 past the largest float
    pot = VectorPotential(alpha=1.7e308)
    with pytest.raises(DomainError, match="flux alpha must be a finite float, got inf"):
        replace(pot, alpha=pot.alpha + 10**308)


# each refusal names the key at fault: a part that is no list of components, a component
# missing a key, an unknown key at either level and a bad value
@pytest.mark.parametrize("config, says", [
    ({"alpha": 0.3, "bumps": 5}, r"^bad potential config: bumps: 'int' object is not iterable$"),
    ({"alpha": 0.3, "V": {"center": [1, 0]}},
     r"^bad potential config: V: expected a JSON object, got 'center'$"),
    ({"alpha": 0.3, "gradL": [{"center": [1, 0], "strength": 0.5}]},
     r"^bad potential config: gradL: missing key 'width'$"),
    ({"alpha": 0.3, "bump": [{"center": [1, 0], "strength": 0.5, "width": 0.8}]},
     r"^bad potential config: unknown key 'bump' \(known: alpha, bumps, gradL, V, R0\)$"),
    ({"alpha": 0.3, "V": [{"center": [1, 0], "strength": 0.5, "width": 0.8, "sigma": 1.0}]},
     r"^bad potential config: V: unknown key 'sigma' \(known: center, strength, width\)$"),
    ({"bumps": []}, r"^bad potential config: missing key 'alpha'$"),
    ({"alpha": 0.3, "V": [{"center": [1, 0], "strength": 0.5, "width": -1.0}]},
     r"^bad potential config: V: width must be positive"),
], ids=["part-not-a-list", "part-an-object", "missing-width", "unknown-part", "unknown-field",
        "missing-alpha", "bad-width"])
def test_config_refusals_name_the_key(config, says):
    with pytest.raises(SchemaError, match=says):
        VectorPotential.from_config(config)


def test_potential_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bumps": []}))
    from abscatter.errors import SchemaError
    with pytest.raises(SchemaError):
        load_potential_json(bad)


@pytest.mark.parametrize("center", [(1e300, 0.0), (-1e300, 1e300), (1.7e308, -1.7e308)])
def test_far_centre_fields_are_zero(center):
    # the squared offset overflows: the envelope is exactly 0, and no field is NaN
    # (a RuntimeWarning is an error under this suite)
    pts = np.array([[0.0, 0.0], [3.0, -4.0], [-1.7e308, 1.7e308]])
    bump = GaussianBump(center, 2.0, 1.0)
    scalar = GaussianScalar(center, 2.0, 1.0)
    for got in (bump.vector(pts), bump.curl(pts), scalar.value(pts), scalar.gradient(pts)):
        assert np.array_equal(got, np.zeros_like(got))
    pot = VectorPotential(alpha=0.3, bumps=(bump,), grad_l=(scalar,))
    assert np.array_equal(pot.aprime(pts[:2]), np.zeros((2, 2)))


@pytest.mark.parametrize("row", [[1e-200, 0.0], [0.0, 0.0]], ids=["underflow", "origin"])
def test_flux_part_refuses_points_whose_square_underflows(row):
    # |x|^2 is 0 at both rows: the division would give nan and inf with a warning
    pot = VectorPotential(alpha=0.7)
    pts = np.array([[1.0, 2.0], row])
    for field in (pot.flux_part, pot.a_total):
        with pytest.raises(DomainError, match=rf"point \[{row[0]}, {row[1]}\] .*underflows"):
            field(pts)
    assert np.all(np.isfinite(pot.flux_part(np.array([[1e-150, 0.0]]))))


def test_narrow_curl_is_zero_where_envelope_is():
    # at width 1e-70, rho^2 / w^4 overflows at distance 1e15 while the envelope
    # underflows to 0; the curl must be 0, with no warning (an error under this
    # suite)
    pts = np.array([[1e15, 0.0], [0.0, -3e140], [1.0, 1.0]])
    bump = GaussianBump((0.0, 0.0), 1.0, 1e-70)
    assert np.array_equal(np.abs(bump.curl(pts)), np.zeros(3))
    assert bump.curl(pts[:1])[0] == 0.0


def test_width_with_normal_square_is_accepted_and_finite():
    # no field divides by w^4, so 1e-100 (w^4 = 1e-400 rounds to 0) is accepted;
    # every field is finite with no warning (an error under this suite) at the
    # centre, one width out and far out, where the envelope underflows
    pts = np.array([[0.0, 0.0], [1e-100, 0.0], [1e15, 0.0]])
    bump = GaussianBump((0.0, 0.0), 1.0, 1e-100)
    scalar = GaussianScalar((0.0, 0.0), 1.0, 1e-100)
    for got in (bump.vector(pts), bump.curl(pts), scalar.value(pts), scalar.gradient(pts)):
        assert np.all(np.isfinite(got))
    assert bump.curl(pts)[0] > 1e200 and scalar.value(pts)[2] == 0.0


def test_strength_over_width_squared_is_bounded():
    # the curl peaks at 2 |strength| / w^2 on the center: at width 1.5e-154 the
    # largest accepted strength puts it within an ulp of the largest float, and
    # every field stays finite with no warning (an error under this suite)
    w, s = 1.5e-154, 2.0224047767201054
    pts = np.array([[0.0, 0.0], [1e-154, 0.0], [3e-154, -1e-154], [1.0, 0.0]])
    for strength in (s, -s):
        bump = GaussianBump((0.0, 0.0), strength, w)
        scalar = GaussianScalar((0.0, 0.0), strength, w)
        for got in (bump.vector(pts), bump.curl(pts), scalar.value(pts), scalar.gradient(pts)):
            assert np.all(np.isfinite(got))
        assert abs(bump.curl(pts)[0]) > 1.79e308
    for strength, width in ((math.nextafter(s, math.inf), w), (10.0, w), (1e200, 1e-60)):
        for cls in (GaussianBump, GaussianScalar):
            with pytest.raises(DomainError, match="strength"):
                cls((0.0, 0.0), strength, width)


def test_summed_component_bounds_must_be_finite():
    # each component alone is accepted (the curl at its centre is within an ulp of
    # the largest float), but a field summing two of them would overflow: B and A'
    # sum the bumps, A' also grad(L), and V its own components
    w, s = 1.5e-154, 2.0224047767201054
    bump, scalar = GaussianBump((0.0, 0.0), s, w), GaussianScalar((0.0, 0.0), s, w)
    VectorPotential(alpha=0.3, bumps=(bump,), v=(scalar,))
    assert abs(bump.curl(np.zeros((1, 2)))[0]) > 1.79e308
    for fields in ({"bumps": (bump, bump)},
                   {"bumps": (bump,), "grad_l": (scalar,)},
                   {"v": (scalar, scalar)}):
        with pytest.raises(DomainError, match="summed bound"):
            VectorPotential(alpha=0.3, **fields)
