"""Property tests: X-ray line integrals against closed forms over random
Gaussian families and lines, even-integer flux parity under random gauges, the
circulation flux shifted by the winding of the gauge, and the gauge-invariant
magnetic field and flux read from phase data."""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abscatter.gaugefield import (
    GaussianBump,
    GaussianScalar,
    VectorPotential,
    flux,
)
from abscatter.xray import (
    a_line_sinogram,
    flux_parity_test,
    line_integrals,
    radon_forward,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)

coord = st.floats(-4.0, 4.0)
strength = st.floats(-2.0, 2.0)
width = st.floats(0.15, 1.5)
centers = st.tuples(coord, coord)
scalars = st.lists(st.builds(GaussianScalar, centers, strength, width), min_size=1, max_size=3)
bumps = st.lists(st.builds(GaussianBump, centers, strength, width), min_size=0, max_size=3)
# lines clear of the origin: |p| >= 0.05, any direction angle
offsets = st.lists(st.floats(0.05, 20.0) | st.floats(-20.0, -0.05),
                   min_size=1, max_size=6).map(np.array)
angles = st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1, max_size=6).map(np.array)


def grid(p, phi):
    pp, ff = np.meshgrid(p, phi, indexing="ij")
    return pp, np.sin(ff), np.cos(ff)


def v_exact(comps, p, phi):
    """Full-line integrals of Gaussian scalars on the (p x phi) grid."""
    pp, sn, cs = grid(p, phi)
    exact = np.zeros(pp.shape)
    for c in comps:
        d = pp + c.center[0] * sn - c.center[1] * cs
        exact += c.strength * math.sqrt(2.0 * math.pi) * c.width \
            * np.exp(-d * d / (2.0 * c.width ** 2))
    return exact


def a_exact(alpha, bs, p, phi):
    """Full-line integrals of A . omega on the (p x phi) grid (grad L pieces integrate to 0)."""
    pp, sn, cs = grid(p, phi)
    exact = -alpha * math.pi * np.sign(pp)
    for b in bs:
        q = b.center[1] * cs - b.center[0] * sn - pp
        exact = exact + b.strength * q * math.sqrt(2.0 * math.pi) / b.width \
            * np.exp(-q * q / (2.0 * b.width ** 2))
    return exact


@PROPERTY
@given(scalars, st.floats(1.0, 60.0))
def test_v_sinogram_closed_form(comps, p_max):
    pot = VectorPotential(alpha=0.0, v=tuple(comps))
    sino = radon_forward(pot, 64, 64, p_max)
    assert float(np.max(np.abs(sino.values - v_exact(comps, sino.offsets, sino.angles)))) <= 1e-8


@PROPERTY
@given(st.floats(-3.0, 3.0), bumps, scalars, offsets, angles)
def test_a_sinogram_closed_form(alpha, bs, ls, p, phi):
    pot = VectorPotential(alpha=alpha, bumps=tuple(bs), grad_l=tuple(ls))
    sino = a_line_sinogram(pot, p, phi)
    assert float(np.max(np.abs(sino.values - a_exact(alpha, bs, p, phi)))) <= 1e-8


# the benchmark's potential: one swirl, one grad(L) piece, two V components
BENCH_BUMPS = (GaussianBump((2.0, 0.0), 1.5, 1.0),)
BENCH_GRAD_L = (GaussianScalar((0.0, 1.0), 0.6, 1.1),)
BENCH_V = (GaussianScalar((0.5, 0.5), 0.7, 0.8), GaussianScalar((-2.0, -1.5), 0.4, 0.6))


@PROPERTY
@given(st.floats(5.0, 40.0), st.floats(0.0, 2.0 * math.pi), strength, st.floats(1e-4, 0.05),
       st.floats(0.3, math.pi - 0.3))
def test_far_narrow_component_closed_form(radius, theta, a, w, beta):
    # a far, narrow component in V, the swirls and grad(L) sets no other
    # component's rule; the lines at angle phi pass through and beside it
    c = (radius * math.cos(theta), radius * math.sin(theta))
    bs = BENCH_BUMPS + (GaussianBump(c, a, w),)
    vs = BENCH_V + (GaussianScalar(c, a, w),)
    pot = VectorPotential(alpha=0.37, bumps=bs,
                          grad_l=BENCH_GRAD_L + (GaussianScalar(c, a, w),),
                          v=vs)
    sino = radon_forward(pot, 64, 64, 25.0)
    assert float(np.max(np.abs(sino.values - v_exact(vs, sino.offsets, sino.angles)))) <= 1e-8
    phi = theta + beta
    p = -c[0] * math.sin(phi) + c[1] * math.cos(phi) + w * np.array([-3.0, -1.0, 0.0, 0.5, 2.0])
    got = a_line_sinogram(pot, p, np.array([phi])).values
    assert float(np.max(np.abs(got - a_exact(0.37, bs, p, [phi])))) <= 1e-8
    got = line_integrals(pot, p, [phi], "V")
    assert float(np.max(np.abs(got - v_exact(vs, p, [phi])))) <= 1e-8


PARITY_OFFSETS = np.concatenate([np.linspace(-8.0, -2.5, 6), np.linspace(2.5, 8.0, 6)])
PARITY_ANGLES = np.linspace(0.0, math.pi, 6, endpoint=False)


def gauged(pot, winding, l_field):
    """pot in the gauge e^{i (winding theta + L)}: flux alpha + winding, grad L added to A'."""
    return replace(pot, alpha=pot.alpha + winding,
                   grad_l=pot.grad_l + tuple(l_field))


def parity(alpha, bs, l_field, winding):
    base = VectorPotential(alpha=alpha, bumps=tuple(bs))
    other = gauged(base, winding, l_field)
    return flux_parity_test(a_line_sinogram(base, PARITY_OFFSETS, PARITY_ANGLES),
                            a_line_sinogram(other, PARITY_OFFSETS, PARITY_ANGLES))


@PROPERTY
@given(st.floats(-2.0, 2.0), bumps, scalars, st.integers(-3, 3))
def test_even_winding_certificate(alpha, bs, l_field, half_winding):
    rep = parity(alpha, bs, l_field, 2 * half_winding)
    assert rep.matched and rep.certificate == 2 * half_winding


@PROPERTY
@given(st.floats(-2.0, 2.0), bumps, scalars, st.integers(-3, 2))
def test_odd_winding_mismatch(alpha, bs, l_field, half_winding):
    rep = parity(alpha, bs, l_field, 2 * half_winding + 1)
    assert not rep.matched and rep.certificate is None


@PROPERTY
@given(st.floats(-2.0, 2.0), bumps, scalars, st.integers(-7, 7))
def test_gauge_transform_shifts_the_flux_by_its_winding(alpha, bs, l_field, k):
    # the circulation flux reads alpha + k in the new gauge; the phase data of the
    # same pair read only k's parity (test_even_winding_certificate and
    # test_odd_winding_mismatch)
    other = gauged(VectorPotential(alpha=alpha, bumps=tuple(bs)), k, l_field)
    assert abs(flux(other, [30.0, 40.0]).estimate - (alpha + k)) <= 1e-6


def a_exact_dp(bs, p, phi):
    """p-derivative of a_exact away from p = 0 (the flux part is constant there)."""
    pp, sn, cs = grid(p, phi)
    out = np.zeros(pp.shape)
    for b in bs:
        q = b.center[1] * cs - b.center[0] * sn - pp
        out -= b.strength * math.sqrt(2.0 * math.pi) / b.width * (1.0 - q * q / b.width ** 2) \
            * np.exp(-q * q / (2.0 * b.width ** 2))
    return out


def phase_dp(pot, p, phi, h):
    """angle(e^{i rho(p+h)} conj e^{i rho(p-h)}) / 2h from the phase data e^{i rho}."""
    ratio = np.exp(1j * line_integrals(pot, p + h, phi, "A")) \
        * np.conj(np.exp(1j * line_integrals(pot, p - h, phi, "A")))
    return np.angle(ratio) / (2.0 * h)


# the central difference's own error, h^2/6 * max|d^3 rho/dp^3|
# <= h^2/6 * 3 sqrt(2 pi) * sum |strength| / width^3, stays below 6e-7 for up
# to three swirls of width >= 0.5 and |strength| <= 2
wide_bumps = st.lists(st.builds(GaussianBump, centers, strength, st.floats(0.5, 1.5)),
                      min_size=0, max_size=3)


@PROPERTY
@given(st.floats(-2.0, 2.0), wide_bumps, scalars, st.integers(-3, 3), scalars, offsets, angles)
def test_magnetic_field_and_flux_from_phase_data(alpha, bs, grad_l, winding, l_field, p, phi):
    # -d/dp of the phase data is the line integral of B, a gauge invariant:
    # the potential and its gauge transform give the same values; the phase
    # jump across p = 0 is e^{2 pi i alpha}, the flux mod 1
    pot = VectorPotential(alpha=alpha, bumps=tuple(bs), grad_l=tuple(grad_l))
    other = gauged(pot, winding, l_field)
    h = 1e-4
    got = phase_dp(pot, p, phi, h)
    assert float(np.max(np.abs(got - a_exact_dp(bs, p, phi)))) <= 1e-6
    assert float(np.max(np.abs(phase_dp(other, p, phi, h) - got))) <= 1e-9
    for q in (pot, other):
        rho = line_integrals(q, [-1e-9, 1e-9], phi, "A")
        jump = np.exp(1j * rho[0]) * np.conj(np.exp(1j * rho[1]))
        expect = np.exp(2j * math.pi * flux(q, [30.0, 40.0]).estimate)
        assert abs(expect - np.exp(2j * math.pi * alpha)) <= 1e-9
        assert float(np.max(np.abs(jump - expect))) <= 1e-6
