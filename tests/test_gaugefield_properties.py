"""Property tests: eikonal phases against closed forms, the eikonal gradient
identities, over random Gaussian families and region points, and the flux part's
one rule (alpha times the angle a path sweeps) over every finite flux."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abscatter.errors import DomainError
from abscatter.gaugefield import (
    EikonalPhase,
    GaussianBump,
    GaussianScalar,
    VectorPotential,
    eikonal_phase,
    flux,
    gradient_formula,
    phase_gradient,
    phase_gradient_check,
)
from abscatter.xray import line_integrals

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)

coord = st.floats(-4.0, 4.0)
strength = st.floats(-2.0, 2.0)
width = st.floats(0.15, 1.5)
centers = st.tuples(coord, coord)
scalars = st.lists(st.builds(GaussianScalar, centers, strength, width), min_size=0, max_size=3)
bumps = st.lists(st.builds(GaussianBump, centers, strength, width), min_size=0, max_size=3)
signs = st.sampled_from([1, -1])


@st.composite
def region_points(draw, sign):
    """(x, xi) with |x| in [0.3, 6], |xi| in [0.3, 2] and sign*cos(x, xi) >= cos(2.4) > -0.9."""
    r, theta = draw(st.floats(0.3, 6.0)), draw(st.floats(-math.pi, math.pi))
    rho, psi = draw(st.floats(0.3, 2.0)), draw(st.floats(-2.4, 2.4))
    turn = theta + psi + (0.0 if sign == 1 else math.pi)
    return (np.array([r * math.cos(theta), r * math.sin(theta)]),
            np.array([rho * math.cos(turn), rho * math.sin(turn)]))


@st.composite
def cases(draw):
    sign = draw(signs)
    pot = VectorPotential(alpha=draw(st.floats(-2.0, 2.0)), bumps=tuple(draw(bumps)),
                          grad_l=tuple(draw(scalars)))
    x, xi = draw(region_points(sign))
    return EikonalPhase(sign=sign, potential=pot), x, xi


def cross(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def closed_form_phase(ph: EikonalPhase, x, xi) -> float:
    """-int_0^inf A(x + t*d) . d dt along d = sign*xi, term by term.

    Flux part: A0 . d = alpha*(x cross d)/|x + t d|^2, an arctangent.
    Swirl: A . d = (S/w^2)*q*exp(-|x - c + t d|^2/(2 w^2)) with the constant
    q = (x - c) cross d, a Gaussian in t, so an erfc.  Gradient piece: the
    integral of grad L . d is L(inf) - L(x) = -L(x).
    """
    pot = ph.potential
    d = ph.sign * np.asarray(xi)
    nd = float(np.hypot(*d))
    q0, a0 = cross(x, d), float(x @ d)
    if abs(q0) > 1e-12:
        ray = (0.5 * math.pi - math.atan(a0 / abs(q0))) / abs(q0)
    else:
        ray = 1.0 / a0
    val = -pot.alpha * q0 * ray
    for b in pot.bumps:
        y = x - np.asarray(b.center)
        q = cross(y, d)
        rho2 = (q / nd) ** 2
        along = float(y @ d) / nd
        val -= (b.strength / b.width ** 2) * q * math.exp(-rho2 / (2.0 * b.width ** 2)) \
            * (b.width / nd) * math.sqrt(0.5 * math.pi) \
            * math.erfc(along / (math.sqrt(2.0) * b.width))
    for c in pot.grad_l:
        y = x - np.asarray(c.center)
        val += c.strength * math.exp(-float(y @ y) / (2.0 * c.width ** 2))
    return val


@PROPERTY
@given(cases())
def test_eikonal_phase_closed_form(case):
    ph, x, xi = case
    assert abs(eikonal_phase(ph, x, xi) - closed_form_phase(ph, x, xi)) <= 1e-10


@PROPERTY
@given(cases())
def test_gradient_orthogonality(case):
    ph, x, xi = case
    assert phase_gradient_check(ph, x, xi) <= 1e-6


@PROPERTY
@given(cases())
def test_gradient_formula(case):
    ph, x, xi = case
    gap = np.abs(phase_gradient(ph, x, xi) - gradient_formula(ph, x, xi))
    assert float(np.max(gap)) <= 1e-6


# alpha * pi overflows from about 5.722e307, and alpha times a ray's angle (at most
# arccos(-0.9) = 2.69) from about 6.68e307; the subnormals underflow
NAMED_FLUXES = (1e308, -1e308, 5.7e307, -5.7e307, 1e300, -1e300, 0.0, 5e-324, -2.5e-310)
fluxes = st.sampled_from(NAMED_FLUXES) | st.floats(allow_nan=False, allow_infinity=False)
circle_radii = st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                        min_size=1, max_size=3, unique=True).map(sorted)
line_offsets = st.lists(st.floats(1e-12, 1e12) | st.floats(-1e12, -1e-12), min_size=1,
                        max_size=4)


@st.composite
def rays(draw):
    sign = draw(signs)
    return (sign, *draw(region_points(sign)))


def with_named_fluxes(test):
    # a ray that sweeps 3 pi / 4, past what alpha = 1e308 can carry
    ray = (1, np.array([-1.0, 1.0]), np.array([1.0, 0.0]))
    for alpha in NAMED_FLUXES:
        test = example(alpha=alpha, ray=ray, radii=[3.0, 7.0], offsets=[-2.0, 3.0])(test)
    return test


@settings(max_examples=15, deadline=None, derandomize=True)
@with_named_fluxes
@given(alpha=fluxes, ray=rays(), radii=circle_radii, offsets=line_offsets)
def test_flux_part_is_alpha_times_the_swept_angle(alpha, ray, radii, offsets):
    pot = VectorPotential(alpha=alpha)
    # a circle sweeps 2 pi: alpha exactly, at any radius, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert flux(pot, radii).sequence == (alpha,) * len(radii)
    sign, x, xi = ray
    c, dot = cross(x, xi), float(x @ xi)
    angle = (math.copysign(math.atan2(abs(c), sign * dot), c) if abs(c) > 1e-14
             else c / (sign * dot))
    names_flux = pytest.raises(DomainError, match=re.escape(f"flux alpha = {alpha:g} "))
    if math.isfinite(alpha * angle):
        assert eikonal_phase(EikonalPhase(sign, pot), x, xi) == -sign * alpha * angle
    else:
        with names_flux:
            eikonal_phase(EikonalPhase(sign, pot), x, xi)
    # a line sweeps half a turn: -alpha pi sgn p on every angle
    offsets = np.array(offsets)
    if math.isfinite(alpha * math.pi):
        values = line_integrals(pot, offsets, [0.0, 2.0], "A")
        assert np.array_equal(values, np.tile(-alpha * math.pi * np.sign(offsets)[:, None], 2))
    else:
        with names_flux:
            line_integrals(pot, offsets, [0.0, 2.0], "A")
