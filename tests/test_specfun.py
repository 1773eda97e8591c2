import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abscatter.errors import DomainError
from abscatter.specfun import bessel_j, bessel_j_ladder


def series_oracle(nu: float, x: float, terms: int = 60) -> float:
    """Ascending power series summed in 50-digit arithmetic.

    Float64 summation of the same series would carry up to ~1e-8 roundoff at
    x = 20 (the alternating terms reach ~1e7), which would swamp the 1e-10
    comparison below; high-precision evaluation keeps the oracle itself exact
    to far below the tolerance while staying the same 60-term series.
    """
    with mp.workdps(50):
        nu_ = mp.mpf(nu)
        half = mp.mpf(x) / 2
        total = mp.mpf(0)
        for k in range(terms):
            total += (-1) ** k * half ** (nu_ + 2 * k) / (mp.factorial(k) * mp.gamma(nu_ + k + 1))
        return float(total)


class TestBesselValues:
    def test_j0_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0

    def test_fractional_order_at_zero(self):
        assert bessel_j(2.3, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi*x)) * sin(x); at x = pi/2 this is 2/pi
        x = math.pi / 2
        assert abs(bessel_j(0.5, x) - 2.0 / math.pi) <= 1e-10
        assert abs(bessel_j(0.5, x) - series_oracle(0.5, x)) <= 1e-10

    def test_j1_at_one(self):
        expected = 0.4400505857449335  # frozen from the 60-term series oracle
        assert abs(series_oracle(1.0, 1.0) - expected) <= 1e-15
        assert abs(bessel_j(1.0, 1.0) - expected) <= 1e-10

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j(-0.1, 1.0)
        with pytest.raises(DomainError):
            bessel_j(1.0, -1.0)
        with pytest.raises(DomainError):
            bessel_j(1.0, 2.0e4)


class TestBesselProperties:
    def test_series_oracle_equivalence(self, rng):
        pts = rng.uniform([0.0, 0.0], [10.0, 20.0], size=(200, 2))
        for nu, x in pts:
            assert abs(bessel_j(nu, x) - series_oracle(nu, x)) <= 1e-10

    def test_recurrence_residual(self, rng):
        for _ in range(300):
            nu = rng.uniform(1.0, 20.0)
            x = rng.uniform(0.5, 50.0)
            res = bessel_j(nu - 1, x) + bessel_j(nu + 1, x) - (2 * nu / x) * bessel_j(nu, x)
            assert abs(res) <= 1e-8

    def test_magnitude_bound(self, rng):
        for _ in range(400):
            nu = rng.uniform(0.0, 200.0)
            x = rng.uniform(0.0, 500.0)
            assert abs(bessel_j(nu, x)) <= 1.0

    def test_accuracy_over_declared_window(self, rng):
        # spot-check the large-order/large-argument corner against the oracle
        for nu, x in [(150.0, 300.0), (200.0, 500.0), (80.0, 100.0), (40.0, 450.0)]:
            with mp.workdps(60):
                ref = float(mp.besselj(mp.mpf(nu), mp.mpf(x)))
            assert abs(bessel_j(nu, x) - ref) <= 1e-10


class TestLadder:
    def test_matches_scalar_calls(self):
        for x in (0.3, 7.0, 25.0, 300.0):
            lad = bessel_j_ladder(0.25, 40, x)
            for k in (0, 1, 7, 39):
                assert abs(lad[k] - bessel_j(0.25 + k, x)) <= 1e-12

    def test_vector_arguments(self):
        xs = np.array([0.0, 1.0, 15.0, 120.0])
        lad = bessel_j_ladder(0.0, 5, xs)
        assert lad.shape == (5, 4)
        assert lad[0, 0] == 1.0 and lad[3, 0] == 0.0
        for j, x in enumerate(xs[1:], start=1):
            assert abs(lad[2, j] - bessel_j(2.0, x)) <= 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            bessel_j_ladder(-0.5, 3, 1.0)
        with pytest.raises(DomainError):
            bessel_j_ladder(0.5, 0, 1.0)

    @pytest.mark.parametrize("mu, x", [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan),
                                       (0.5, math.inf), (0.5, [1.0, math.nan, 20.0])])
    def test_rejects_non_finite(self, mu, x):
        with pytest.raises(DomainError):
            bessel_j_ladder(mu, 3, x)

    def test_base_order_past_gamma_overflow(self):
        # Gamma(mu + 1) overflows a double above mu ~ 171; the ladder must not form it
        jv = pytest.importorskip("scipy.special").jv
        ref = jv(200.0, 50.0)
        assert abs(bessel_j_ladder(200.0, 1, 50.0)[0] - ref) <= 1e-10 * abs(ref)
        xs = np.array([5.0, 13.0, 50.0, 250.0, 500.0])
        for mu in (171.5, 200.0):
            lad = bessel_j_ladder(mu, 3, xs)
            assert np.max(np.abs(lad - jv(mu + np.arange(3)[:, None], xs))) <= 1e-10


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(0.0, 200.0), st.integers(1, 200),
       st.lists(st.floats(0.0, 500.0), min_size=1, max_size=6),
       st.lists(st.floats(9.0, 12.0), min_size=1, max_size=4))
def test_ladder_matches_scipy(mu, count, xs, near_twelve):
    # [9, 12] is where an ascending series would lose digits to cancellation
    jv = pytest.importorskip("scipy.special").jv
    x = np.array(xs + near_twelve)
    lad = bessel_j_ladder(mu, count, x)
    assert np.max(np.abs(lad - jv(mu + np.arange(count)[:, None], x))) <= 1e-13


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(0.0, 3.0), st.integers(150, 220),
       st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
       st.lists(st.floats(2.0, 2.2, exclude_min=True), min_size=1, max_size=4),
       st.lists(st.floats(20.0, 500.0), min_size=1, max_size=4))
def test_mixed_batch_matches_per_point_calls(mu, count, small, near_two, large):
    # arguments just above 2 at orders this high make the unnormalized
    # recurrence pass 1e250, so the gated rescaling fires
    jv = pytest.importorskip("scipy.special").jv
    x = np.array([0.0, *small, *near_two, *large])
    lad = bessel_j_ladder(mu, count, x)
    tiny = x < 1e-8
    # tiny columns: the leading term alone on the same arguments
    assert np.array_equal(lad[:, tiny], bessel_j_ladder(mu, count, x[tiny]))
    # recurrence columns: one point at a time, at the batch's start order
    for i in np.flatnonzero(~tiny):
        assert np.array_equal(lad[:, i], bessel_j_ladder(mu, count, [x[i], x.max()])[:, 0])
    assert np.max(np.abs(lad - jv(mu + np.arange(count)[:, None], x))) <= 1e-13


# small arguments: 0, subnormals, both sides of the 1e-8 switch to the leading term
small_args = st.one_of(st.floats(0.0, 2.0), st.floats(1e-12, 1e-5),
                       st.sampled_from([0.0, 5e-324, 1e-310, 9.99e-9, 1e-8, 1.01e-8]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.0, 30.0), st.integers(1, 260), st.lists(small_args, min_size=1, max_size=8))
def test_small_argument_ladder_matches_scipy(mu, count, xs):
    jv = pytest.importorskip("scipy.special").jv
    x = np.array(xs)
    nu = mu + np.arange(count)
    ref = jv(nu[:, None], x)
    # below about 2e-305 jv returns 0 for every order > 0, though J_nu(5e-324)
    # is 7.8e-11 at nu = 1/32: mpmath serves those arguments
    for i in np.flatnonzero(x < 1e-300):
        ref[:, i] = [float(mp.besselj(v, mp.mpf(x[i]))) for v in nu]
    assert np.max(np.abs(bessel_j_ladder(mu, count, x) - ref)) <= 1e-13


def test_ladder_too_large_to_allocate():
    with pytest.raises(DomainError, match="1.00e18 orders at 1 arguments"):
        bessel_j_ladder(0.5, 10**18, [3.0])
    with pytest.raises(DomainError, match="cannot be allocated"):
        bessel_j_ladder(1e300, 1, 5.0)
