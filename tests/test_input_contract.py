"""Every public evaluator of points or ray pairs meets one contract: it returns
finite values of its documented shape, or raises a DomainError whose message
names the bad argument.  Any other exception fails, and so does a
RuntimeWarning (an error under this suite's settings)."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abscatter.abwave import (
    ABWaveSpec,
    ab_wave_window,
    azimuth,
    eval_ab_wave_grid,
    load_wave_csv,
    pde_residual,
    save_wave_csv,
)
from abscatter.errors import DomainError
from abscatter.gaugefield import (
    EikonalPhase,
    GaugeElement,
    GaussianBump,
    GaussianScalar,
    ScalarMixture,
    VectorPotential,
    eikonal_phase,
    gradient_formula,
    phase_gradient,
    phase_gradient_check,
    ray_field_integral,
)

SPEC = ABWaveSpec(alpha=0.5, lam=1.0, omega=(1.0, 0.0))
BUMP = GaussianBump(center=(1.5, -0.5), strength=1.0, width=0.9)
SCALAR = GaussianScalar(center=(0.0, 1.0), strength=0.6, width=1.1)
MIXTURE = ScalarMixture((SCALAR,))
POT = VectorPotential(alpha=0.8, bumps=(BUMP,), grad_l=MIXTURE, v=MIXTURE)

# one coordinate in two is ordinary; the rest are the edge values every check must meet
coord = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(
    [0.0, 1e-200, -1e-200, 1e300, -1e300, math.nan, math.inf, -math.inf]))
NOT_NUMBERS = st.sampled_from(["ab", "", None, [[1.0, 2.0], [3.0]], [["x", "1"]]])
rows = st.lists(st.tuples(coord, coord), max_size=4).map(lambda r: np.array(r).reshape(-1, 2))
pairs = st.tuples(coord, coord).map(np.array)
# three draws in four have the right form; the fourth is (n, 3), 1-D, or not numbers
point_arrays = st.sampled_from([rows, rows, rows, st.one_of(
    st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=3).map(np.array),
    st.lists(coord, min_size=1, max_size=4).map(np.array),
    NOT_NUMBERS,
)]).flatmap(lambda form: form)
vectors = st.sampled_from([pairs, pairs, pairs, st.one_of(
    st.tuples(coord, coord, coord).map(np.array),
    st.tuples(coord).map(np.array),
    NOT_NUMBERS,
)]).flatmap(lambda form: form)


def saved(points):
    """The points save_wave_csv wrote, read back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.csv"
        rows = np.asarray(points, dtype=object).shape[:1]    # () for a non-array
        save_wave_csv(path, points, np.ones(rows, dtype=complex))
        return load_wave_csv(path)[0]


# (evaluator of an (n, 2) point array, trailing shape of its result)
POINT_EVALUATORS = {
    "GaussianBump.vector": (BUMP.vector, (2,)),
    "GaussianBump.curl": (BUMP.curl, ()),
    "GaussianScalar.value": (SCALAR.value, ()),
    "GaussianScalar.gradient": (SCALAR.gradient, (2,)),
    "ScalarMixture": (MIXTURE, ()),
    "ScalarMixture.gradient": (MIXTURE.gradient, (2,)),
    "flux_part": (POT.flux_part, (2,)),
    "aprime": (POT.aprime, (2,)),
    "a_total": (POT.a_total, (2,)),
    "b_field": (POT.b_field, ()),
    "GaugeElement": (GaugeElement(1, MIXTURE), ()),
    "eval_ab_wave_grid": (lambda p: eval_ab_wave_grid(SPEC, p), ()),
    "ab_wave_window": (lambda p: ab_wave_window(SPEC, p, -3, 3), ()),
    "pde_residual": (lambda p: pde_residual(SPEC, p, 1e-3), ()),
    "save_wave_csv": (saved, (2,)),
}

# (ray function, the potential of its phase, shape of its result)
RAY_FUNCTIONS = {
    "eikonal_phase": (eikonal_phase, POT, ()),
    "phase_gradient": (phase_gradient, POT, (2,)),
    "phase_gradient_check": (phase_gradient_check, POT, ()),
    "ray_field_integral": (ray_field_integral, POT, ()),
    "gradient_formula": (gradient_formula, POT, (2,)),
}


def finite_or_named(call, names: str):
    """call()'s result as an array, which must be finite, or None if it raised a
    DomainError, whose message must match names."""
    try:
        out = np.asarray(call())
    except DomainError as exc:
        assert re.search(names, str(exc)), f"the message names no argument: {exc}"
        return None
    assert np.all(np.isfinite(out)), out
    return out


@pytest.mark.parametrize("name", POINT_EVALUATORS)
@settings(max_examples=50, derandomize=True, deadline=None)
@given(points=point_arrays)
@example(points=np.array([[1e300, 0.0]]))
@example(points=np.array([[math.inf, 0.0]]))
@example(points=np.array([[math.nan, 1.0]]))
@example(points="ab")
def test_point_evaluators_meet_the_contract(name, points):
    fn, tail = POINT_EVALUATORS[name]
    out = finite_or_named(lambda: fn(points), r"\bpoints?\b")
    assert out is None or out.shape == (len(points), *tail)


@pytest.mark.parametrize("name", RAY_FUNCTIONS)
@settings(max_examples=50, derandomize=True, deadline=None)
@given(x=vectors, xi=vectors, sign=st.sampled_from([1, -1]))
@example(x=np.array([1e300, 1e300]), xi=np.array([1e300, 1.0]), sign=1)
@example(x=np.array([1e300, 0.0]), xi=np.array([1.0, 0.5]), sign=1)
def test_ray_functions_meet_the_contract(name, x, xi, sign):
    fn, pot, shape = RAY_FUNCTIONS[name]
    phase = EikonalPhase(sign=sign, potential=pot)
    out = finite_or_named(lambda: fn(phase, x, xi), r"\b(x|xi)\b")
    assert out is None or out.shape == shape


@settings(max_examples=50, derandomize=True, deadline=None)
@given(x=vectors)
@example(x=np.array([1e300, 1e300]))
@example(x=np.array([math.nan, 0.0]))
@example(x=np.array([1.0, 2.0, 3.0]))
def test_azimuth_meets_the_contract(x):
    out = finite_or_named(lambda: azimuth(x, (0.6, 0.8)), r"\bx\b")
    assert out is None or out.shape == ()
