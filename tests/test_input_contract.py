"""Every public evaluator of points or ray pairs, and every public scalar parameter, meets
one contract: the call returns finite values of its documented shape, or raises a
DomainError whose message names the bad argument.  Any other exception fails, and so does
a RuntimeWarning (an error under this suite's settings)."""

import functools
import math
import re
import tempfile
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abscatter.abwave import (
    ABWaveSpec,
    ab_wave_window,
    eval_ab_wave_grid,
    load_wave_csv,
    save_wave_csv,
)
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
    ray_field_integral,
    save_potential_json,
)
from abscatter.inverse import default_strips, detect_conjugation
from abscatter.smatrix import (
    KernelGrid,
    StripDomain,
    compose_with_amplitude,
    conjugate_kernel,
    extract_mode,
    perturb_kernel,
    sample_kernel,
    strip_integral,
)
from abscatter.specfun import bessel_j_ladder
from abscatter.xray import (
    Sinogram,
    a_line_sinogram,
    line_integrals,
    radon_forward,
    radon_invert,
    sinogram_axes,
)

SPEC = ABWaveSpec(alpha=0.5, lam=1.0, omega=(1.0, 0.0))
BUMP = GaussianBump(center=(1.5, -0.5), strength=1.0, width=0.9)
SCALAR = GaussianScalar(center=(0.0, 1.0), strength=0.6, width=1.1)
POT = VectorPotential(alpha=0.8, bumps=(BUMP,), grad_l=(SCALAR,), v=(SCALAR,))
K64 = sample_kernel(0.3, 64)

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


def potential_saved(pot):
    """save_potential_json of pot in a directory removed after; a refusal writes no file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        try:
            save_potential_json(pot, path)
        except DomainError:
            assert not path.exists()
            raise


def wave_saved(values):
    """save_wave_csv of the one point (1, 2) with values, in a directory removed after."""
    with tempfile.TemporaryDirectory() as tmp:
        save_wave_csv(Path(tmp) / "w.csv", [[1.0, 2.0]], values)


# (evaluator of an (n, 2) point array, trailing shape of its result)
POINT_EVALUATORS = {
    "GaussianBump.vector": (BUMP.vector, (2,)),
    "GaussianBump.curl": (BUMP.curl, ()),
    "GaussianScalar.value": (SCALAR.value, ()),
    "GaussianScalar.gradient": (SCALAR.gradient, (2,)),
    "flux_part": (POT.flux_part, (2,)),
    "aprime": (POT.aprime, (2,)),
    "a_total": (POT.a_total, (2,)),
    "eval_ab_wave_grid": (lambda p: eval_ab_wave_grid(SPEC, p), ()),
    "ab_wave_window": (lambda p: ab_wave_window(SPEC, p, -3, 3), ()),
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


def spoiled(valid) -> list:
    """valid with its last entry NaN, +inf or -inf, and with one axis too many."""
    out = []
    for bad in (math.nan, math.inf, -math.inf):
        v = np.array(valid)
        v.flat[-1] = bad
        out.append(v)
    return [*out, np.array(valid)[None]]


# values that are no array of numbers: absent, text, ragged, mixed, past the floats
NOT_ARRAYS = [None, "abc", [[1.0], [2.0, 3.0]], [1.0, "y"], [1.0, 10**400]]
GRID4 = np.zeros((4, 4))
AXES = ([-1.0, 1.0], [0.0, 1.0])

# (call with the value in the argument's place, a pattern naming the argument, values
# of a form the call refuses: no array of numbers, or a config dict for a potential)
ARRAY_ARGUMENTS = {
    "flux radii": (lambda v: flux(POT, v), r"\bradi(i|us)\b",
                   [5.0, None, "abc", [[10.0], [20.0, 30.0]], [10.0, 10**400]]),
    "bessel_j_ladder x": (lambda v: bessel_j_ladder(0.5, 3, v), r"\bx\b",
                          ["abc", None, [[1.0], [2.0, 3.0]], [1.0, "y"], [1.0, 10**400],
                           *spoiled([1.0, 2.0])]),
    "KernelGrid values": (lambda v: KernelGrid(4, v, 1.0), r"\bkernel values\b",
                          [*NOT_ARRAYS, *spoiled(GRID4), np.empty(0)]),
    "KernelGrid delta_coeff": (lambda v: KernelGrid(4, GRID4, v), r"\bdelta_coeff\b",
                               [*NOT_ARRAYS, *spoiled(1.0), np.empty(0)]),
    "Sinogram offsets": (lambda v: Sinogram(v, AXES[1], np.zeros((2, 2))), r"\boffsets\b",
                         [*NOT_ARRAYS, *spoiled(AXES[0]), np.empty(0)]),
    "Sinogram angles": (lambda v: Sinogram(AXES[0], v, np.zeros((2, 2))), r"\bangles\b",
                        [*NOT_ARRAYS, *spoiled(AXES[1]), np.empty(0)]),
    "Sinogram values": (lambda v: Sinogram(*AXES, v), r"\bsinogram values\b",
                        [*NOT_ARRAYS, *spoiled(np.zeros((2, 2))), np.empty(0)]),
    "line_integrals offsets": (lambda v: line_integrals(POT, v, [0.0], "V"),
                               r"\bline offsets\b",
                               [*NOT_ARRAYS, *spoiled(AXES[0]), np.empty(0), np.array([1j])]),
    "line_integrals angles": (lambda v: line_integrals(POT, [1.0], v, "V"), r"\bangles\b",
                              [*NOT_ARRAYS, *spoiled(AXES[1]), np.empty(0)]),
    "compose_with_amplitude amplitude": (lambda v: compose_with_amplitude(K64, lambda t, o: v),
                                         r"\bamplitude\b",
                                         [*NOT_ARRAYS, *spoiled(np.ones((64, 64))), np.empty(0)]),
    "save_wave_csv values": (wave_saved, r"\bwave values\b",
                             [*NOT_ARRAYS, *spoiled([1.0 + 0.5j])]),
    # GaussianScalar.value, under the key of the mixture class it replaced (its test ids stay)
    "ScalarMixture points": (SCALAR.value, r"\bpoints\b",
                             [*NOT_ARRAYS, *spoiled([[1.0, 2.0]]), np.empty(0),
                              np.array([[1.0 + 1.0j, 2.0]])]),
    "flux potential": (lambda v: flux(v, [10.0, 20.0]), r"\bpotential\b", [POT.to_config()]),
    "line_integrals potential": (lambda v: line_integrals(v, [1.0], [0.0], "V"),
                                 r"\bpotential\b", [POT.to_config()]),
    "radon_forward potential": (lambda v: radon_forward(v, 64, 64, 8.0), r"\bpotential\b",
                                [POT.to_config()]),
    "a_line_sinogram potential": (lambda v: a_line_sinogram(v, [1.0], [0.0]),
                                  r"\bpotential\b", [POT.to_config()]),
    "save_potential_json potential": (potential_saved, r"\bpotential\b", [POT.to_config()]),
    "EikonalPhase potential": (lambda v: EikonalPhase(1, v), r"\bpotential\b",
                               [POT.to_config()]),
}


@pytest.mark.parametrize("name, value", [(name, value) for name, (_, _, values)
                                         in ARRAY_ARGUMENTS.items() for value in values])
def test_array_arguments_are_refused_by_name(name, value):
    call, names, _ = ARRAY_ARGUMENTS[name]
    with pytest.raises(DomainError, match=names):
        call(value)


# the edge values every scalar check must meet; each parameter adds one small valid value
EDGES = [0, -1, 2.5, True, math.nan, math.inf, -math.inf, 1e308, 1e-200, 10**400, "3", None]
PTS = np.array([[2.0, 1.0], [-1.5, 0.5]])


@functools.cache
def sinogram():
    return radon_forward(POT, 64, 64, 8.0)


def refused_as(kind: str, value) -> bool:
    """Whether the integer or real check itself refuses value (an integer's lower bound aside)."""
    if kind == "integer":
        return isinstance(value, bool) or not isinstance(value, int)
    try:
        return not math.isfinite(float(value))
    except (TypeError, ValueError, OverflowError):
        return True


# (kind, a valid value, the call with the value in the parameter's place, shape of its
# result, a pattern naming the parameter)
SCALAR_PARAMETERS = {
    "sample_kernel alpha": ("real", 0.3, lambda v: sample_kernel(v, 64).values, (64, 64),
                            r"\balpha\b"),
    "sample_kernel n": ("integer", 64, lambda v: sample_kernel(0.3, v).values, (64, 64), r"\bn\b"),
    "perturb_kernel size": ("real", 0.1, lambda v: perturb_kernel(K64, v, 3).values, (64, 64),
                            r"\bsize\b"),
    "perturb_kernel seed": ("integer", 3, lambda v: perturb_kernel(K64, 0.1, v).values, (64, 64),
                            r"\bseed\b"),
    "extract_mode m": ("integer", 1, lambda v: extract_mode(K64, v), (), r"\bm\b"),
    "conjugate_kernel winding": ("integer", 2, lambda v: conjugate_kernel(K64, v).values,
                                 (64, 64), r"\bwinding\b"),
    "strip_integral winding": ("integer", 2, lambda v: strip_integral(
        K64, StripDomain(0.5, 2.5, 0.5), winding=v), (), r"\bwinding\b"),
    # a strip's own checks (strip_integral refuses a strip narrower than its grid on its own)
    "StripDomain a": ("real", 0.5, lambda v: np.array(astuple(StripDomain(v, 2.5, 0.5))), (3,),
                      r"\ba\b"),
    "StripDomain b": ("real", 2.5, lambda v: np.array(astuple(StripDomain(0.5, v, 0.5))), (3,),
                      r"\bb\b"),
    "StripDomain eps": ("real", 0.5, lambda v: np.array(astuple(StripDomain(0.5, 2.5, v))),
                        (3,), r"\beps\b"),
    "default_strips n": ("integer", 1024, lambda v: np.array([st.eps for st in default_strips(v)]),
                         (3,), r"\bn\b"),
    "bessel_j_ladder mu": ("real", 0.5, lambda v: bessel_j_ladder(v, 3, 1.0), (3,), r"\bmu\b"),
    "bessel_j_ladder count": ("integer", 3, lambda v: bessel_j_ladder(0.5, v, 1.0), (3,),
                              r"\bcount\b"),
    "ABWaveSpec alpha": ("real", 0.5, lambda v: eval_ab_wave_grid(ABWaveSpec(v, 1.0, (1.0, 0.0)),
                                                                  PTS), (2,), r"\balpha\b"),
    "ABWaveSpec lam": ("real", 1.0, lambda v: eval_ab_wave_grid(ABWaveSpec(0.5, v, (1.0, 0.0)),
                                                                PTS), (2,), r"\blam\b"),
    "ABWaveSpec sign": ("integer", 1, lambda v: eval_ab_wave_grid(
        ABWaveSpec(0.5, 1.0, (1.0, 0.0), v), PTS), (2,), r"\bsign\b"),
    "ab_wave_window l_min": ("integer", -3, lambda v: ab_wave_window(SPEC, PTS, v, 3), (2,),
                             r"\bl_min\b"),
    "ab_wave_window l_max": ("integer", 3, lambda v: ab_wave_window(SPEC, PTS, -3, v), (2,),
                             r"\bl_max\b"),
    "GaussianBump strength": ("real", 1.0, lambda v: GaussianBump((1.5, -0.5), v, 0.9).vector(PTS),
                              (2, 2), r"\bstrength\b"),
    "GaussianBump width": ("real", 0.9, lambda v: GaussianBump((1.5, -0.5), 1.0, v).curl(PTS),
                           (2,), r"\bwidth\b"),
    "GaussianScalar strength": ("real", 0.6, lambda v: GaussianScalar((0.0, 1.0), v, 1.1).value(
        PTS), (2,), r"\bstrength\b"),
    "VectorPotential alpha": ("real", 0.8, lambda v: VectorPotential(alpha=v).a_total(PTS),
                              (2, 2), r"\balpha\b"),
    "VectorPotential R0": ("real", 0.5, lambda v: flux(
        VectorPotential(alpha=0.8, obstacle_radius=v), [10.0, 20.0]).sequence, (2,), r"\bR0\b"),
    "EikonalPhase sign": ("integer", 1, lambda v: eikonal_phase(
        EikonalPhase(v, POT), (2.0, 1.0), (1.0, 0.0)), (), r"\bsign\b"),
    "flux radii": ("real", 20.0, lambda v: flux(POT, [10.0, v]).sequence, (2,), r"\bradi(i|us)\b"),
    "sinogram_axes n_p": ("integer", 8, lambda v: np.concatenate(sinogram_axes(v, 8, 8.0)), (16,),
                          r"\bn_p\b"),
    "sinogram_axes n_phi": ("integer", 8, lambda v: np.concatenate(sinogram_axes(8, v, 8.0)),
                            (16,), r"\bn_phi\b"),
    "radon_forward n_p": ("integer", 64, lambda v: radon_forward(POT, v, 64, 8.0).values,
                          (64, 64), r"\bn_p\b"),
    "radon_forward n_phi": ("integer", 64, lambda v: radon_forward(POT, 64, v, 8.0).values,
                            (64, 64), r"\bn_phi\b"),
    "radon_forward p_max": ("real", 8.0, lambda v: radon_forward(POT, 64, 64, v).values,
                            (64, 64), r"\bp_max\b"),
    "radon_invert grid_n": ("integer", 8, lambda v: radon_invert(sinogram(), v), (8, 8),
                            r"\bgrid_n\b"),
    "detect_conjugation n_range": ("integer", 3, lambda v: detect_conjugation(
        K64, conjugate_kernel(K64, 1), v).residual, (), r"\bn_range\b"),
}


# the picks are a finite space: hypothesis stops once it has tried every one
@pytest.mark.parametrize("name", SCALAR_PARAMETERS)
@settings(max_examples=3 * len(EDGES), derandomize=True, deadline=None)
@given(pick=st.integers(0, len(EDGES)))
def test_scalar_parameters_meet_the_contract(name, pick):
    # pick 0 is the valid value; a value the scalar check refuses must be refused by name
    kind, valid, call, shape, names = SCALAR_PARAMETERS[name]
    value = [valid, *EDGES][pick]
    refused = refused_as(kind, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = finite_or_named(lambda: call(value), names if refused else "")
    assert not (refused and out is not None), f"{value!r} was accepted"
    assert out is None or out.shape == shape
    assert pick or out is not None, "the valid value was refused"
