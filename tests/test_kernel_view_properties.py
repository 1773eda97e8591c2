"""A sampled kernel's values are a read-only view of its 2n-value doubled row: every
public kernel operation gives the same bits on that view as on a dense copy, and
none writes into its input."""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abscatter.errors import AbScatterError
from abscatter.inverse import detect_conjugation, recover_flux
from abscatter.smatrix import (
    KernelGrid,
    StripDomain,
    compose_with_amplitude,
    conjugate_kernel,
    extract_mode,
    perturb_kernel,
    sample_kernel,
    save_kernel_csv,
    strip_integral,
)

byte_bounds = getattr(np.lib, "array_utils", np).byte_bounds   # np.byte_bounds before numpy 2


def bits(result):
    """The exact bits of a result: grid values as bytes, everything else by repr (which
    round-trips floats and keeps -0.0 apart); a refusal by its type and message."""
    if isinstance(result, KernelGrid):
        return (result.n, result.values.tobytes(), repr(result.delta_coeff),
                repr(result.alpha_hint))
    return repr(result)


def outcome(op, grid):
    try:
        return bits(op(grid))
    except AbScatterError as exc:
        return type(exc).__name__, str(exc)


def csv_bytes(grid):
    with tempfile.TemporaryDirectory() as tmp:
        save_kernel_csv(grid, Path(tmp) / "k.csv")
        return (Path(tmp) / "k.csv").read_bytes()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(64, 300), st.floats(-3.0, 3.0) | st.integers(-3, 3).map(float),
       st.integers(-3, 3), st.integers(-20, 20))
def test_sampled_view_and_dense_copy_give_the_same_bits(n, alpha, w, m):
    view = sample_kernel(alpha, n)
    assert not view.values.flags.writeable
    lo, hi = byte_bounds(view.values)
    assert hi - lo <= 32 * n
    dense = KernelGrid(n=n, values=np.array(view.values), delta_coeff=view.delta_coeff,
                       alpha_hint=view.alpha_hint)
    before = dense.values.tobytes()
    assert view.values.tobytes() == before

    other = sample_kernel(alpha + w, n)
    strip = StripDomain(0.5, 2.5, 4.0 * 2.0 * math.pi / n)
    amplitude = lambda t, o: (0.3 - 0.2j) * np.exp(1j * (2 * t - o))  # noqa: E731
    ops = [lambda g: conjugate_kernel(g, w),
           lambda g: compose_with_amplitude(g, amplitude),
           lambda g: extract_mode(g, m),
           lambda g: strip_integral(g, strip, w),
           lambda g: detect_conjugation(g, other, 3),
           lambda g: detect_conjugation(other, g, 3),
           lambda g: recover_flux(g, obstacle_convex=True),
           lambda g: perturb_kernel(g, 0.01, n),
           csv_bytes]
    for op in ops:
        assert outcome(op, view) == outcome(op, dense)
        assert dense.values.tobytes() == before
