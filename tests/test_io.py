"""CSV artifacts: pinned layouts, exact round trips, and rejection of damaged files."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from abscatter.abwave import load_wave_csv, save_wave_csv
from abscatter.cli import main
from abscatter.errors import SchemaError
from abscatter.smatrix import KernelGrid, load_kernel_csv, sample_kernel, save_kernel_csv
from abscatter.xray import Sinogram, load_sinogram_csv, save_sinogram_csv

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def pattern(shape, salt):
    """Deterministic floats (exact IEEE arithmetic only) spanning signs, zeros and exponents."""
    i = np.arange(math.prod(shape))
    scale = np.array([1.0, -1e-300, 3e7, -2.5e-5, 1e300, 0.0])[(i * salt) % 6]
    return ((i * 37 + salt) % 101 / 7.0 * scale).reshape(shape)


def cpattern(shape, salt):
    out = np.empty(shape, dtype=complex)
    out.real = pattern(shape, salt)
    out.imag = pattern(shape, salt + 1)
    return out


def canonical_sinogram(values, p_max=6.0):
    n_p, n_phi = values.shape
    return Sinogram(offsets=np.linspace(-p_max, p_max, n_p),
                    angles=np.arange(n_phi) * math.pi / n_phi, values=values)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------------------------ layout pin

# sha256 of each artifact written from the fixed inputs below by the
# per-element writers these files were first produced with.  Existing files
# and external parsers depend on this exact layout.
PINNED = {
    "kernel_hint.csv": "01708bb782475a2fc9a3e0ed62b58d6e90be1c283f1c11208502e209d5beb7ca",
    "kernel_nohint.csv": "fe06d4d153c3317eaf87a7b0f12b9ccc14dabf75d54b7dab48ffd547e370c976",
    "sino_real.csv": "4e612deb2971d9f7acc73e7f2b0cfc94e0d99cecbc7113bee92a18af87277e80",
    "sino_complex.csv": "183e8c5d3ec5f09400791c18d35fca6aeb5e4a3a51020348759265ada3e13d14",
    "wave.csv": "d9cdf4ae43883ff9beaf2b39ee16fefcfa6019039aa52988b6cec787a93ad88f",
}


def test_artifact_bytes_are_pinned(tmp_path):
    grid = KernelGrid(n=64, values=cpattern((64, 64), 1),
                      delta_coeff=complex(0.25, -1.0 / 3.0), alpha_hint=0.3)
    save_kernel_csv(grid, tmp_path / "kernel_hint.csv")
    grid.alpha_hint = None
    save_kernel_csv(grid, tmp_path / "kernel_nohint.csv")
    save_sinogram_csv(canonical_sinogram(pattern((64, 64), 3)), tmp_path / "sino_real.csv")
    save_sinogram_csv(canonical_sinogram(cpattern((64, 64), 5)), tmp_path / "sino_complex.csv")
    save_wave_csv(tmp_path / "wave.csv", pattern((17, 2), 7), cpattern((17,), 9))
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED}
    assert digests == PINNED


# ------------------------------------------------------------- damaged files

def _replace_row(lines, row, text):
    out = list(lines)
    out[row] = text
    return out


def _swap_rows(lines, a, b):
    out = list(lines)
    out[a], out[b] = out[b], out[a]
    return out


# Each maps the lines of a valid grid artifact (version, meta header, meta
# row, row header, data rows...) to a damaged copy.  Row 4 is the first data
# row; the last line is the last one.
DAMAGE = {
    "truncated_at_row_boundary": lambda ls: ls[:4 + (len(ls) - 4) // 2],
    "truncated_mid_row": lambda ls: ls[:-1] + [ls[-1][:ls[-1].rindex(",")]],
    "truncated_after_comma": lambda ls: ls[:-1] + [ls[-1][:ls[-1].rindex(",") + 1]],
    "non_numeric_value": lambda ls: _replace_row(ls, 7, ls[7].rsplit(",", 1)[0] + ",zebra"),
    "non_integer_size": lambda ls: _replace_row(ls, 2, "64.5," + ls[2].split(",", 1)[1]),
    "index_out_of_range": lambda ls: _replace_row(ls, len(ls) - 1,
                                                  "64," + ls[-1].split(",", 1)[1]),
    "repeated_index": lambda ls: _replace_row(ls, 5, ls[4]),
    "reordered_rows": lambda ls: _swap_rows(ls, 5, 6),
    "extra_row": lambda ls: ls + [ls[-1]],
    "missing_row_header": lambda ls: ls[:3] + ls[4:],
    "wrong_row_header": lambda ls: _replace_row(ls, 3, "a,b,c,d"),
    "wrong_meta_header": lambda ls: _replace_row(ls, 1, "n,re,im,hint"),
    "missing_meta_field": lambda ls: _replace_row(ls, 2, ls[2].rsplit(",", 1)[0]),
    "extra_column": lambda ls: [*ls[:4], *(ln + ",0.0" for ln in ls[4:])],
    "empty_file": lambda ls: [],
}


def _damaged(path, tmp_path, name):
    lines = path.read_text().splitlines()
    out = tmp_path / f"{name}.csv"
    out.write_text("".join(ln + "\n" for ln in DAMAGE[name](lines)))
    return out


@pytest.fixture(scope="module")
def kernel_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("kernel") / "k.csv"
    save_kernel_csv(sample_kernel(0.3, 64), path)
    return path


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_kernel_csv_is_rejected(kernel_path, tmp_path, damage):
    bad = str(_damaged(kernel_path, tmp_path, damage))
    with pytest.raises(SchemaError):
        load_kernel_csv(bad)
    good = str(kernel_path)
    assert main(["recover", "--kernel", bad, "--convex"]) == 2
    assert main(["strip", "--kernel", bad, "--eps", "0.2"]) == 2
    assert main(["gauge-check", "--kernel1", good, "--kernel2", bad]) == 2


def test_truncated_kernel_error_names_row_count(kernel_path, tmp_path, capsys):
    bad = str(_damaged(kernel_path, tmp_path, "truncated_at_row_boundary"))
    assert main(["recover", "--kernel", bad, "--convex"]) == 2
    assert "expected 4096 rows for a 64x64 grid, found 2048" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_sinogram_csv_is_rejected(tmp_path, damage, kind):
    values = pattern((8, 8), 2) if kind == "real" else cpattern((8, 8), 2)
    path = tmp_path / "s.csv"
    save_sinogram_csv(canonical_sinogram(values), path)
    with pytest.raises(SchemaError):
        load_sinogram_csv(_damaged(path, tmp_path, damage))


# ------------------------------------------------------- round-trip properties

reals = st.floats(allow_nan=False)
sizes = st.integers(1, 6)


@st.composite
def kernels(draw):
    n = draw(sizes)
    values = np.empty((n, n), dtype=complex)
    values.real = draw(arrays(np.float64, (n, n), elements=reals))
    values.imag = draw(arrays(np.float64, (n, n), elements=reals))
    return KernelGrid(n=n, values=values, delta_coeff=complex(draw(reals), draw(reals)),
                      alpha_hint=draw(st.none() | reals))


@st.composite
def sinograms(draw):
    shape = (draw(sizes), draw(sizes))
    values = draw(arrays(np.float64, shape, elements=reals))
    if draw(st.booleans()):
        values = values.astype(complex)
        values.imag = draw(arrays(np.float64, shape, elements=reals))
    return canonical_sinogram(values, draw(st.floats(1e-3, 1e3)))


def _row_boundary_prefixes(path):
    lines = path.read_text().splitlines(keepends=True)
    return ["".join(lines[:cut]) for cut in range(len(lines))]


@PROPERTY
@given(kernels())
def test_kernel_round_trip_and_truncation(tmp_path_factory, grid):
    path = tmp_path_factory.mktemp("k") / "k.csv"
    save_kernel_csv(grid, path)
    back = load_kernel_csv(path)
    assert back.n == grid.n and same_bits(back.values, grid.values)
    assert same_bits(back.delta_coeff, grid.delta_coeff)
    assert back.alpha_hint == grid.alpha_hint
    for prefix in _row_boundary_prefixes(path):
        path.write_text(prefix)
        with pytest.raises(SchemaError):
            load_kernel_csv(path)


@PROPERTY
@given(sinograms())
def test_sinogram_round_trip_and_truncation(tmp_path_factory, sino):
    path = tmp_path_factory.mktemp("s") / "s.csv"
    save_sinogram_csv(sino, path)
    back = load_sinogram_csv(path)
    assert same_bits(back.values, sino.values)
    assert same_bits(back.offsets, sino.offsets) and same_bits(back.angles, sino.angles)
    for prefix in _row_boundary_prefixes(path):
        path.write_text(prefix)
        with pytest.raises(SchemaError):
            load_sinogram_csv(path)


@PROPERTY
@given(st.integers(0, 20).flatmap(lambda n: st.tuples(
    arrays(np.float64, (n, 2), elements=reals),
    arrays(np.float64, (n, 2), elements=reals))))
def test_wave_round_trip(tmp_path_factory, data):
    points, pairs = data
    values = np.empty(len(pairs), dtype=complex)
    values.real, values.imag = pairs.T
    path = tmp_path_factory.mktemp("w") / "w.csv"
    save_wave_csv(path, points, values)
    back_points, back_values = load_wave_csv(path)
    assert same_bits(back_points, points) and same_bits(back_values, values)
