"""CSV artifacts: pinned layouts, exact round trips, and rejection of damaged files."""

import hashlib
import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from abscatter import io as artifact_io
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
    "index_out_of_range": lambda ls: _replace_row(ls, len(ls) - 1, ls[2].split(",", 1)[0]
                                                  + "," + ls[-1].split(",", 1)[1]),
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


def test_non_numeric_error_names_line(kernel_path, tmp_path, capsys):
    bad = str(_damaged(kernel_path, tmp_path, "non_numeric_value"))
    assert main(["recover", "--kernel", bad, "--convex"]) == 2
    assert "line 8: '" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_sinogram_csv_is_rejected(tmp_path, damage, kind):
    values = pattern((8, 8), 2) if kind == "real" else cpattern((8, 8), 2)
    path = tmp_path / "s.csv"
    save_sinogram_csv(canonical_sinogram(values), path)
    with pytest.raises(SchemaError):
        load_sinogram_csv(_damaged(path, tmp_path, damage))


# -------------------------------------------------------------- split tables

# sha256 of split_kernel() as the single-process writer wrote it: four write
# blocks and five read ranges, so up to four processes share the work.
PINNED_SPLIT = "988737b7895f6d09e4896dcde18be82d2999175a1664f42256ef554c1edb25e6"


def split_kernel(n=450, salt=13):
    return KernelGrid(n=n, values=cpattern((n, n), salt), delta_coeff=complex(-0.5, 0.125),
                      alpha_hint=2.75)


def _range_starts(path):
    """0-based file line at which each byte range of the reader starts."""
    data = path.read_bytes()
    start = 0
    for _ in range(4):                  # version, meta header, meta row, row header
        start = data.index(b"\n", start) + 1
    with open(path, "rb") as f:
        ranges = artifact_io._ranges(f, start, len(data))
    return [data.count(b"\n", 0, a) for a, _ in ranges]


@pytest.fixture
def cpus(monkeypatch, request):
    """Pretend the process may use request.param CPUs; count the processes forked."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    yield request.param, forks
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2, 3, 4], indirect=True)
def test_split_table_bytes_do_not_depend_on_process_count(tmp_path, cpus):
    count, forks = cpus
    grid = split_kernel()
    path = tmp_path / "k.csv"
    save_kernel_csv(grid, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SPLIT
    back = load_kernel_csv(path)
    assert same_bits(back.values, grid.values) and back.alpha_hint == grid.alpha_hint
    # one worker per CPU for the four blocks, then for the five ranges
    assert len(_range_starts(path)) == 5
    assert len(forks) == (0 if count == 1 else 2 * count)


def _load_values(path):
    return load_kernel_csv(path).values


@pytest.mark.parametrize("cpus", [2], indirect=True)
def test_split_table_reads_in_a_pool_worker(tmp_path, cpus):
    # a daemonic pool worker may not fork workers of its own: it parses in process
    grid = split_kernel(300)
    save_kernel_csv(grid, tmp_path / "k.csv")
    with multiprocessing.get_context("fork").Pool(1) as pool:
        values = pool.apply_async(_load_values, (tmp_path / "k.csv",)).get(timeout=120)
    assert same_bits(values, grid.values)


@pytest.mark.parametrize("cpus", [2], indirect=True)
def test_dead_worker_fails_the_read(tmp_path, cpus, monkeypatch):
    save_kernel_csv(split_kernel(300), tmp_path / "k.csv")
    monkeypatch.setattr(artifact_io, "_parse_range", lambda *args: os._exit(1))
    with pytest.raises(BrokenProcessPool):
        load_kernel_csv(tmp_path / "k.csv")


@pytest.mark.parametrize("cpus", [2], indirect=True)
def test_failing_split_write_leaves_no_workers(tmp_path, cpus, monkeypatch):
    def fail(cols, fmt, start):
        raise SchemaError(f"block at row {start}")
    monkeypatch.setattr(artifact_io, "_format_block", fail)
    with pytest.raises(SchemaError, match="block at row 0"):
        save_kernel_csv(split_kernel(300), tmp_path / "k.csv")


def _spoil_last_field(line):
    """line with its last field replaced by as many letters (same byte count)."""
    head, last = line.rsplit(",", 1)
    return f"{head},{'z' * len(last)}"


# Damage where the reader cuts a split table: (lines, first line of the second
# range) -> (damaged lines, the damaged line).
CUT_DAMAGE = {
    "truncated_row_after_cut": lambda ls, c: (
        _replace_row(ls, c, ls[c][:ls[c].rindex(",")]), c),
    "non_numeric_in_last_part": lambda ls, c: (
        _replace_row(ls, len(ls) - 3, _spoil_last_field(ls[-3])), len(ls) - 3),
    "rows_swapped_across_cut": lambda ls, c: (_swap_rows(ls, c - 1, c), c),
}


def _damaged_split(path, tmp_path, damage):
    """Damaged copy of a split table, and the 0-based damaged line of a CUT_DAMAGE case."""
    lines = path.read_text().splitlines()
    if damage in DAMAGE:
        out, line = DAMAGE[damage](lines), None
    else:
        out, line = CUT_DAMAGE[damage](lines, _range_starts(path)[1])
    bad = tmp_path / f"{damage}.csv"
    bad.write_text("".join(ln + "\n" for ln in out))
    if line is not None:                # the reader still cuts where the damage sits
        assert _range_starts(bad) == _range_starts(path)
    return bad, line


@pytest.fixture(scope="module")
def split_paths(tmp_path_factory):
    # two ranges each, cut mid-line, so damage next to the cut leaves it in place
    root = tmp_path_factory.mktemp("split")
    save_kernel_csv(split_kernel(300, salt=17), root / "k.csv")
    save_sinogram_csv(canonical_sinogram(cpattern((300, 300), 17)), root / "s.csv")
    return root / "k.csv", root / "s.csv"


@pytest.mark.parametrize("cpus", [2], indirect=True)
@pytest.mark.parametrize("damage", sorted(DAMAGE) + sorted(CUT_DAMAGE))
def test_damaged_split_kernel_csv_is_rejected(split_paths, tmp_path, damage, cpus, capsys):
    good = split_paths[0]
    assert len(_range_starts(good)) == 2
    bad, line = _damaged_split(good, tmp_path, damage)
    with pytest.raises(SchemaError):
        load_kernel_csv(bad)
    assert main(["recover", "--kernel", str(bad), "--convex"]) == 2
    assert main(["strip", "--kernel", str(bad), "--eps", "0.2"]) == 2
    assert main(["gauge-check", "--kernel1", str(good), "--kernel2", str(bad)]) == 2
    if damage == "non_numeric_in_last_part":
        assert f"line {line + 1}: '" in capsys.readouterr().err


@pytest.mark.parametrize("cpus", [2], indirect=True)
@pytest.mark.parametrize("damage", sorted(DAMAGE) + sorted(CUT_DAMAGE))
def test_damaged_split_sinogram_csv_is_rejected(split_paths, tmp_path, damage, cpus):
    good = split_paths[1]
    assert len(_range_starts(good)) == 2
    bad, line = _damaged_split(good, tmp_path, damage)
    with pytest.raises(SchemaError) as err:
        load_sinogram_csv(bad)
    if damage == "non_numeric_in_last_part":
        assert f"line {line + 1}: '" in str(err.value)


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
