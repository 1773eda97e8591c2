"""The CSV artifact format, behind one table writer and one validated reader.

An artifact is a '# abscatter <version>' line, an optional meta block (field
names, then values), a row header, and one comma-separated row per entry:
integers via str(), floats via repr(), which round-trips exactly.  Readers
skip comment and blank lines, parse the data block with np.loadtxt, and raise
SchemaError on anything malformed.

Tables larger than one block are formatted and parsed by one process per
usable CPU, forked from the caller.  The writer writes the formatted blocks
in order, so the bytes do not depend on the number of processes; the reader
cuts the data block at newlines into byte ranges that each worker reads from
the file itself, and checks and assembles the parsed parts in order.  There
is nothing to configure.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
import os
import warnings

import numpy as np

from . import __version__
from .errors import SchemaError

# Rows formatted per block: bounds each process's Python objects to a few MB;
# a table of more than one block is formatted by one worker per usable CPU.
_WRITE_ROWS = 1 << 16
# Data bytes parsed per range (about 45,000 kernel rows); a table of more than
# one range is parsed by one worker per usable CPU.
_READ_BYTES = 1 << 21


def write_table(path, row_header: str, columns, meta: dict | None = None) -> None:
    """Write equal-length columns under row_header, after an optional meta block.

    Integer columns are written as integers, all others are cast to float64
    and written with repr; meta values are written with str (None as empty).
    """
    cols = [c if c.dtype.kind in "iu" else c.astype(np.float64, copy=False)
            for c in map(np.ravel, columns)]
    if len({c.size for c in cols}) != 1:
        raise SchemaError("table columns differ in length")
    head = [f"# abscatter {__version__}"]
    if meta is not None:
        head += [",".join(meta), ",".join("" if v is None else str(v) for v in meta.values())]
    fmt = ",".join(["{}"] * len(cols)) + "\n"
    blocks = [(start,) for start in range(0, cols[0].size, _WRITE_ROWS)]
    with open(path, "wb") as f:
        f.write("\n".join([*head, row_header, ""]).encode("ascii"))
        with _spread(_format_block, blocks, cols, fmt) as texts:
            f.writelines(texts)


def _format_block(cols, fmt: str, start: int) -> bytes:
    """Rows start .. start + _WRITE_ROWS of the columns, as ASCII text."""
    rows = map(fmt.format, *[c[start:start + _WRITE_ROWS].tolist() for c in cols])
    return "".join(rows).encode("ascii")


def grid_columns(values) -> list[np.ndarray]:
    """Row-major index columns of a value grid, then re, im (complex) or its values."""
    values = np.asarray(values)
    flat = values.ravel()
    vals = [flat.real, flat.imag] if np.iscomplexobj(flat) else [flat.astype(np.float64)]
    return [*np.indices(values.shape).reshape(values.ndim, -1), *vals]


def _content_line(f) -> str:
    """Next line that is neither blank nor a comment, without its line end ('' at EOF)."""
    for raw in iter(f.readline, b""):
        line = raw.decode("ascii").rstrip("\r\n")
        if line.strip() and not line.startswith("#"):
            return line
    return ""


def read_table(path, row_headers: tuple[str, ...], meta: dict | None = None, dims=()):
    """(meta values, row header, data) of an artifact; SchemaError if it is malformed.

    meta maps the meta field names, in file order, to converters from text;
    the row header must be one of row_headers.  dims names the meta fields
    that give a grid shape: the leading index columns must then equal the
    row-major index grid of that shape (so no row is missing, extra,
    repeated, reordered or out of range), and data is the value grid, float
    for one value column and complex for two.
    """
    with open(path, "rb") as f:
        try:
            values = {}
            if meta is not None:
                names, fields = _content_line(f), _content_line(f).split(",")
                if names != ",".join(meta) or len(fields) != len(meta):
                    raise SchemaError(f"meta block is not {len(meta)} fields {','.join(meta)!r}")
                values = {name: conv(text) for (name, conv), text in zip(meta.items(), fields)}
            row_header = _content_line(f)
            if row_header not in row_headers:
                raise SchemaError(f"row header {row_header!r} is not one of {row_headers}")
            columns = row_header.count(",") + 1
            start, stop = f.tell(), os.fstat(f.fileno()).st_size
            with _spread(_parse_range, _ranges(f, start, stop), path, columns) as parts:
                if dims:
                    shape = tuple(values[d] for d in dims)
                    data = _grid(parts, shape, columns, stop - start)
                else:
                    data = np.concatenate(list(parts))
        except ValueError as exc:       # SchemaError, or text that is not a number
            raise SchemaError(f"{path}: {exc}") from exc
    return values, row_header, data


def _ranges(f, start: int, stop: int) -> list[tuple[int, int]]:
    """Byte ranges of about _READ_BYTES covering start .. stop, each cut after a newline."""
    count = -(-(stop - start) // _READ_BYTES)
    cuts = [start]
    for k in range(1, count):
        f.seek(start + k * (stop - start) // count)
        f.readline()
        if cuts[-1] < f.tell() < stop:
            cuts.append(f.tell())
    return list(zip(cuts, [*cuts[1:], stop]))


def _parse_range(path, columns: int, start: int, stop: int) -> np.ndarray:
    """parse_block of the rows in bytes start .. stop of the file at path.

    A row that is not `columns` numbers raises SchemaError naming its line.
    """
    with open(path, "rb") as f:
        f.seek(start)
        lines = f.read(stop - start).splitlines()
        try:
            return parse_block(lines, columns)
        except ValueError:
            bad = _first_rejected(lines, columns)
            text = lines[bad][:80].decode("ascii", "replace")
            raise SchemaError(f"line {_line_at(f, start) + bad}: {text!r} is not {columns} "
                              f"comma-separated numbers") from None


def _first_rejected(lines: list[bytes], columns: int) -> int:
    """Index of the first line parse_block rejects, given that it rejects lines.

    Whether parse_block rejects a set of lines depends on each line alone, so
    halving the rejected span finds the line.
    """
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse_block(lines[lo:mid], columns)
            lo = mid
        except ValueError:
            hi = mid
    return lo


def _line_at(f, pos: int) -> int:
    """1-based number of the line that starts at byte pos of the open binary file f."""
    f.seek(0)
    return 1 + sum(f.read(min(_READ_BYTES, pos - at)).count(b"\n")
                   for at in range(0, pos, _READ_BYTES))


def parse_block(lines, columns: int) -> np.ndarray:
    """Float array of shape (rows, columns) from CSV rows (an iterable of lines)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # empty block: handled below
        data = np.loadtxt(lines, delimiter=",", ndmin=2, encoding="ascii")
    if data.size == 0:
        return np.zeros((0, columns))
    if data.shape[1] != columns:
        raise SchemaError(f"expected {columns} columns, found {data.shape[1]}")
    return data


def as_complex(pairs: np.ndarray) -> np.ndarray:
    """Complex values, bit for bit, from an (N, 2) block of re, im columns."""
    return np.ascontiguousarray(pairs).view(complex)[:, 0]


def _grid(parts, shape: tuple[int, ...], columns: int, nbytes: int) -> np.ndarray:
    """Value grid of shape from the parsed parts, in order, of nbytes of grid rows."""
    if min(shape) < 1:
        raise SchemaError(f"grid shape {shape} is empty")
    rank, size = len(shape), math.prod(shape)
    # a row takes at least two bytes per column: data too short for size rows
    # is only counted, so a damaged meta block sizes no allocation
    vals = np.empty((size, columns - rank)) if 2 * columns * size <= nbytes + 1 else None
    rows, misplaced = 0, False
    for part in parts:
        end = rows + len(part)
        if vals is not None and end <= size:
            index = np.unravel_index(np.arange(rows, end), shape)
            misplaced = misplaced or not all(map(np.array_equal, part.T[:rank], index))
            vals[rows:end] = part[:, rank:]
        rows = end
    if rows != size:
        raise SchemaError(f"expected {size} rows for a {'x'.join(map(str, shape))} grid, "
                          f"found {rows}")
    if misplaced:
        raise SchemaError("index columns are not the row-major index grid "
                          "(repeated, reordered or out-of-range rows)")
    return (as_complex(vals) if vals.shape[1] == 2 else vals[:, 0]).reshape(shape)


# ------------------------------------------------------- one process per CPU

_job = None     # (fn, shared) of the _spread call that forked this worker


def _adopt(fn, shared) -> None:
    global _job
    _job = fn, shared


def _run(*task):
    fn, shared = _job
    return fn(*shared, *task)


@contextlib.contextmanager
def _spread(fn, tasks: list[tuple], *shared):
    """Iterator over fn(*shared, *task) for the tasks, in order.

    With more than one task and more than one CPU in os.sched_getaffinity(0),
    one worker per CPU, forked from the caller, runs the tasks, at most two
    each ahead of the caller.  The caller only collects the results: busy in
    a long C call (np.loadtxt, str.join) it would hold the GIL that the pool
    needs to receive them, and stall the workers.  Workers inherit shared at
    the fork; only tasks and results are pickled.  A worker that dies raises
    BrokenProcessPool rather than leaving the caller waiting.  Every worker
    is gone when the context exits.  A daemonic process, such as a
    multiprocessing pool worker, may not start processes and runs the tasks
    itself.
    """
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    if workers > 1:
        import multiprocessing

        if multiprocessing.current_process().daemon:
            workers = 1
    if workers < 2:
        yield (fn(*shared, *task) for task in tasks)
        return
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(fn, shared))
    try:
        pending = (pool.submit(_run, *task) for task in tasks)
        ahead = collections.deque(itertools.islice(pending, 2 * workers))

        def results():
            while ahead:
                ahead.extend(itertools.islice(pending, 1))
                yield ahead.popleft().result()

        yield results()
    finally:
        pool.shutdown(cancel_futures=True)
