"""The CSV artifact format, behind one table writer and one validated reader.

An artifact is a '# abscatter <version>' line, an optional meta block (field
names, then values), a row header, and one comma-separated row per entry:
integers via str(), floats via repr(), which round-trips exactly.  Readers
skip comment and blank lines, parse the data block with np.loadtxt straight
from the open file, and raise SchemaError on anything malformed.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import __version__
from .errors import SchemaError

# Rows formatted per block: bounds the writer's Python objects to a few MB.
_WRITE_ROWS = 1 << 16


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
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join([*head, row_header, ""]))
        for start in range(0, cols[0].size, _WRITE_ROWS):
            f.writelines(map(fmt.format, *[c[start:start + _WRITE_ROWS].tolist() for c in cols]))


def grid_columns(values) -> list[np.ndarray]:
    """Row-major index columns of a value grid, then re, im (complex) or its values."""
    values = np.asarray(values)
    flat = values.ravel()
    vals = [flat.real, flat.imag] if np.iscomplexobj(flat) else [flat.astype(np.float64)]
    return [*np.indices(values.shape).reshape(values.ndim, -1), *vals]


def _content_line(f) -> str:
    """Next line that is neither blank nor a comment, without its newline ('' at EOF)."""
    for line in iter(f.readline, ""):
        if line.strip() and not line.startswith("#"):
            return line.rstrip("\n")
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
    with open(path, "r", encoding="ascii") as f:
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
            data = parse_block(f, row_header.count(",") + 1)
            if dims:
                data = _grid(data, tuple(values[d] for d in dims))
        except ValueError as exc:       # SchemaError, or text that is not a number
            raise SchemaError(f"{path}: {exc}") from exc
    return values, row_header, data


def parse_block(lines, columns: int) -> np.ndarray:
    """Float array of shape (rows, columns) from the CSV rows of an open file."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # empty block: handled below
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
    if data.size == 0:
        return np.zeros((0, columns))
    if data.shape[1] != columns:
        raise SchemaError(f"expected {columns} columns, found {data.shape[1]}")
    return data


def as_complex(pairs: np.ndarray) -> np.ndarray:
    """Complex values, bit for bit, from an (N, 2) block of re, im columns."""
    return np.ascontiguousarray(pairs).view(complex)[:, 0]


def _grid(data: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if min(shape) < 1:
        raise SchemaError(f"grid shape {shape} is empty")
    size = math.prod(shape)
    if data.shape[0] != size:
        raise SchemaError(f"expected {size} rows for a {'x'.join(map(str, shape))} grid, "
                          f"found {data.shape[0]}")
    rank = len(shape)
    if not np.array_equal(data[:, :rank], np.indices(shape).reshape(rank, -1).T):
        raise SchemaError("index columns are not the row-major index grid "
                          "(repeated, reordered or out-of-range rows)")
    vals = data[:, rank:]
    return (as_complex(vals) if vals.shape[1] == 2 else vals[:, 0]).reshape(shape)
