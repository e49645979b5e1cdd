"""Bit-exact text formats for matrices, labels, traces, and metrics.

Matrix files:
    MBNR1 matrix <rows> <cols>
    <cols space-separated decimal floats per row, one row per line>

Label files:
    MBNR1 labels <count>
    <one nonnegative integer per line>

Floats are written with Python's shortest round-trip repr, '.' decimal
separator, LF line endings; reading back reproduces the in-memory values
bit for bit. Zero-sized matrices are rejected on both ends. All parse
failures, bytes that are not UTF-8 included, raise ParseError with the
offending 1-based line number.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParseError
from .linalg import as_matrix
from .scene import validate_labels

MAGIC = "MBNR1"


def _fmt(value: float) -> str:
    return repr(float(value))


def _read_header(path, kind: str, fields: tuple[str, ...]) -> tuple[list[str], list[int]]:
    """Read a UTF-8 text file and check its ``MBNR1 <kind> <fields...>`` header.

    Returns the file's lines and the header's integer fields, each at least 1.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line, f"not UTF-8 text ({exc.reason})") from None
    if not lines:
        raise ParseError(path, 1, f"empty file, expected {MAGIC} {kind} header")
    header = lines[0].split()
    if len(header) != 2 + len(fields) or header[:2] != [MAGIC, kind]:
        expected = " ".join([MAGIC, kind] + [f"<{name}>" for name in fields])
        raise ParseError(path, 1, f"malformed header {lines[0]!r}, expected {expected!r}")
    try:
        values = [int(tok) for tok in header[2:]]
    except ValueError:
        raise ParseError(path, 1, f"non-integer {kind} size in header {lines[0]!r}") from None
    if min(values) < 1:
        raise ParseError(path, 1, f"degenerate {kind} size {' x '.join(header[2:])}")
    return lines, values


def write_matrix(path, matrix) -> None:
    """Write a matrix in the MBNR1 text format."""
    mat = as_matrix(matrix, "matrix")
    lines = [f"{MAGIC} matrix {mat.shape[0]} {mat.shape[1]}"]
    # One row at a time: tolist() gives Python floats, whose repr is _fmt's,
    # without a whole-matrix list in memory.
    lines.extend(" ".join(map(repr, row.tolist())) for row in mat)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix(path) -> np.ndarray:
    """Read an MBNR1 matrix file; raises ParseError on any format violation."""
    lines, (rows, cols) = _read_header(path, "matrix", ("rows", "cols"))
    if len(lines) < rows + 1:
        raise ParseError(path, len(lines) + 1,
                         f"expected {rows} data rows, file ends after {len(lines) - 1}")
    out = np.empty((rows, cols))
    for r in range(rows):
        line_no = r + 2
        tokens = lines[r + 1].split()
        if len(tokens) != cols:
            raise ParseError(path, line_no,
                             f"expected {cols} values, got {len(tokens)}")
        try:
            values = list(map(float, tokens))
        except ValueError:
            values = None
        if values is None or not all(map(math.isfinite, values)):
            _raise_bad_token(path, line_no, tokens)
        out[r] = values
    for extra in range(rows + 1, len(lines)):
        if lines[extra].strip():
            raise ParseError(path, extra + 1, "unexpected content after data rows")
    return out


def _raise_bad_token(path, line_no: int, tokens: list[str]) -> None:
    """Raise the ParseError for the first token of a row that is not a finite float."""
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            raise ParseError(path, line_no, f"not a number: {tok!r}") from None
        if not math.isfinite(value):
            raise ParseError(path, line_no, f"non-finite entry: {tok!r}")


def write_labels(path, labels) -> None:
    """Write a label vector in the MBNR1 text format."""
    arr = validate_labels(labels)
    lines = [f"{MAGIC} labels {arr.size}"]
    lines.extend(str(int(v)) for v in arr)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_labels(path) -> np.ndarray:
    """Read an MBNR1 label file; raises ParseError on any format violation."""
    lines, (count,) = _read_header(path, "labels", ("count",))
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != count:
        raise ParseError(path, min(len(lines), count + 1),
                         f"expected {count} labels, got {len(body)}")
    out = np.empty(count, dtype=np.int64)
    for i, ln in enumerate(body):
        tok = ln.strip()
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(path, i + 2, f"not an integer: {tok!r}") from None
        if value < 0:
            raise ParseError(path, i + 2, f"negative label id: {value}")
        out[i] = value
    return out


def write_trace_csv(path, trace) -> None:
    """Write the per-iteration solver history as CSV."""
    lines = ["iteration,objective,r1,r2,r3,r4,beta"]
    for i in range(len(trace)):
        lines.append(",".join([
            str(trace.iterations[i]),
            _fmt(trace.objective[i]),
            _fmt(trace.r1[i]),
            _fmt(trace.r2[i]),
            _fmt(trace.r3[i]),
            _fmt(trace.r4[i]),
            _fmt(trace.beta[i]),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_metrics_csv(path, metrics: dict) -> None:
    """Write a key,value metrics table as CSV."""
    lines = ["metric,value"]
    for key, value in metrics.items():
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = _fmt(value)
        else:
            rendered = str(value)
        lines.append(f"{key},{rendered}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_pointcloud_frames(directory, shapes, labels) -> list:
    """Write one plot-ready file per frame: rows of 'x y z label'.

    Returns the list of written paths.
    """
    from pathlib import Path

    shapes = as_matrix(shapes, "shapes")
    arr = validate_labels(labels, num_points=shapes.shape[1])
    frames = shapes.shape[0] // 3
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    label_tokens = [str(label) for label in arr.tolist()]
    paths = []
    for f in range(frames):
        xs, ys, zs = shapes[3 * f : 3 * f + 3].tolist()
        lines = [
            f"{x!r} {y!r} {z!r} {label}"
            for x, y, z, label in zip(xs, ys, zs, label_tokens)
        ]
        path = directory / f"frame_{f:04d}.txt"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(path)
    return paths
