"""Bit-exact text formats for matrices, labels, traces, and metrics.

Matrix files:
    MBNR1 matrix <rows> <cols>
    <cols space-separated decimal floats per row, one row per line>

Label files:
    MBNR1 labels <count>
    <one nonnegative integer per line>

Floats are written with Python's shortest round-trip repr and a '.' decimal
separator; reading back reproduces the in-memory values bit for bit. Every
writer goes through ``_write_lines``: UTF-8, LF line endings, a final newline.
Zero-sized matrices are rejected on both ends. A file may hold printable
ASCII other than '_', tab, LF and CR only, which is all the writers
produce; the readers reject anything else before parsing a token. All
parse failures, bytes that are not UTF-8 or not allowed included, raise
ParseError with the offending 1-based line number of the file (blank lines
between labels are skipped but counted).

Matrix values become text only in ``format_matrix``. ``write_matrix``
returns the ``MatrixText`` it wrote and takes one in place of an array, so
the pipeline formats the shape stack once: ``Ssharp.mtx`` joins its rows in
threes and the point-cloud frames split them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .linalg import as_matrix
from .scene import to_frame_rows, validate_labels, validate_shapes

MAGIC = "MBNR1"


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_lines(path, lines) -> None:
    """Write text lines as UTF-8 with LF endings and a final newline; every writer ends here."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# The bytes an MBNR1 file may hold: printable ASCII but '_', plus tab, LF
# and CR. Python's float and int would also take '_' digit separators and
# non-ASCII digits, and str.splitlines breaks lines at other control
# characters; the writers produce none of them.
_ALLOWED_BYTES = bytes(sorted(set(range(0x20, 0x7F)) - {ord("_")} | {0x09, 0x0A, 0x0D}))


def _line_of(data: bytes, offset: int) -> int:
    """The 1-based file line holding byte ``offset``: LF, CR and CR LF end a line."""
    return len((data[:offset] + b"x").splitlines())


def _read_header(path, kind: str, fields: tuple[str, ...]) -> tuple[list[str], list[int]]:
    """Read a UTF-8 text file and check its ``MBNR1 <kind> <fields...>`` header.

    Returns the file's lines and the header's integer fields, each at least 1.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, _line_of(data, exc.start),
                         f"not UTF-8 text ({exc.reason})") from None
    disallowed = data.translate(None, _ALLOWED_BYTES)
    if disallowed:
        # Every byte before the first disallowed one is ASCII, so its offset
        # in ``data`` is also its index in ``text``.
        offset = min(map(data.find, set(disallowed)))
        raise ParseError(path, _line_of(data, offset),
                         f"character {text[offset]!r} is not allowed in MBNR1 text")
    lines = text.splitlines()
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


@dataclass(frozen=True)
class MatrixText:
    """A matrix and its MBNR1 data lines, as ``format_matrix`` made them.

    ``rows[i]`` is row i of ``matrix``: each value's shortest round-trip
    repr, joined by single spaces.
    """

    matrix: np.ndarray
    rows: list[str]

    def frame_rows(self) -> "MatrixText":
        """The text of ``scene.to_frame_rows`` of a formatted 3F x P shape stack.

        Frame row f is rows 3f, 3f+1 and 3f+2 concatenated, so its line is
        their three lines joined by a space; no value is formatted again.
        """
        matrix = to_frame_rows(self.matrix)
        return MatrixText(matrix, [" ".join(self.rows[i : i + 3])
                                   for i in range(0, len(self.rows), 3)])


def format_matrix(matrix) -> MatrixText:
    """Format a finite matrix for MBNR1 files: the one place matrix values become text.

    Each value's repr, row by row. The symmetric affinity |C| + |C^T| needs
    no other path: its mirrored values, equal bit for bit, give equal tokens.
    """
    mat = as_matrix(matrix, "matrix")
    # One row at a time: tolist() gives Python floats, whose repr is _fmt's,
    # without a whole-matrix list of floats in memory.
    return MatrixText(mat, [" ".join(map(repr, row.tolist())) for row in mat])


def write_matrix(path, matrix) -> MatrixText:
    """Write a matrix in the MBNR1 text format and return its text.

    ``matrix`` is an array, or a ``MatrixText``, which is written as it is.
    """
    text = matrix if isinstance(matrix, MatrixText) else format_matrix(matrix)
    rows, cols = text.matrix.shape
    _write_lines(path, [f"{MAGIC} matrix {rows} {cols}", *text.rows])
    return text


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
    _write_lines(path, lines)


def read_labels(path) -> np.ndarray:
    """Read an MBNR1 label file; raises ParseError on any format violation.

    Blank lines are skipped but still counted, so errors name the file's own line.
    """
    lines, (count,) = _read_header(path, "labels", ("count",))
    body = [(line_no, ln.strip()) for line_no, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != count:
        # The first surplus label's line, or the line after the end of a short file.
        line_no = body[count][0] if len(body) > count else len(lines) + 1
        raise ParseError(path, line_no, f"expected {count} labels, got {len(body)}")
    out = np.empty(count, dtype=np.int64)
    for i, (line_no, tok) in enumerate(body):
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(path, line_no, f"not an integer: {tok!r}") from None
        if value < 0:
            raise ParseError(path, line_no, f"negative label id: {value}")
        out[i] = value
    return out


# trace.csv columns, in order: (header, SolverTrace attribute, value formatter).
_TRACE_COLUMNS = [("iteration", "iterations", str)] + [
    (name, name, _fmt)
    for name in ("objective", "r1", "r2", "r3", "r4", "beta", "dual_s", "dual_c", "drift")
]


def write_trace_csv(path, trace) -> None:
    """Write the per-iteration solver history as CSV, one row per iteration."""
    columns = [map(fmt, getattr(trace, attr)) for _, attr, fmt in _TRACE_COLUMNS]
    lines = [",".join(header for header, _, _ in _TRACE_COLUMNS)]
    lines.extend(map(",".join, zip(*columns)))
    _write_lines(path, lines)


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
    _write_lines(path, lines)


def write_pointcloud_frames(directory, shapes, labels) -> list:
    """Write one plot-ready file per frame: rows of 'x y z label'.

    ``shapes`` is a 3F x P stack, as an array or as the ``MatrixText`` that
    ``write_matrix`` returned for it, whose tokens are reused. Returns the
    list of written paths.
    """
    text = shapes if isinstance(shapes, MatrixText) else format_matrix(shapes)
    stack = validate_shapes(text.matrix, "shapes")
    arr = validate_labels(labels, num_points=stack.shape[1])
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    label_tokens = [str(label) for label in arr.tolist()]
    paths = []
    for f in range(stack.shape[0] // 3):
        xs, ys, zs = (row.split(" ") for row in text.rows[3 * f : 3 * f + 3])
        path = directory / f"frame_{f:04d}.txt"
        _write_lines(path, map(" ".join, zip(xs, ys, zs, label_tokens)))
        paths.append(path)
    return paths
