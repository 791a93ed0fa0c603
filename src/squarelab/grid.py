"""Binary grid domain types, text parsing/serialization, and seeded generators.

Matrices are dense row-major grids of 0/1 cells; volumes add a depth axis
(depth-major, then row-major).  The text format is one line of '0'/'1'
characters per row, with volumes separating layers by exactly one blank line.
All types are immutable after construction.

A well-formed file is read in place by `core.read_matrix` and
`core.read_volume`, which import this module only for what their bulk
check rejects: the line parsers here, `parse_matrix` and `parse_volume`,
report it, naming the line.  BinaryMatrix and BinaryVolume are what the
library solvers take; `solve`, `rect` and `cube` by default run on the
file's text instead.  The value base, the error types and the read path
are defined in `core`.
"""

from __future__ import annotations

import random
from enum import Enum

from .core import (
    InvalidCharError,
    LayerShapeMismatchError,
    MatrixParseError,
    RaggedRowsError,
    VolumeText,
    _Record,
)

_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def _check_cells(cells: bytes) -> None:
    # deleting every 0 and 1 byte leaves nothing exactly when all cells are 0/1
    if cells.translate(None, b"\x00\x01"):
        raise ValueError("cells must contain only 0 or 1")


class BinaryMatrix(_Record):
    """Dense row-major grid of 0/1 cells.

    `cells` has length rows*cols; the canonical empty matrix is 0x0
    (rows == 0 forces cols == 0).
    """

    __slots__ = ()
    rows: int
    cols: int
    cells: bytes

    def __new__(cls, rows: int, cols: int, cells: bytes) -> BinaryMatrix:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if rows == 0 and cols != 0:
            raise ValueError("empty matrix must be 0x0")
        if len(cells) != rows * cols:
            raise ValueError(f"cell count {len(cells)} != {rows}x{cols}")
        _check_cells(cells)
        return tuple.__new__(cls, (rows, cols, cells))

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "BinaryMatrix":
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        flat = bytes(cell for row in rows for cell in row)
        return cls(n_rows, n_cols, flat)

    def get(self, i: int, j: int) -> int:
        return self.cells[i * self.cols + j]

    def row(self, i: int) -> bytes:
        return self.cells[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def ones(self) -> int:
        return self.cells.count(1)


EMPTY_MATRIX = BinaryMatrix(0, 0, b"")


class BinaryVolume(_Record):
    """Dense 3D grid of 0/1 cells, depth-major then row-major.

    All layers share the same rows x cols shape; the canonical empty volume
    is 0x0x0, and any non-empty volume has rows >= 1 and cols >= 1 so every
    layer survives a text round trip.
    """

    __slots__ = ()
    depth: int
    rows: int
    cols: int
    cells: bytes

    def __new__(cls, depth: int, rows: int, cols: int, cells: bytes) -> BinaryVolume:
        if min(depth, rows, cols) < 0:
            raise ValueError("volume dimensions must be nonnegative")
        if depth == 0:
            if rows != 0 or cols != 0:
                raise ValueError("empty volume must be 0x0x0")
        elif rows == 0 or cols == 0:
            raise ValueError("volume layers must be at least 1x1")
        if len(cells) != depth * rows * cols:
            raise ValueError(f"cell count {len(cells)} != {depth}x{rows}x{cols}")
        _check_cells(cells)
        return tuple.__new__(cls, (depth, rows, cols, cells))

    @classmethod
    def from_layers(cls, layers: list[BinaryMatrix]) -> "BinaryVolume":
        if not layers:
            return cls(0, 0, 0, b"")
        rows, cols = layers[0].rows, layers[0].cols
        for d, layer in enumerate(layers):
            if (layer.rows, layer.cols) != (rows, cols):
                raise LayerShapeMismatchError(
                    f"layer {d} is {layer.rows}x{layer.cols}, "
                    f"expected {rows}x{cols}"
                )
        return cls(len(layers), rows, cols, b"".join(la.cells for la in layers))

    def get(self, d: int, i: int, j: int) -> int:
        return self.cells[(d * self.rows + i) * self.cols + j]

    def layer(self, d: int) -> BinaryMatrix:
        if not 0 <= d < self.depth:
            raise IndexError(f"layer {d} out of range for depth {self.depth}")
        size = self.rows * self.cols
        return BinaryMatrix(self.rows, self.cols, self.cells[d * size:(d + 1) * size])


EMPTY_VOLUME = BinaryVolume(0, 0, 0, b"")


class EdgeKind(str, Enum):
    ALL_ZEROS = "all_zeros"
    ALL_ONES = "all_ones"
    SINGLE_ROW = "single_row"
    SINGLE_COL = "single_col"


# edge-case matrix sizes, shared by the verification suite and the benchmark
EDGE_SIZES: dict[EdgeKind, int] = {
    EdgeKind.ALL_ZEROS: 100,
    EdgeKind.ALL_ONES: 100,
    EdgeKind.SINGLE_ROW: 1000,
    EdgeKind.SINGLE_COL: 1000,
}


class GenSpec(_Record):
    """Deterministic recipe for a random grid: identical spec, identical grid.

    `depth` selects volume generation; leave None for matrices.
    """

    __slots__ = ()
    rows: int
    cols: int
    density: float
    seed: int
    depth: int | None

    def __new__(
        cls, rows: int, cols: int, density: float, seed: int, depth: int | None = None
    ) -> GenSpec:
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be positive")
        if depth is not None and depth < 1:
            raise ValueError("depth must be positive when given")
        if not 0.0 <= density <= 1.0:
            raise ValueError(f"density {density} outside [0, 1]")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        return tuple.__new__(cls, (rows, cols, density, seed, depth))


def _line_to_bits(line: str, lineno: int) -> bytes:
    try:
        raw = line.encode("ascii")
    except UnicodeEncodeError:
        bad = next(ch for ch in line if ord(ch) > 127)
        raise InvalidCharError(
            f"invalid character {bad!r} at line {lineno}", lineno
        ) from None
    # deleting every '0' and '1' leaves nothing exactly when the line is valid
    if raw.translate(None, b"01"):
        bad = next(ch for ch in line if ch not in "01")
        raise InvalidCharError(f"invalid character {bad!r} at line {lineno}", lineno)
    return raw.translate(_TO_BITS)


def _split_lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline is optional
    return lines


def _parse_rows(lines: list[str], first: int) -> BinaryMatrix:
    """Parse non-empty `lines` as one matrix; `first` is the 1-based number
    of lines[0] in the whole text.  Each line is checked for blank, then
    ragged, then bad characters."""
    cols = len(lines[0])
    chunks = []
    for lineno, line in enumerate(lines, first):
        if not line:
            raise MatrixParseError(
                f"line {lineno} is blank; a matrix has no blank lines", lineno
            )
        if len(line) != cols:
            raise RaggedRowsError(
                f"line {lineno} has {len(line)} cells, expected {cols}", lineno
            )
        chunks.append(_line_to_bits(line, lineno))
    return BinaryMatrix(len(lines), cols, b"".join(chunks))


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse '0'/'1' text, one line per row.  Empty input is the 0x0 matrix.

    A blank line is an error: only volumes separate layers with blank lines.
    """
    lines = _split_lines(text)
    return _parse_rows(lines, 1) if lines else EMPTY_MATRIX


def serialize_matrix(m: BinaryMatrix) -> str:
    """Inverse of parse_matrix: one '\\n'-terminated line per row."""
    return _text_of(m.cells, m.rows, m.cols).decode("ascii")


def parse_volume(text: str) -> BinaryVolume:
    """Parse layers separated by exactly one blank line, depth 0 first.

    Each layer goes through the matrix row parser; what is left here is
    that no layer is empty and that every layer has the first one's shape.
    """
    lines = _split_lines(text)
    if not lines:
        return EMPTY_VOLUME
    layers: list[BinaryMatrix] = []
    start = 0
    for end in [i for i, line in enumerate(lines) if not line] + [len(lines)]:
        lineno = end + 1  # the blank line closing the layer, or one past the text
        if start == end:
            raise LayerShapeMismatchError(f"empty layer before line {lineno}", lineno)
        layer = _parse_rows(lines[start:end], start + 1)
        first = layers[0] if layers else layer
        if (layer.rows, layer.cols) != (first.rows, first.cols):
            raise LayerShapeMismatchError(
                f"layer {len(layers) + 1} is {layer.rows}x{layer.cols}, "
                f"expected {first.rows}x{first.cols} (line {lineno})",
                lineno,
            )
        layers.append(layer)
        start = end + 1
    return BinaryVolume.from_layers(layers)


def serialize_volume(v: BinaryVolume) -> str:
    """Inverse of parse_volume: layers joined by one blank line."""
    return VolumeText.of(v).text.decode("ascii")


def _text_of(cells: bytes, lines: int, cols: int) -> bytes:
    """`lines` rows of `cols` 0/1 cells as text, each row ending in a newline.

    One slice copy per row or per column, whichever there are fewer of, so
    no loop runs once per cell.
    """
    cells, stride = cells.translate(_TO_TEXT), cols + 1
    text = bytearray(b"\n") * (lines * stride)
    if lines <= cols:
        for i in range(lines):
            text[i * stride:i * stride + cols] = cells[i * cols:(i + 1) * cols]
    else:
        for j in range(cols):
            text[j::stride] = cells[j::cols]
    return bytes(text)


def _random_cells(spec: GenSpec) -> bytes:
    """The spec's cells in storage order: cell k is 1 when the k-th variate
    of random.Random(spec.seed) is below spec.density."""
    rand = random.Random(spec.seed).random
    density = spec.density
    n = (spec.depth or 1) * spec.rows * spec.cols
    return bytes(1 if rand() < density else 0 for _ in range(n))


def generate_matrix(spec: GenSpec) -> BinaryMatrix:
    """Seeded random matrix; each cell is 1 with probability `density`.

    Cell (i, j) consumes the (i*cols + j)-th variate of random.Random(seed),
    so the seed-to-matrix mapping is stable and pinned by regression tests.
    """
    if spec.depth is not None:
        raise ValueError("spec has depth set; use generate_volume")
    return BinaryMatrix(spec.rows, spec.cols, _random_cells(spec))


def generate_volume(spec: GenSpec) -> BinaryVolume:
    """Seeded random volume; variates are consumed in depth-major order."""
    if spec.depth is None:
        raise ValueError("spec has no depth; use generate_matrix")
    return BinaryVolume(spec.depth, spec.rows, spec.cols, _random_cells(spec))


def generate_edge_case(kind: EdgeKind, n: int) -> BinaryMatrix:
    """Constant edge-case matrices: n x n all-zeros/ones, 1 x n row, n x 1 col."""
    if n < 1:
        raise ValueError("n must be positive")
    if kind is EdgeKind.ALL_ZEROS:
        return BinaryMatrix(n, n, bytes(n * n))
    if kind is EdgeKind.ALL_ONES:
        return BinaryMatrix(n, n, b"\x01" * (n * n))
    if kind is EdgeKind.SINGLE_ROW:
        return BinaryMatrix(1, n, b"\x01" * n)
    if kind is EdgeKind.SINGLE_COL:
        return BinaryMatrix(n, 1, b"\x01" * n)
    raise ValueError(f"unknown edge case kind: {kind!r}")
