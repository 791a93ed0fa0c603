"""Binary grid domain types, text parsing/serialization, and seeded generators.

Matrices are dense row-major grids of 0/1 cells; volumes add a depth axis
(depth-major, then row-major).  The text format is one line of '0'/'1'
characters per row, with volumes separating layers by exactly one blank line.
All types are immutable after construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum


class MatrixParseError(ValueError):
    """Malformed matrix/volume text.  `line` is 1-based, 0 = unknown."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line


class RaggedRowsError(MatrixParseError):
    """Rows of unequal length."""


class InvalidCharError(MatrixParseError):
    """A character other than '0', '1', or newline."""


class LayerShapeMismatchError(MatrixParseError):
    """Volume layers of differing shapes (or an empty layer)."""


_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def _check_cells(cells: bytes) -> None:
    # deleting every 0 and 1 byte leaves nothing exactly when all cells are 0/1
    if cells.translate(None, b"\x00\x01"):
        raise ValueError("cells must contain only 0 or 1")


@dataclass(frozen=True, slots=True)
class BinaryMatrix:
    """Dense row-major grid of 0/1 cells.

    `cells` has length rows*cols; the canonical empty matrix is 0x0
    (rows == 0 forces cols == 0).
    """

    rows: int
    cols: int
    cells: bytes

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if self.rows == 0 and self.cols != 0:
            raise ValueError("empty matrix must be 0x0")
        if len(self.cells) != self.rows * self.cols:
            raise ValueError(
                f"cell count {len(self.cells)} != {self.rows}x{self.cols}"
            )
        _check_cells(self.cells)

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


@dataclass(frozen=True, slots=True)
class BinaryVolume:
    """Dense 3D grid of 0/1 cells, depth-major then row-major.

    All layers share the same rows x cols shape; the canonical empty volume
    is 0x0x0, and any non-empty volume has rows >= 1 and cols >= 1 so every
    layer survives a text round trip.
    """

    depth: int
    rows: int
    cols: int
    cells: bytes

    def __post_init__(self):
        if min(self.depth, self.rows, self.cols) < 0:
            raise ValueError("volume dimensions must be nonnegative")
        if self.depth == 0:
            if self.rows != 0 or self.cols != 0:
                raise ValueError("empty volume must be 0x0x0")
        elif self.rows == 0 or self.cols == 0:
            raise ValueError("volume layers must be at least 1x1")
        if len(self.cells) != self.depth * self.rows * self.cols:
            raise ValueError(
                f"cell count {len(self.cells)} != "
                f"{self.depth}x{self.rows}x{self.cols}"
            )
        _check_cells(self.cells)

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


@dataclass(frozen=True, slots=True)
class GenSpec:
    """Deterministic recipe for a random grid: identical spec, identical grid.

    `depth` selects volume generation; leave None for matrices.
    """

    rows: int
    cols: int
    density: float
    seed: int
    depth: int | None = None

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        if self.depth is not None and self.depth < 1:
            raise ValueError("depth must be positive when given")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density {self.density} outside [0, 1]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


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


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse '0'/'1' text, one line per row.  Empty input is the 0x0 matrix.

    A blank line is an error: only volumes separate layers with blank lines.
    """
    lines = _split_lines(text)
    if not lines:
        return EMPTY_MATRIX
    cols = len(lines[0])
    chunks = []
    for i, line in enumerate(lines):
        if not line:
            raise MatrixParseError(
                f"line {i + 1} is blank; a matrix has no blank lines", i + 1
            )
        if len(line) != cols:
            raise RaggedRowsError(
                f"line {i + 1} has {len(line)} cells, expected {cols}", i + 1
            )
        chunks.append(_line_to_bits(line, i + 1))
    return BinaryMatrix(len(lines), cols, b"".join(chunks))


def serialize_matrix(m: BinaryMatrix) -> str:
    """Inverse of parse_matrix: one '\\n'-terminated line per row."""
    out = []
    for i in range(m.rows):
        out.append(m.row(i).translate(_TO_TEXT).decode("ascii"))
        out.append("\n")
    return "".join(out)


def parse_volume(text: str) -> BinaryVolume:
    """Parse layers separated by exactly one blank line, depth 0 first."""
    lines = _split_lines(text)
    if not lines:
        return EMPTY_VOLUME
    layers: list[list[bytes]] = []
    current: list[bytes] = []
    current_cols = -1
    shape: tuple[int, int] | None = None

    def flush(lineno: int):
        nonlocal current, current_cols, shape
        if not current:
            raise LayerShapeMismatchError(
                f"empty layer before line {lineno}", lineno
            )
        this_shape = (len(current), current_cols)
        if shape is None:
            shape = this_shape
        elif this_shape != shape:
            raise LayerShapeMismatchError(
                f"layer {len(layers) + 1} is {this_shape[0]}x{this_shape[1]}, "
                f"expected {shape[0]}x{shape[1]} (line {lineno})",
                lineno,
            )
        layers.append(current)
        current = []
        current_cols = -1

    for i, line in enumerate(lines):
        if line == "":
            flush(i + 1)
            continue
        bits = _line_to_bits(line, i + 1)
        if current_cols == -1:
            current_cols = len(bits)
        elif len(bits) != current_cols:
            raise RaggedRowsError(
                f"line {i + 1} has {len(bits)} cells, expected {current_cols}",
                i + 1,
            )
        current.append(bits)
    flush(len(lines) + 1)

    assert shape is not None
    rows, cols = shape
    flat = b"".join(b"".join(layer) for layer in layers)
    return BinaryVolume(len(layers), rows, cols, flat)


def serialize_volume(v: BinaryVolume) -> str:
    """Inverse of parse_volume: layers joined by one blank line."""
    parts = [serialize_matrix(v.layer(d)) for d in range(v.depth)]
    return "\n".join(parts)


def generate_matrix(spec: GenSpec) -> BinaryMatrix:
    """Seeded random matrix; each cell is 1 with probability `density`.

    Cell (i, j) consumes the (i*cols + j)-th variate of random.Random(seed),
    so the seed-to-matrix mapping is stable and pinned by regression tests.
    """
    if spec.depth is not None:
        raise ValueError("spec has depth set; use generate_volume")
    rng = random.Random(spec.seed)
    rand = rng.random
    density = spec.density
    cells = bytes(1 if rand() < density else 0 for _ in range(spec.rows * spec.cols))
    return BinaryMatrix(spec.rows, spec.cols, cells)


def generate_volume(spec: GenSpec) -> BinaryVolume:
    """Seeded random volume; variates are consumed in depth-major order."""
    if spec.depth is None:
        raise ValueError("spec has no depth; use generate_matrix")
    rng = random.Random(spec.seed)
    rand = rng.random
    density = spec.density
    n = spec.depth * spec.rows * spec.cols
    cells = bytes(1 if rand() < density else 0 for _ in range(n))
    return BinaryVolume(spec.depth, spec.rows, spec.cols, cells)


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
