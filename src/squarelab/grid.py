"""Binary grid domain types, text parsing/serialization, and seeded generators.

Matrices are dense row-major grids of 0/1 cells; volumes add a depth axis
(depth-major, then row-major).  The text format is one line of '0'/'1'
characters per row, with volumes separating layers by exactly one blank line.
All types are immutable after construction.

BinaryMatrix and BinaryVolume, the cell values the library solvers take,
hold the one codec between a grid and its file text: `from_lines`, which
takes the checked blocks of whole lines `core.read_lines` reads, and
`to_text`, the file's bytes, which for both types is `_text_of`.
`read_lines` imports this module only for what its check rejects: the line
parsers here report it, naming the line, from the line and layer the
failing block starts in (`_parse_rows` under `parse_matrix`,
`_parse_layers` under `parse_volume`).  The value base, the error types and
the reader are in `core`.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Iterable

from .core import (
    InvalidCharError,
    LayerShapeMismatchError,
    MatrixParseError,
    RaggedRowsError,
    _Record,
)

_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")
# variates per getrandbits call in _random_cells, so it holds 32 KB of random
# bytes at a time whatever the grid's size
_DRAW_BLOCK = 4096
# the widest grid `_text_of` copies a column at a time: each strided copy
# walks the whole text, so on a long grid a copy per line wins past this
_COLUMN_COPY_COLS = 64


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

    @classmethod
    def from_lines(cls, blocks: Iterable[bytes], cols: int) -> BinaryMatrix:
        """The matrix of a file's lines of `cols` cells, given a block of
        whole lines at a time as `core.read_lines` reads and checks them.
        Each block is translated to cells as it comes; each line is a row,
        so the text of an r x 0 matrix, a newline per row, reads back."""
        size, cells = 0, []
        for block in blocks:
            size += len(block)
            cells.append(block.translate(_TO_BITS, b"\n"))
        return cls(size // (cols + 1), cols, b"".join(cells))

    def to_text(self) -> bytes:
        return _text_of(self.cells, 1, self.rows, self.cols)

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

    @classmethod
    def from_lines(cls, blocks: Iterable[bytes], cols: int) -> BinaryVolume:
        """The volume of a file's lines of `cols` cells, given as
        `core.read_lines` reads a volume: each blank line between layers a
        block of its own, and the other blocks whole lines, each translated
        to cells as it comes.  The blank lines give the depth, and the lines
        over the depth the rows."""
        depth, lines, cells = 1, 0, []
        for block in blocks:
            if block == b"\n":
                depth += 1
            else:
                lines += len(block) // (cols + 1)
                cells.append(block.translate(_TO_BITS, b"\n"))
        depth = depth if lines else 0
        return cls(depth, lines // max(depth, 1), cols, b"".join(cells))

    def to_text(self) -> bytes:
        return _text_of(self.cells, self.depth, self.rows, self.cols)


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


def _parse_rows(lines: list[str], first: int, cols: int) -> BinaryMatrix:
    """Parse non-empty `lines` as one matrix of rows `cols` cells wide;
    `first` is the 1-based number of lines[0] in the whole text.  Each line
    is checked for blank, then ragged, then bad characters."""
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
    return _parse_rows(lines, 1, len(lines[0])) if lines else EMPTY_MATRIX


def serialize_matrix(grid: BinaryMatrix | BinaryVolume) -> str:
    """Inverse of parse_matrix and parse_volume: one '\\n'-terminated line
    per row, a volume's layers joined by one blank line."""
    return grid.to_text().decode("ascii")


# one codec: a matrix's text is a one-layer volume's
serialize_volume = serialize_matrix


def parse_volume(text: str) -> BinaryVolume:
    """Parse layers separated by exactly one blank line, depth 0 first: each
    through the matrix row parser, then its shape (`_parse_layers`)."""
    lines = _split_lines(text)
    return BinaryVolume.from_layers(_parse_layers(lines, 1, 0, 0, (0, 0)) if lines else [])


def _parse_layers(lines: list[str], first: int, layer: int, had: int,
                  shape: tuple[int, int]) -> list[BinaryMatrix]:
    """The layers in `lines`, a volume's text from its line `first` on, which
    continue layer `layer` (0 on top) after `had` rows shape[1] cells wide.
    Each layer's lines are checked in order, then its shape against `shape`,
    layer 0's (rows, cols), which layer 0 sets, at its closing blank line or
    one line past the text, where an empty layer fails too."""
    layers: list[BinaryMatrix] = []
    start = 0
    for end in [i for i, line in enumerate(lines) if not line] + [len(lines)]:
        lineno = first + end  # the blank line closing the layer, or one past the text
        if start == end and not had:
            raise LayerShapeMismatchError(f"empty layer before line {lineno}", lineno)
        cols = shape[1] if had else len(lines[start])
        if start < end:
            layers.append(_parse_rows(lines[start:end], first + start, cols))
        size = (had + end - start, cols)
        if not layer:
            shape = size
        elif size != shape:
            raise LayerShapeMismatchError(
                f"layer {layer + 1} is {size[0]}x{size[1]}, "
                f"expected {shape[0]}x{shape[1]} (line {lineno})",
                lineno,
            )
        layer, had, start = layer + 1, 0, end + 1
    return layers


def _text_of(cells: bytes, depth: int, rows: int, cols: int) -> bytes:
    """The file text of `depth` layers of rows x cols 0/1 cells.

    One strided slice copy per column of a grid at most _COLUMN_COPY_COLS
    wide, or else one slice copy per line of the stacked depth * rows lines,
    so no loop runs once per cell; then the layers are joined by one blank
    line each.
    """
    cells, lines, stride = cells.translate(_TO_TEXT), depth * rows, cols + 1
    body = bytearray(b"\n") * (lines * stride)
    if cols <= _COLUMN_COPY_COLS:
        for j in range(cols):
            body[j::stride] = cells[j::cols]
    else:
        for i in range(lines):
            body[i * stride:i * stride + cols] = cells[i * cols:(i + 1) * cols]
    view, size = memoryview(body), rows * stride
    return b"\n".join([view[d * size:(d + 1) * size] for d in range(depth)])


def _random_cells(spec: GenSpec) -> bytes:
    """The spec's cells in storage order: cell k is 1 when the k-th variate
    of random.Random(spec.seed) is below spec.density.

    The seed-to-grid mapping stays that of one `random()` call per cell,
    which the tests pin; only the drawing and thresholding go a block at a
    time.  This rests on two facts of CPython's Mersenne Twister.  `random()` is
    (a * 2**26 + b) / 2**53, with a and b the top 27 and 26 bits of two
    consecutive 32-bit outputs.  `getrandbits(64 * m)` fills its result
    from the least significant 32-bit word up, in output order.  So byte
    8i + 3 of `getrandbits(64 * m).to_bytes(8 * m, "little")` is the top
    byte h of variate u_i, h = floor(256 * u_i).  With f = floor(256 *
    density), the cell is 1 for every h < f and 0 for every h > f.  At
    h == f it is 0 when 256 * density is whole; otherwise it is a tie,
    about one variate in 256, settled with `random()`'s own formula on the
    variate's eight bytes.
    """
    rng, density = random.Random(spec.seed), spec.density
    n = (spec.depth or 1) * spec.rows * spec.cols
    scaled = 256 * density
    f = int(scaled)
    tie = 1 if f < scaled else 0
    table = b"\x01" * f + b"\x02" * tie + b"\x00" * (256 - f - tie)
    cells = bytearray(n)
    for start in range(0, n, _DRAW_BLOCK):
        m = min(_DRAW_BLOCK, n - start)
        raw = rng.getrandbits(64 * m).to_bytes(8 * m, "little")
        cells[start:start + m] = raw[3::8].translate(table)
        i = cells.find(2, start, start + m)
        while i >= 0:
            k = 8 * (i - start)
            a = int.from_bytes(raw[k:k + 4], "little") >> 5
            b = int.from_bytes(raw[k + 4:k + 8], "little") >> 6
            cells[i] = (a * 67108864.0 + b) * (1.0 / 9007199254740992.0) < density
            i = cells.find(2, i + 1, start + m)
    return bytes(cells)


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
