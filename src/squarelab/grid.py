"""Binary grid domain types, text parsing/serialization, and seeded generators.

Matrices are dense row-major grids of 0/1 cells; volumes add a depth axis
(depth-major, then row-major).  The text format is one line of '0'/'1'
characters per row, with volumes separating layers by exactly one blank line.
All types are immutable after construction.

A file's bytes are read by `read_matrix` and `read_volume`: a well-formed
file is checked with a few whole-buffer operations and then read in place
as MatrixText or VolumeText, whose row, column and layer slices `bitplanes`
packs.  The line parsers, `parse_matrix` and `parse_volume`, report what
those checks reject, naming the line.

The value types here and the solvers' result types are tuple subclasses
built on `_Record` rather than dataclasses, which every CLI run would pay
for at import: `dataclasses` loads `inspect`.  The names `cli` and `cubes`
use without loading `bench` or `squares` (`PlotTarget`, the oracle cap and
its error) live here too.
"""

from __future__ import annotations

import random
from enum import Enum
from operator import itemgetter

# the largest input, in cells, the brute-force square oracle accepts
ORACLE_CELL_CAP = 10_000


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


class OracleCapExceededError(ValueError):
    """Input too large for the brute-force oracle."""


class _Record(tuple):
    """An immutable value: a tuple with one read-only property per field.

    A subclass declares its fields as class annotations, in order, and a
    `__new__` with the same parameters that validates them and calls
    `tuple.__new__(cls, fields)`; that is the only way to build one, so
    pickling and copying validate too.  The repr is the dataclass one.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = tuple(cls.__dict__.get("__annotations__", ()))
        if own:
            cls._fields = own
            for index, name in enumerate(own):
                setattr(cls, name, property(itemgetter(index)))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"


class _Result(_Record):
    """A solver's answer, or a verify finding.  It equals only a value of the
    same type, so RectResult(0, 0, 0) != SquareResult(0, 0, 0), nor a plain
    tuple."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


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


class PlotTarget(str, Enum):
    """The data series `bench --plot` emits."""

    SPEEDUP_VS_DENSITY = "speedup_vs_density"
    TIME_VS_DENSITY_AT_SIZE = "time_vs_density_at_size"
    EDGE_SPEEDUPS = "edge_speedups"


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


def _rows_end(text: bytes, start: int, rows: int, cols: int) -> bool:
    # whether the rows lines of cols cells from text[start] each end in a newline
    stride = cols + 1
    return text[start + cols:start + rows * stride:stride] == b"\n" * rows


def _only_cells(text: bytes, newlines: int) -> bool:
    # whether text holds `newlines` newlines and, besides them, only '0' and '1'
    return text.translate(None, b"01") == b"\n" * newlines


class MatrixText(_Record):
    """A matrix in its file format, as bytes: rows lines of cols '0'/'1'
    cells, each ending in a newline.  Row i is text[i * (cols + 1):][:cols]
    and column j is text[j::cols + 1].

    `__new__` checks the whole text with a few whole-buffer operations, so
    every slice the packers in `bitplanes` hand to int(.., 2), which would
    also take whitespace, '_' or a sign, is '0'/'1' digits.
    """

    __slots__ = ()
    text: bytes
    rows: int
    cols: int

    def __new__(cls, text: bytes, rows: int, cols: int) -> MatrixText:
        if (min(rows, cols) < 0 or len(text) != rows * (cols + 1)
                or not _rows_end(text, 0, rows, cols) or not _only_cells(text, rows)):
            raise ValueError(f"text is not {rows} lines of {cols} '0'/'1' cells")
        return tuple.__new__(cls, (text, rows, cols))

    @classmethod
    def of(cls, m: BinaryMatrix) -> MatrixText:
        # m's cells are 0/1 already, so the text needs no second check
        return tuple.__new__(cls, (_text_of(m.cells, m.rows, m.cols), m.rows, m.cols))

    def matrix(self) -> BinaryMatrix:
        """The same grid as a BinaryMatrix, made with one translate."""
        return BinaryMatrix(self.rows, self.cols, self.text.translate(_TO_BITS, b"\n"))


class VolumeText(_Record):
    """A volume in its file format, as bytes: depth layers of matrix text
    joined by one blank line each.  Layer d is the rows * (cols + 1) bytes
    at d * pitch, pitch being one more, which `bitplanes.text_layers` packs
    in place as a matrix's board, row newlines read as guard bits.  Checked
    whole in `__new__`, as MatrixText is.
    """

    __slots__ = ()
    text: bytes
    depth: int
    rows: int
    cols: int

    def __new__(cls, text: bytes, depth: int, rows: int, cols: int) -> VolumeText:
        size = rows * (cols + 1)
        pitch = size + 1
        if (min(depth, rows, cols) < 0 or (depth and not rows * cols)
                or len(text) != max(depth * pitch - 1, 0)
                or text[size::pitch] != b"\n" * (depth - 1)
                or not all(_rows_end(text, d * pitch, rows, cols) for d in range(depth))
                or not _only_cells(text, max(depth * (rows + 1) - 1, 0))):
            raise ValueError(f"text is not {depth} layers of {rows}x{cols} '0'/'1' cells")
        return tuple.__new__(cls, (text, depth, rows, cols))

    @property
    def pitch(self) -> int:
        return self.rows * (self.cols + 1) + 1

    @classmethod
    def of(cls, v: BinaryVolume) -> VolumeText:
        size = v.rows * (v.cols + 1)
        body = _text_of(v.cells, v.depth * v.rows, v.cols)
        text = b"\n".join([body[d * size:(d + 1) * size] for d in range(v.depth)])
        return tuple.__new__(cls, (text, v.depth, v.rows, v.cols))

    def volume(self) -> BinaryVolume:
        """The same grid as a BinaryVolume, made with one translate."""
        cells = self.text.translate(_TO_BITS, b"\n")
        return BinaryVolume(self.depth, self.rows, self.cols, cells)


def _decode(data: bytes) -> str:
    # a byte that is not UTF-8 is kept as a surrogate, so the line parser
    # names it and its line
    return data.decode("utf-8", "surrogateescape")


def read_matrix(data: bytes) -> MatrixText:
    """The matrix in a file's bytes, checked in bulk and read in place.

    The last line may omit its newline.  The first newline gives the
    shape, and MatrixText checks the bytes against it.  Anything it
    rejects, and the empty file, goes to parse_matrix, which raises the
    error, naming the line, that it raises on the decoded text.
    """
    text = data if data.endswith(b"\n") else data + b"\n"
    cols = text.find(b"\n")
    if cols > 0:  # a blank first line is the line parser's to report
        try:
            return MatrixText(text, len(text) // (cols + 1), cols)
        except ValueError:
            pass
    return MatrixText.of(parse_matrix(_decode(data)))


def read_volume(data: bytes) -> VolumeText:
    """The volume in a file's bytes, checked in bulk and read in place, as
    read_matrix is; layer 0 ends at the first blank line.  Anything
    VolumeText rejects goes to parse_volume."""
    text = data if data.endswith(b"\n") else data + b"\n"
    cols = text.find(b"\n")
    if cols > 0:
        end = text.find(b"\n\n")
        size = len(text) if end < 0 else end + 1
        try:
            return VolumeText(text, (len(text) + 1) // (size + 1), size // (cols + 1), cols)
        except ValueError:
            pass
    return VolumeText.of(parse_volume(_decode(data)))


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
