"""What `solve`, `rect` and `cube` run besides their kernel: the value base,
the result types, the error types and the read path.

A file's bytes are read by `read_matrix` and `read_volume`: a well-formed
file is checked with a few whole-buffer operations and then read in place
as MatrixText or VolumeText, whose row, column and layer slices `bitplanes`
packs.  Everything else about grids (the BinaryMatrix and BinaryVolume
types, the line parsers that name the line a malformed file fails on,
serialization and generation) is in `grid`, which this module imports only
inside the few functions that need it: `MatrixText.of` and `.matrix()`,
their VolumeText twins, and the line-parser fallback of `read_*`.  So
`solve`, `rect` and `cube` on a well-formed file never import `grid`, and,
with no bytecode cached, compile only the source they run.

The value types are tuple subclasses built on `_Record` rather than
dataclasses, which every CLI run would pay for at import: `dataclasses`
loads `inspect`.  `PlotTarget`, the oracle cap and its error are here so
that `cli` can use them without loading `bench`, `squares` or `grid`.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .grid import BinaryMatrix, BinaryVolume

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


class PlotTarget(str, Enum):
    """The data series `bench --plot` emits."""

    SPEEDUP_VS_DENSITY = "speedup_vs_density"
    TIME_VS_DENSITY_AT_SIZE = "time_vs_density_at_size"
    EDGE_SPEEDUPS = "edge_speedups"


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


class SquareResult(_Result):
    """Maximal-square answer plus the solver's cell-visit count."""

    __slots__ = ()
    side: int
    area: int
    cells_visited: int

    def __new__(cls, side: int, area: int, cells_visited: int) -> SquareResult:
        return tuple.__new__(cls, (side, area, cells_visited))


class RectResult(_Result):
    """Largest rectangle: area == height * width, all zero when no ones exist."""

    __slots__ = ()
    area: int
    height: int
    width: int

    def __new__(cls, area: int, height: int, width: int) -> RectResult:
        return tuple.__new__(cls, (area, height, width))


class CubeResult(_Result):
    """Maximal cube side plus the count of volume-cell reads performed.

    For max_cube, volume_visited == depth * rows * cols: the voxels the read
    checks.
    """

    __slots__ = ()
    side: int
    volume_visited: int

    def __new__(cls, side: int, volume_visited: int) -> CubeResult:
        return tuple.__new__(cls, (side, volume_visited))


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
        from .grid import _text_of

        # m's cells are 0/1 already, so the text needs no second check
        return tuple.__new__(cls, (_text_of(m.cells, m.rows, m.cols), m.rows, m.cols))

    def matrix(self) -> BinaryMatrix:
        """The same grid as a BinaryMatrix, made with one translate."""
        from .grid import _TO_BITS, BinaryMatrix

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
        from .grid import _text_of

        size = v.rows * (v.cols + 1)
        body = _text_of(v.cells, v.depth * v.rows, v.cols)
        text = b"\n".join([body[d * size:(d + 1) * size] for d in range(v.depth)])
        return tuple.__new__(cls, (text, v.depth, v.rows, v.cols))

    def volume(self) -> BinaryVolume:
        """The same grid as a BinaryVolume, made with one translate."""
        from .grid import _TO_BITS, BinaryVolume

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
    rejects, and the empty file, goes to grid.parse_matrix, which raises
    the error, naming the line, that it raises on the decoded text.
    """
    text = data if data.endswith(b"\n") else data + b"\n"
    cols = text.find(b"\n")
    if cols > 0:  # a blank first line is the line parser's to report
        try:
            return MatrixText(text, len(text) // (cols + 1), cols)
        except ValueError:
            pass
    from .grid import parse_matrix

    return MatrixText.of(parse_matrix(_decode(data)))


def read_volume(data: bytes) -> VolumeText:
    """The volume in a file's bytes, checked in bulk and read in place, as
    read_matrix is; layer 0 ends at the first blank line.  Anything
    VolumeText rejects goes to grid.parse_volume."""
    text = data if data.endswith(b"\n") else data + b"\n"
    cols = text.find(b"\n")
    if cols > 0:
        end = text.find(b"\n\n")
        size = len(text) if end < 0 else end + 1
        try:
            return VolumeText(text, (len(text) + 1) // (size + 1), size // (cols + 1), cols)
        except ValueError:
            pass
    from .grid import parse_volume

    return VolumeText.of(parse_volume(_decode(data)))
