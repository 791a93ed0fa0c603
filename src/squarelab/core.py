"""What `solve`, `rect` and `cube` run besides their kernel: the value base,
the result types, the error types and the reader.

One reader reads every grid file, `read_lines`: a matrix, or a volume, a
block of whole lines at a time, each block checked as it arrives by
`_is_lines` with a few whole-buffer operations, so no command holds the
whole text.  That is the one check of a file's bytes.  The kernels sweep or
pack each block as it comes, and the reference algorithms translate each
block into cells (`from_lines` in `grid`).  This module knows a grid only
as the lines of its file: the 0/1 cell types, and the conversions between
them and the text, are in `grid`, which this module imports only when a
file fails the check, for the line parser that names the line it fails
on.  So `solve`, `rect` and `cube` with their default kernels never import
`grid` on a well-formed file, and, with no bytecode cached, compile only
the source they run.

The value types are tuple subclasses built on `_Record` rather than
dataclasses, which every CLI run would pay for at import: `dataclasses`
loads `inspect`.  `commands` and `bench` both read `PlotTarget` from here,
so `commands` builds its parser without loading `bench`.  The oracle cap,
which `squares` and `verify` read, and its error, which `squares` and
`cubes` raise, are here beside the other error types, so that
`cube --algo brute` loads no `squares`.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from typing import BinaryIO, Iterator

# the largest input, in cells, the brute-force square oracle accepts
ORACLE_CELL_CAP = 10_000

# about the bytes of whole lines `read_lines` reads and checks at a time; the
# check deletes the cells from a piece of a block at a time, so the copies
# it makes stay small next to the block
BLOCK = 1 << 16
_PIECE = 1 << 13


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


def _is_lines(block: bytes, stride: int) -> bool:
    # whether block is whole lines of stride - 1 '0'/'1' cells, each ending
    # in a newline: its length is a multiple of the stride, there is a
    # newline at every stride, and deleting every '0' and '1' leaves no more
    # bytes than those newlines
    lines, extra = divmod(len(block), stride)
    return (not extra and block[stride - 1::stride] == b"\n" * lines
            and sum(len(block[i:i + _PIECE].translate(None, b"01"))
                    for i in range(0, len(block), _PIECE)) == lines)


def _block_size(stride: int) -> int:
    # the bytes of the whole lines, `stride` bytes each, that make a block
    return max(BLOCK // stride, 1) * stride


def read_lines(stream: BinaryIO, layers: bool = False) -> tuple[Iterator[bytes], int]:
    """A matrix file, or a volume file (`layers`), read from `stream` a
    block of whole lines at a time: its blocks, each checked in bulk as it
    is read, and the width of its lines.  A file, `-` and a pipe are read
    the same way.

    The first line gives the width, and the last line may omit its newline.
    A block is about BLOCK bytes of whole lines.  In a volume each blank
    line, which ends a layer, is a block of its own, and every later layer
    must have layer 0's rows.  A block that fails the check goes to the line
    parser, which raises the error, naming the line, that it raises on the
    whole text.  The empty file has no blocks.
    """
    first = stream.readline()
    cols = len(first) - first.endswith(b"\n")
    return _checked_blocks(stream, first, cols, layers), cols


def _checked_blocks(stream: BinaryIO, first: bytes, cols: int, layers: bool) -> Iterator[bytes]:
    stride = cols + 1
    size = _block_size(stride)
    rest, pos = first, 0  # bytes read and not yet taken: rest[pos:]

    def take(n: int) -> bytes:
        # the next n bytes; fewer only at the end, the last line's newline added
        nonlocal rest, pos
        block, pos = rest[pos:pos + n], pos + n
        if len(block) < n:
            rest = b""
            block += stream.read(n - len(block))
            if 0 < len(block) < n and not block.endswith(b"\n"):
                block += b"\n"
        return block

    # a matrix (layer -1), or a volume's layer 0, up to the blank line ending it
    line, end, layer = 1, -1, 0 if layers else -1
    while block := take(size):
        end = block[::stride].find(b"\n") if layers and cols else -1
        if end >= 0:  # the blank line, and what follows it, are taken again;
            # the block is split in two, so no copy of its head outlives it
            rest, pos, block = block[end * stride:], 0, block[:end * stride]
        if not (cols and _is_lines(block, stride)):
            _raise_line_error(block + rest[pos:], stream, line, cols, layer, line - 1)
        line += len(block) // stride
        if block:
            yield block
        del block  # so the last block is not held while the next is read
        if end >= 0:
            break
    # every later layer of a volume: a blank line, then layer 0's rows
    rows = line - 1
    while end >= 0 and (sep := take(1)):
        if sep != b"\n":  # the layer runs on
            _raise_line_error(sep + rest[pos:], stream, line, cols, layer, rows, rows)
        yield sep
        line, layer = line + 1, layer + 1
        for had in range(0, rows, size // stride):
            want = min(size, (rows - had) * stride)
            block = take(want)
            if len(block) < want or not _is_lines(block, stride):
                _raise_line_error(block + rest[pos:], stream, line, cols, layer, had, rows)
            line += want // stride
            yield block
            del block


def _raise_line_error(data: bytes, stream: BinaryIO, first: int, cols: int,
                      layer: int, had: int, rows: int = -1) -> None:
    # data, whole lines of a file from its line `first` on, with the rest of
    # its last line (a matrix, layer -1) or of the layer it ends in, holds a
    # line or a layer the line parser rejects; every line before it is a row
    # `cols` cells wide, `had` of them in layer `layer`, and layer 0 has
    # `rows` rows, -1 while it is read; line 1's width is counted in
    # characters, as the parser counts it
    from .grid import _parse_layers, _parse_rows, _split_lines

    parts = [data, b"" if data.endswith(b"\n") else stream.readline()]
    while layer >= 0 and (more := stream.readline()) not in (b"", b"\n"):
        parts.append(more)
    lines = _split_lines(b"".join(parts).decode("utf-8", "surrogateescape"))
    if layer < 0:
        _parse_rows(lines, first, cols if first > 1 else len(lines[0]))
    _parse_layers(lines, first, layer, had, (rows, cols))
