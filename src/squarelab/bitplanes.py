"""Bit-sliced counters and whole-grid bitboards on Python ints, shared by
the square, rectangle and cube kernels; `sweep`, the one frequency sweep
that freq_bits and max_cube run; and the two kernels `solve` and `cube`
run on a file's text, `freq_bits_text` and `max_cube_text`, each one
`sweep`, kept here so that neither subcommand loads `squares` or `cubes`.

The packers read a grid's '0'/'1' text (`core.MatrixText` and
`core.VolumeText`): a file's own bytes, or a BinaryMatrix's or
BinaryVolume's cells translated once.  A grid row is packed into one int,
column 0 in the most significant of `cols` bits, and a grid column the
same way, row 0 on top; the helpers below take it as a row whose columns
are the grid's rows.  A whole grid (`text_board`) or a volume layer is
one board, in one layout: row 0 in the top bits and each row's newline
its zero guard bit, so the stride is cols + 1 and a shift by less than a
stride never carries a run of ones into the next row.  The board packer
reads eight lines at a time and makes no copy the size of the text.  A
counter is a list of planes, least significant first: bit p of planes[k]
is bit k of the count at position p.  Each helper works on every
position of a row, layer or grid at once with a few big-int operations.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import CubeResult, MatrixText, SquareResult, VolumeText

# a board's row newlines, read as its guard bits
_GUARD = bytes.maketrans(b"\n", b"0")


def text_rows(t: MatrixText) -> Iterator[int]:
    """Each row of `t` as an int, column 0 in the most significant bit.

    A matrix with no columns has no rows to pack.
    """
    text, cols, stride = t.text, t.cols, t.cols + 1
    if cols == 0:
        return
    for start in range(0, t.rows * stride, stride):
        yield int(text[start:start + cols], 2)


def text_columns(t: MatrixText) -> Iterator[int]:
    """Each column of `t` as an int, row 0 in the most significant bit.

    One strided slice of the text per column, so no transposed copy of
    the grid is ever made.
    """
    text, stride = t.text, t.cols + 1
    for j in range(t.cols):
        yield int(text[j::stride], 2)


def _board(text: bytes, start: int, stop: int, stride: int) -> int:
    """The lines of text[start:stop], `stride` bytes each with the newline
    last, as one board.  Eight lines are exactly `stride` bytes of board,
    so each block of eight is read on its own into one bytearray, from the
    bottom up; a partial block sits at the top, its missing rows leading
    zero bytes.
    """
    block = 8 * stride
    board = bytearray(-(-(stop - start) // block) * stride)
    for hi, end in zip(range(stop, start, -block), range(len(board), 0, -stride)):
        lines = text[max(hi - block, start):hi].translate(_GUARD)
        board[end - stride:end] = int(lines, 2).to_bytes(stride, "big")
    return int.from_bytes(board, "big")


def text_board(t: MatrixText) -> int:
    """The whole grid of `t` as one board, its rows cols + 1 bits apart."""
    return _board(t.text, 0, len(t.text), t.cols + 1)


def text_layers(t: VolumeText) -> Iterator[int]:
    """Each layer of `t` as one board, packed in place from the text."""
    text, pitch, stride = t.text, t.pitch, t.cols + 1
    for start in range(0, t.depth * pitch, pitch):
        yield _board(text, start, start + t.rows * stride, stride)


def increment(planes: list[int], row: int) -> None:
    """Add one to every column under a set bit of `row`, reset the others.

    A ripple-carry add of `row` masked by `row`; a carry out of the top plane
    appends a new plane, so the list grows to the bit length of the largest
    count.
    """
    carry = row
    for k, plane in enumerate(planes):
        planes[k] = (plane ^ carry) & row
        carry &= plane
    if carry:
        planes.append(carry)


def at_least(planes: list[int], t: int, row: int) -> int:
    """Mask of the columns whose count is at least `t` (t >= 1).

    An MSB-first comparison: `eq` holds the columns whose high bits equal
    t's so far, `gt` those already greater.  Columns outside `row` count 0.
    """
    if t.bit_length() > len(planes):
        return 0  # every count is below 2**len(planes) <= t
    eq, gt = row, 0
    for k in range(len(planes) - 1, -1, -1):
        if t >> k & 1:
            eq &= planes[k]
        else:
            above = eq & planes[k]
            gt |= above
            eq ^= above
    return gt | eq


def has_run(mask: int, w: int, unit: int = 1, have: int = 1) -> int:
    """Nonzero iff `mask` has a run of `w` (>= 1) set bits, `unit` apart.

    About log2(w / have) shift-ANDs: after each, bit j is set iff bits j,
    j + unit, .., j + (width - 1) * unit all were, and the width doubles
    until it reaches w.  Unit 1 finds consecutive bits; a row stride finds
    the same column in consecutive rows.  A `mask` that already marks runs
    of `have` <= w bits starts from that width, so a w <= 2 * have costs
    one shift-AND and w == have none.
    """
    width = have
    while width < w and mask:
        step = min(width, w - width)
        mask &= mask >> step * unit
        width += step
    return mask


def sweep(boards: Iterable[int], units: tuple[int, ...], limit: int) -> tuple[int, int]:
    """The paper's frequency sweep: the largest side of an all-ones square
    (boards are a grid's lines) or cube (boards are a volume's layers), and
    the number of counter planes it ends with.

    The counter holds, at every position, the run of ones ending at the
    current board.  A square of side s ending at line i contains one of side
    s - 1 ending at line i - 1, and a cube of side s ending at layer d one
    of side s - 1 ending at layer d - 1, so the best side grows by at most
    one per board and after each board the only side worth testing is
    t = best + 1.  The positions whose run is at least t form a mask, and a
    window of side t exists iff eroding it by t along each of `units` (1
    along a line; 1, then the stride cols + 1, across a layer) leaves a bit
    set: erosion by a box separates into one per axis (Serra 1982).  Once
    best reaches `limit`, the largest side the boards can hold, no further
    board is read.
    """
    planes: list[int] = []
    best = 0
    boards = iter(boards)
    while best < limit and (board := next(boards, None)) is not None:
        increment(planes, board)
        mask = at_least(planes, best + 1, board)
        for unit in units:
            mask = has_run(mask, best + 1, unit)
        if mask:
            best += 1
    return best, len(planes)


def freq_bits_text(t: MatrixText) -> SquareResult:
    """squares.freq_bits on a grid's text, sweeping its shorter axis: the
    rows when rows <= cols, else the columns.  A square's side is the same
    on the transpose, so the answer is freq_bits' either way."""
    lines = text_rows(t) if t.rows <= t.cols else text_columns(t)
    best = sweep(lines, (1,), min(t.rows, t.cols))[0]
    return SquareResult(best, best * best, t.rows * t.cols)


def max_cube_text(v: VolumeText) -> CubeResult:
    """cubes.max_cube on a volume's text, the file's bytes for `cube`."""
    best = sweep(text_layers(v), (1, v.cols + 1), min(v.rows, v.cols))[0]
    return CubeResult(best, v.depth * v.rows * v.cols)
