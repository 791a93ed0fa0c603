"""Bit-sliced counters and whole-grid bitboards on Python ints, shared by
the square, rectangle and cube kernels.

The packers read a grid's '0'/'1' text (`grid.MatrixText` and
`grid.VolumeText`): a file's own bytes, or a BinaryMatrix's or
BinaryVolume's cells translated once.  A grid row is packed into one int,
column 0 in the most significant of `cols` bits.  A grid column is packed
the same way, row 0 on top, and the helpers below take it as a row whose
columns are the grid's rows.  A whole grid (`text_board`) or a volume
layer is packed into one int the same way, row 0 in the top bits, with
zero guard bits after every row, so a shift by less than a row stride
never carries a run of ones from one row into the next.  A counter is a
list of planes, least significant first: bit p of planes[k] is bit k of
the count at position p.  Each helper works on every position of a row,
layer or grid at once with a handful of big-int operations.
"""

from __future__ import annotations

from typing import Iterator

from .grid import BinaryMatrix, BinaryVolume, MatrixText, VolumeText

# a layer's row newlines, read as its guard bits
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


def text_board(t: MatrixText) -> tuple[int, int]:
    """The whole grid of `t` as one int, and its row stride in bits.

    Row 0 is in the top bits and column 0 on top within its row.  Each row
    is padded with zero guard bits to whole bytes, at least one, so the
    stride is a multiple of 8 above cols.  The rows are written into one
    bytearray, which is read as a single int.
    """
    size = t.cols // 8 + 1
    pad = 8 * size - t.cols
    board = bytearray(t.rows * size)
    for start, row in zip(range(0, len(board), size), text_rows(t)):
        board[start:start + size] = (row << pad).to_bytes(size, "big")
    return int.from_bytes(board, "big"), 8 * size


def text_layers(t: VolumeText) -> Iterator[int]:
    """Each layer of `t` as an int: row 0 in the top bits, column 0 on top
    within its row, and a zero guard bit after every row (stride cols + 1).

    Each row's newline is read as its guard bit, so a layer is one slice
    of the text and one translate.
    """
    text, pitch, size = t.text, t.pitch, t.rows * (t.cols + 1)
    for d in range(t.depth):
        yield int(text[d * pitch:d * pitch + size].translate(_GUARD), 2)


def packed_rows(m: BinaryMatrix) -> Iterator[int]:
    """`text_rows` of a BinaryMatrix."""
    return text_rows(MatrixText.of(m))


def packed_columns(m: BinaryMatrix) -> Iterator[int]:
    """`text_columns` of a BinaryMatrix."""
    return text_columns(MatrixText.of(m))


def packed_layers(v: BinaryVolume) -> Iterator[int]:
    """`text_layers` of a BinaryVolume."""
    return text_layers(VolumeText.of(v))


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
