"""Bit-sliced counters on Python ints, shared by the row and layer kernels.

The packers read a grid's '0'/'1' text (`grid.MatrixText` and
`grid.VolumeText`): a file's own bytes, or a BinaryMatrix's or
BinaryVolume's cells translated once.  A grid row is packed into one int,
column 0 in the most significant of `cols` bits.  A grid column is packed
the same way, row 0 on top, and the helpers below take it as a row whose
columns are the grid's rows.  A volume layer is packed into one int the
same way, row 0 in the top bits, with a zero guard bit after every row:
the row stride is `cols + 1`, so a shift by less than a stride never
carries a run of ones from one row into the next.  A counter is a list of
planes, least significant first: bit p of planes[k] is bit k of the count
at position p.  Each helper works on every position of a row or layer at
once with a handful of big-int operations, and `heights` reads a counter
back out with one bytes spread and one shifted OR per plane.
"""

from __future__ import annotations

import sys
from typing import Iterator

from .grid import _TO_BITS, BinaryMatrix, BinaryVolume, MatrixText, VolumeText

# native memoryview formats for 1-, 2-, 4- and 8-byte counts
_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

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


def has_run(mask: int, w: int, unit: int = 1) -> int:
    """Nonzero iff `mask` has a run of `w` (>= 1) set bits, `unit` apart.

    About log2(w) shift-ANDs: after each, bit j is set iff bits j, j + unit,
    .., j + (width - 1) * unit all were, and the width doubles until it
    reaches w.  Unit 1 finds consecutive bits; a layer's row stride finds
    the same column in consecutive rows.
    """
    width = 1
    while width < w and mask:
        step = min(width, w - width)
        mask &= mask >> step * unit
        width += step
    return mask


def max_height(planes: list[int], row: int) -> int:
    """The largest count over the columns of `row`, exactly.

    MSB-first greedy: keep the candidate columns that have the current bit
    whenever any of them do, which fixes the maximum one bit at a time.
    """
    cand, h = row, 0
    for k in range(len(planes) - 1, -1, -1):
        hit = cand & planes[k]
        if hit:
            cand = hit
            h |= 1 << k
    return h


def heights(planes: list[int], cols: int) -> list[int]:
    """Every column's count as a list, column 0 first.

    Each column is one lane of the smallest native width (1, 2, 4 or 8
    bytes) that holds len(planes) bits.  Plane k's bits are spread one per
    lane, at the lane's low byte, and the lanes read as one native-order
    int are ORed in shifted by k, which sets bit k of every lane at once.
    Every step is a big-int or bytes operation; nothing loops over columns
    in Python.
    """
    size = next(s for s in (1, 2, 4, 8) if 8 * s >= len(planes))
    lanes = bytearray(cols * size)
    low = 0 if sys.byteorder == "little" else size - 1
    counts = 0
    for k, plane in enumerate(planes):
        lanes[low::size] = format(plane, f"0{cols}b").encode().translate(_TO_BITS)
        counts |= int.from_bytes(lanes, sys.byteorder) << k
    lanes = counts.to_bytes(cols * size, sys.byteorder)
    return memoryview(lanes).cast(_LANE_CODES[size]).tolist()
