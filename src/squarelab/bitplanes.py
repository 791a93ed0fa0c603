"""Bit-sliced counters on Python ints, shared by the row and layer kernels.

A grid row is packed into one int, column 0 in the most significant of
`cols` bits.  A grid column is packed the same way, row 0 on top, and the
helpers below take it as a row whose columns are the grid's rows.  A
volume layer is packed into one int the same way, row 0 in the top bits,
with a zero guard bit after every row: the row stride is `cols + 1`, so a
shift by less than a stride never carries a run of ones from one row into
the next.  A counter is a list of planes, least
significant first: bit p of planes[k] is bit k of the count at position p.
Each helper works on every position of a row or layer at once with a
handful of big-int operations, and `heights` reads a counter back out
with one bytes spread and one shifted OR per plane.
"""

from __future__ import annotations

import sys
from typing import Iterator

from .grid import _TO_BITS, _TO_TEXT, BinaryMatrix, BinaryVolume

# native memoryview formats for 1-, 2-, 4- and 8-byte counts
_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def packed_rows(m: BinaryMatrix) -> Iterator[int]:
    """Each row of `m` as an int, column 0 in the most significant bit.

    A matrix with no columns has no rows to pack.
    """
    cols, cells = m.cols, m.cells
    if cols == 0:
        return
    for i in range(m.rows):
        yield int(cells[i * cols:(i + 1) * cols].translate(_TO_TEXT), 2)


def packed_columns(m: BinaryMatrix) -> Iterator[int]:
    """Each column of `m` as an int, row 0 in the most significant bit.

    One strided slice of the cells per column, so no transposed copy of
    the cells is ever made.
    """
    cols, cells = m.cols, m.cells
    for j in range(cols):
        yield int(cells[j::cols].translate(_TO_TEXT), 2)


def packed_layers(v: BinaryVolume) -> Iterator[int]:
    """Each layer of `v` as an int: row 0 in the top bits, column 0 on top
    within its row, and a zero guard bit after every row (stride cols + 1).

    The guard bits are laid in by one strided slice copy per column over
    the whole volume, so no loop runs once per voxel.
    """
    cells, cols = v.cells, v.cols
    lines, stride = v.depth * v.rows, cols + 1
    bits = bytearray(lines * stride)
    for j in range(cols):
        bits[j::stride] = cells[j::cols]
    size = v.rows * stride
    for d in range(v.depth):
        yield int(bits[d * size:(d + 1) * size].translate(_TO_TEXT), 2)


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
