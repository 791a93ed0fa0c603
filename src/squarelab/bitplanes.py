"""Bit-sliced counters on Python ints, shared by the row and layer kernels.

A grid row is packed into one int, column 0 in the most significant of
`cols` bits.  A volume layer is packed into one int the same way, row 0 in
the top bits, with a zero guard bit after every row: the row stride is
`cols + 1`, so a shift by less than a stride never carries a run of ones
from one row into the next.  A counter is a list of planes, least
significant first: bit p of planes[k] is bit k of the count at position p.
Each helper works on every position of a row or layer at once with a
handful of big-int operations.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Iterator

from .grid import _TO_TEXT, BinaryMatrix, BinaryVolume

# native memoryview formats for 2-, 4- and 8-byte counts
_LANE_CODES = {2: "H", 4: "I", 8: "Q"}
_LITTLE = sys.byteorder == "little"
# an 8x8 bit transpose of a 64-bit block, row 0 in the top byte
_TRANSPOSE_STEPS = (
    (7, 0x00AA00AA00AA00AA),
    (14, 0x0000CCCC0000CCCC),
    (28, 0x00000000F0F0F0F0),
)


def packed_rows(m: BinaryMatrix) -> Iterator[int]:
    """Each row of `m` as an int, column 0 in the most significant bit.

    A matrix with no columns has no rows to pack.
    """
    cols, cells = m.cols, m.cells
    if cols == 0:
        return
    for i in range(m.rows):
        yield int(cells[i * cols:(i + 1) * cols].translate(_TO_TEXT), 2)


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


@lru_cache(maxsize=16)
def _transpose_masks(nbytes: int) -> tuple[tuple[int, int], ...]:
    """The 8x8 transpose's (shift, mask) steps, the mask repeated over
    `nbytes` 64-bit blocks."""
    return tuple(
        (shift, int.from_bytes(mask.to_bytes(8, "big") * nbytes, "big"))
        for shift, mask in _TRANSPOSE_STEPS
    )


def heights(planes: list[int], cols: int) -> list[int]:
    """Every column's count as a list, column 0 first.

    Each group of 8 planes is one bit-matrix transpose: byte b of plane k
    (8 columns) goes to byte 7 - k of a 64-bit block, and three masked
    delta swaps (Hacker's Delight, 7-3) transpose every block at once, so
    each column ends up as one byte lane holding its count's 8 bits.  More
    than 8 planes take several groups, whose bytes are interleaved into
    2-, 4- or 8-byte native-order lanes.  Every step is a big-int or bytes
    operation; nothing loops over columns in Python.
    """
    nbytes = (cols + 7) // 8
    pad = 8 * nbytes - cols  # the packed row is right-aligned in its bytes
    masks = _transpose_masks(nbytes)
    groups = []
    for base in range(0, len(planes), 8):
        block = bytearray(8 * nbytes)
        for k in range(base, min(base + 8, len(planes))):
            block[7 - (k - base)::8] = planes[k].to_bytes(nbytes, "big")
        x = int.from_bytes(block, "big")
        for shift, mask in masks:
            t = (x ^ (x >> shift)) & mask
            x ^= t ^ (t << shift)
        groups.append(x.to_bytes(8 * nbytes, "big")[pad:])
    if len(groups) <= 1:
        return list(groups[0]) if groups else [0] * cols
    size = next(s for s in (2, 4, 8) if s >= len(groups))
    lanes = bytearray(cols * size)
    for g, group in enumerate(groups):
        lanes[(g if _LITTLE else size - 1 - g)::size] = group
    return memoryview(lanes).cast(_LANE_CODES[size]).tolist()
