"""Histogram-based maximal rectangle baseline.

Per row, the column heights form a histogram, and a linear monotonic-stack
sweep finds the largest rectangle under it.  `maximal_rectangle` keeps the
heights as a bit-sliced counter and runs the stack only on lines that a
shift-AND certificate cannot rule out.  It sweeps the shorter axis: the
rows of a wide or square matrix, the columns of a tall one, whose counter
then holds each row's run of ones to the left.  Each line costs a fixed
number of Python steps, and a longer line only makes the big ints wider.
After a column sweep one more pass over the columns finds the row on
which the row sweep would have met the largest area, so the answer,
ties included, is the row-wise stack's.  Serves as the comparison point
for the square solvers (every square is a rectangle).
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable

from .bitplanes import at_least, has_run, increment, max_height, text_columns, text_rows
from .bitplanes import heights as column_heights
from .grid import BinaryMatrix, MatrixText, _Result

Histogram = list[int]


class RectResult(_Result):
    """Largest rectangle: area == height * width, all zero when no ones exist."""

    __slots__ = ()
    area: int
    height: int
    width: int

    def __new__(cls, area: int, height: int, width: int) -> RectResult:
        return tuple.__new__(cls, (area, height, width))


def build_histograms(m: BinaryMatrix) -> list[Histogram]:
    """One histogram per row: heights[j] is the run of ones in column j ending there."""
    out: list[Histogram] = []
    heights = [0] * m.cols
    for i in range(m.rows):
        heights = [h + 1 if cell else 0 for h, cell in zip(heights, m.row(i))]
        out.append(heights)
    return out


def largest_rect_in_histogram(heights: Histogram) -> RectResult:
    """Largest rectangle under a histogram, via one monotonic-stack sweep.

    A sentinel bar of height 0 past the end flushes the stack, so every bar
    gets popped exactly once.
    """
    best = RectResult(0, 0, 0)
    stack: list[int] = []
    n = len(heights)
    for idx in range(n + 1):
        bar = heights[idx] if idx < n else 0
        while stack and heights[stack[-1]] >= bar:
            h = heights[stack.pop()]
            left = stack[-1] + 1 if stack else 0
            width = idx - left
            if h * width > best.area:
                best = RectResult(h * width, h, width)
        stack.append(idx)
    return best


def _beats(planes: list[int], line: int, lo: int, hi: int, best: int) -> bool:
    """Whether some rectangle ending on this line, of height in [lo, hi], has
    area above `best`.

    L(h), the longest run of positions with height at least h, never grows
    as h grows.  So when the mask at_least(a) has no run of best // b + 1
    positions, every h in [a, b] gives h * L(h) <= b * L(a) <= best, and
    the interval is certified with one comparison and a few shift-ANDs.  An
    interval that fails is split at its geometric mean, since the bound is
    loose by the factor b / a; a single height h that fails holds a
    rectangle h * (best // h + 1) > best.  The intervals never overlap, so
    the only mask two of them share is a left half's, at its parent's a,
    and it rides along on the stack instead of being computed again.
    """
    pending: list[tuple[int, int, int | None]] = [(lo, hi, None)]
    while pending:
        a, b, mask = pending.pop()
        if mask is None:
            mask = at_least(planes, a, line)
        if not has_run(mask, best // b + 1):
            continue
        if a == b:
            return True
        mid = isqrt(a * b)  # a <= mid < b, and b / a shrinks evenly on both sides
        pending.append((a, mid, mask))
        pending.append((mid + 1, b, None))
    return False


def _sweep(lines: Iterable[int], n: int) -> RectResult:
    """The row-wise stack's answer over packed lines of n bits, line 0 first.

    The heights are a bit-sliced counter (see `bitplanes`).  A line goes to
    the histogram stack only when it may hold a rectangle larger than the
    best so far: when hmax * n <= best it is skipped, and otherwise
    `_beats` certifies it on the planes.  A skipped or certified line has no
    stack pop above the best.  `_beats` passes a line only when it holds a
    rectangle above the best, so the stack's answer on that line replaces
    the best, and the result, ties included, is the stack's on every line.
    """
    best = RectResult(0, 0, 0)
    planes: list[int] = []
    for line in lines:
        increment(planes, line)
        lo = best.area // n + 1
        hmax = max_height(planes, line)
        if lo <= hmax and _beats(planes, line, lo, hmax, best.area):
            best = largest_rect_in_histogram(column_heights(planes, n))
    return best


def _first_bottom_row(columns: list[int], rows: int, area: int) -> int:
    """The smallest bottom row over all all-ones rectangles of `area` cells.

    `columns` are the packed columns (see `bitplanes.text_columns`).  A
    counter over them holds each row's run of ones ending at the current
    column.  For each shape h x w of the area that fits, at_least(w) marks
    the rows whose run reaches w, and has_run(.., h) keeps bit p when the h
    rows ending at row rows - 1 - p are all marked: an h x w rectangle with
    that bottom row ends at this column.  The highest bit left is the
    smallest such row.
    """
    shapes = [(area // w, w) for w in range(1, len(columns) + 1)
              if area % w == 0 and area // w <= rows]
    first = rows
    planes: list[int] = []
    for col in columns:
        increment(planes, col)
        for h, w in shapes:
            bottoms = has_run(at_least(planes, w, col), h)
            if bottoms:
                first = min(first, rows - bottoms.bit_length())
    return first


def maximal_rectangle(m: BinaryMatrix) -> RectResult:
    """Largest all-ones rectangle: the stack's answer, row by row, keeping
    the first strictly larger area.

    A matrix with rows <= cols is swept row by row (`_sweep`).  A taller
    one is swept column by column, which costs fewer Python steps and
    gives the largest area A, but not the row-wise tie-break.  That answer
    is the stack's on the first row i* whose histogram holds area A: every
    earlier row holds less, and no later row replaces an equal area.  The
    largest rectangle under row i's histogram is the largest all-ones
    rectangle with bottom row i, so i* is the smallest bottom row of any
    rectangle of area A (`_first_bottom_row`).  Row i*'s heights are read
    with one `rfind` per column and go through the same stack.
    """
    return maximal_rectangle_text(MatrixText.of(m))


def maximal_rectangle_text(t: MatrixText) -> RectResult:
    """maximal_rectangle on a grid's text, the file's bytes for `rect`."""
    rows, cols = t.rows, t.cols
    if rows <= cols:
        return _sweep(text_rows(t), cols)
    columns = list(text_columns(t))  # rows * cols bits, read twice
    best = _sweep(columns, rows)
    if not best.area:
        return best
    i = _first_bottom_row(columns, rows, best.area)
    text, stride = t.text, cols + 1
    return largest_rect_in_histogram(
        [i - text[j:(i + 1) * stride:stride].rfind(b"0") for j in range(cols)])
