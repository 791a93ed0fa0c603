"""Histogram-based maximal rectangle baseline.

Per row, the column heights form a histogram, and a linear monotonic-stack
sweep finds the largest rectangle under it.  `maximal_rectangle` keeps the
heights as a bit-sliced counter and runs the stack only on rows that a
shift-AND certificate cannot rule out.  Serves as the comparison point for
the square solvers (every square is a rectangle).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .bitplanes import at_least, has_run, increment, max_height, packed_rows
from .bitplanes import heights as column_heights
from .grid import BinaryMatrix

Histogram = list[int]


@dataclass(frozen=True, slots=True)
class RectResult:
    """Largest rectangle: area == height * width, all zero when no ones exist."""

    area: int
    height: int
    width: int


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


def _beats(planes: list[int], row: int, lo: int, hi: int, best: int) -> bool:
    """Whether some rectangle ending on this row, of height in [lo, hi], has
    area above `best`.

    L(h), the longest run of columns with height at least h, never grows as
    h grows.  So when the mask at_least(a) has no run of best // b + 1
    columns, every h in [a, b] gives h * L(h) <= b * L(a) <= best, and the
    interval is certified with one comparison and a few shift-ANDs.  An
    interval that fails is split at its geometric mean, since the bound is
    loose by the factor b / a; a single height h that fails holds a
    rectangle h * (best // h + 1) > best.
    """
    pending = [(lo, hi)]
    while pending:
        a, b = pending.pop()
        if not has_run(at_least(planes, a, row), best // b + 1):
            continue
        if a == b:
            return True
        mid = isqrt(a * b)  # a <= mid < b, and b / a shrinks evenly on both sides
        pending.append((a, mid))
        pending.append((mid + 1, b))
    return False


def maximal_rectangle(m: BinaryMatrix) -> RectResult:
    """Largest all-ones rectangle: best histogram rectangle over all rows.

    The column heights are a bit-sliced counter (see `bitplanes`).  A row
    goes to the histogram stack only when it may hold a rectangle larger
    than the best so far: when hmax * cols <= best it is skipped, and
    otherwise `_beats` certifies it on the planes.  A skipped or certified
    row has no stack pop above the best.  `_beats` passes a row only when
    it holds a rectangle above the best, so the stack's answer on that row
    replaces the best, and the result, ties included, is the stack's on
    every row.
    """
    cols = m.cols
    best = RectResult(0, 0, 0)
    planes: list[int] = []
    for row in packed_rows(m):
        increment(planes, row)
        lo = best.area // cols + 1
        hmax = max_height(planes, row)
        if lo <= hmax and _beats(planes, row, lo, hmax, best.area):
            best = largest_rect_in_histogram(column_heights(planes, cols))
    return best
