"""Histogram-based maximal rectangle baseline.

Per row, the column heights form a histogram, and a linear monotonic-stack
sweep finds the largest rectangle under it.  `maximal_rectangle` finds the
largest area on the whole grid packed as one int, where an h x w window
test is a row erosion followed by a column erosion (Serra, 1982), and
runs the stack once, on the row where the row-by-row sweep would have met
that area, so the answer, ties included, is the row-wise stack's.  Serves
as the comparison point for the square solvers (every square is a
rectangle).

`rect` runs `maximal_rectangle_text` on a file's bytes, so this module
loads only `bitplanes` and `core`, not `grid`; RectResult, which it
returns, is defined in `core`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .bitplanes import has_run, text_layers
from .core import GridText, RectResult

if TYPE_CHECKING:
    from .grid import BinaryMatrix

Histogram = list[int]


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


def _lift(tall: list[int], n: int, top: int, unit: int, step: int) -> int:
    """The longest run, at most `top`, that the mask in `tall` holds.

    tall[0] marks runs of n (nonzero) and is replaced by the mask of the
    longest run.  The first probe is n + step; the step doubles while some
    run survives, then the gap to the first length that failed is halved.
    A step never exceeds n, so every probe is one shift-AND.  The list is
    the mask's only reference, so each replaced mask is freed at once.
    """
    hi = top
    while n < hi:
        step = min(step, n, hi - n)
        grown = has_run(tall[0], n + step, unit, n)
        if grown:
            tall[0], n = grown, n + step
        else:
            hi = n + step - 1
        step = 2 * step if hi == top else (hi - n + 1) // 2
    return n


def maximal_rectangle(m: BinaryMatrix) -> RectResult:
    """Largest all-ones rectangle: the stack's answer, row by row, keeping
    the first strictly larger area.

    Let h(w) be the height of the tallest all-ones rectangle of width w;
    it never grows with w, and the largest area A is the largest w * h(w).
    The grid is one board, its one layer's (`bitplanes.text_layers`),
    whose rows are cols + 1 bits apart as the text's are cols + 1 bytes
    apart, and `runs` marks the cells that end a row run of w ones.  The
    walk takes w upward: it jumps to the first width at which `cap`, a
    bound on h(w), could reach the best area, tests the height that would
    reach it with a column erosion of `runs`, and lifts the surviving
    windows to h(w) exactly.  When h(w) is cap, it gallops the width on
    those windows instead, so a plateau of h costs O(log w) shift-ANDs.
    Every width with w * h(w) = A is met, with the smallest bottom row of
    its rectangles as the highest bit of a mask.

    The stack's answer is its answer on the first row i* whose histogram
    holds area A: every earlier row holds less, and no later row replaces
    an equal area.  The largest rectangle under row i's histogram is the
    largest all-ones rectangle with bottom row i, so i* is the smallest
    bottom row of any rectangle of area A.  Row i*'s heights are read
    with one `rfind` per column and go through the same stack.
    """
    return maximal_rectangle_text(m.to_text())


def maximal_rectangle_text(t: GridText) -> RectResult:
    """maximal_rectangle on a matrix's text, the file's bytes for `rect`."""
    if t.depth != 1:
        raise ValueError(f"a matrix is one layer, not {t.depth}")
    rows, cols, stride, runs = t.rows, t.cols, t.cols + 1, next(text_layers(t))
    best, first, cap, w, width = 0, rows, rows, 1, 1
    while cap and runs:
        w = max(w, -(-best // cap))  # no narrower width reaches best
        if w > cols:
            break
        runs, width = has_run(runs, w, 1, width), w
        lo = max(-(-best // w), 1)
        tall = [has_run(runs, lo, stride)]  # h x w windows, by bottom-right cell
        if not tall[0]:
            cap = lo - 1
            continue
        h = _lift(tall, lo, cap, stride, cap - lo)
        if h == cap:
            w = _lift(tall, w, cols, 1, 1)
            cap -= 1  # w is the widest rectangle of this height
        else:
            cap = h
        row = rows - 1 - (tall.pop().bit_length() - 1) // stride
        first = row if w * h > best else min(first, row)
        best, w = w * h, w + 1
    if not best:
        return RectResult(0, 0, 0)
    return largest_rect_in_histogram(
        [first - t.text[j:(first + 1) * stride:stride].rfind(b"0") for j in range(cols)])
