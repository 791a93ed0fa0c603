"""Histogram-based maximal rectangle baseline.

Per row, the column heights form a histogram, and a linear monotonic-stack
sweep finds the largest rectangle under it.  `maximal_rectangle` finds the
largest area on the whole grid packed as one int, where an h x w window
test is a row erosion followed by a column erosion (Serra, 1982), and
runs the stack once, on the row where the row-by-row sweep would have met
that area, so the answer, ties included, is the row-wise stack's.  Serves
as the comparison point for the square solvers (every square is a
rectangle).

`rect` runs `maximal_rectangle_lines` on the blocks `core.read_lines`
reads from a file, and `maximal_rectangle` on a matrix's text as one
block, each packed by `bitplanes.lines_board`; so this module loads only
`bitplanes` and `core`, where RectResult is defined, not `grid`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .bitplanes import has_run, lines_board
from .core import RectResult

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
    the first strictly larger area.  The grid's text is packed as one
    block into one board, as `rect` packs a file's, and `_walk` finds the
    rectangle on it."""
    return maximal_rectangle_lines([m.to_text()], m.cols)


def maximal_rectangle_lines(blocks: Iterable[bytes], cols: int) -> RectResult:
    """maximal_rectangle on a matrix's lines of `cols` cells, given a block
    of whole lines at a time, as `core.read_lines` reads a file for `rect`,
    each packed into the board as it comes (`bitplanes.lines_board`)."""
    board, rows = lines_board(blocks, cols)
    return _walk(board, rows, cols)


def _walk(board: int, rows: int, cols: int) -> RectResult:
    """The largest rectangle on a board of `rows` rows of `cols` cells,
    cols + 1 bits apart, row 0 on top and each row's lowest bit a zero
    guard.

    Let h(w) be the height of the tallest all-ones rectangle of width w;
    it never grows with w, and the largest area A is the largest w * h(w).
    `runs` marks the cells that end a row run of w ones.  The walk takes w
    upward: it jumps to the first width at which `cap`, a bound on h(w),
    could reach the best area, tests the height that would reach it with
    a column erosion of `runs`, and lifts the surviving windows to h(w)
    exactly.  When h(w) is cap, it gallops the width on those windows
    instead, so a plateau of h costs O(log w) shift-ANDs.  Every width
    with w * h(w) = A is met, with the smallest bottom row of its
    rectangles as the highest bit of a mask.

    The stack's answer is its answer on the first row i* whose histogram
    holds area A: every earlier row holds less, and no later row replaces
    an equal area.  The largest rectangle under row i's histogram is the
    largest all-ones rectangle with bottom row i, so i* is the smallest
    bottom row of any rectangle of area A.  Row i*'s heights are read off
    the board (`_heights`) and go through the same stack.
    """
    stride, runs = cols + 1, board
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
    del runs  # the readout holds the board and its bytes, not the runs too
    return largest_rect_in_histogram(_heights(board, rows, cols, first))


def _heights(board: int, rows: int, cols: int, first: int) -> Histogram:
    """Row `first`'s histogram, read off the board: its bytes, once, then
    eight rows at a time from row `first` upward, until every column has
    met a zero.  Column j's height is first - i for the lowest zero i at
    or above `first`, or first + 1 when it has none."""
    stride = cols + 1
    data = board.to_bytes(-(-rows * stride // 8), "big")
    lead = 8 * len(data) - rows * stride  # the zero bits above row 0
    heights = [first + 1] * cols
    alive = (1 << cols) - 1  # the columns with no zero met yet
    for stop in range(first + 1, 0, -8):
        start = max(stop - 8, 0)
        lo, hi = lead + start * stride, lead + stop * stride
        group = int.from_bytes(data[lo // 8:-(-hi // 8)], "big") >> -hi % 8
        for i in range(stop - 1, start - 1, -1):
            zeros = alive & ~(group >> (stop - 1 - i) * stride + 1)
            if zeros:
                alive ^= zeros
                cells = format(zeros, f"0{cols}b")
                j = cells.find("1")
                while j >= 0:
                    heights[j] = first - i
                    j = cells.find("1", j + 1)
        if not alive:
            break
    return heights
