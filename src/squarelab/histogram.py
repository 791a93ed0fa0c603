"""Histogram-based maximal rectangle baseline.

Two phases: per-row column-height histograms, then a linear monotonic-stack
sweep for the largest rectangle under each histogram.  Serves as the
comparison point for the square solvers (every square is a rectangle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .grid import BinaryMatrix

Histogram = list[int]


@dataclass(frozen=True, slots=True)
class RectResult:
    """Largest rectangle: area == height * width, all zero when no ones exist."""

    area: int
    height: int
    width: int


def _row_heights(m: BinaryMatrix) -> Iterator[Histogram]:
    """Yield each row's histogram: heights[j] is the run of ones in column j
    ending at that row.  One list is updated in place and yielded every time,
    so a caller that keeps a row must copy it."""
    heights = [0] * m.cols
    for i in range(m.rows):
        for j, cell in enumerate(m.row(i)):
            heights[j] = heights[j] + 1 if cell else 0
        yield heights


def build_histograms(m: BinaryMatrix) -> list[Histogram]:
    """One histogram per row: heights[j] is the run of ones in column j ending there."""
    return [heights.copy() for heights in _row_heights(m)]


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


def maximal_rectangle(m: BinaryMatrix) -> RectResult:
    """Largest all-ones rectangle: best histogram rectangle over all rows."""
    best = RectResult(0, 0, 0)
    for heights in _row_heights(m):
        candidate = largest_rect_in_histogram(heights)
        if candidate.area > best.area:
            best = candidate
    return best
