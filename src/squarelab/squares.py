"""Maximal-square solvers for binary matrices.

Four independent routes to the same answer: a frequency-tracking single-pass
algorithm, the classic full-table DP recurrence, its row-rolling O(cols)-space
variant, and a direct window-checking oracle.  A fifth, freq_bits, runs the
frequency algorithm a whole row at a time on bit masks, through
`bitplanes.sweep`, whose docstring gives the invariant all three frequency
sweeps (freq_square, freq_bits and max_cube) rest on.  Every solver reports
how many cells it visited, and solvers can account their auxiliary
allocations to an AllocationAudit, so the single-pass and bounded-space
claims are testable rather than taken on faith.

`solve` reads its input a block of lines at a time with `core.read_lines`.
By default it runs neither this module nor `grid`: it runs
`bitplanes.freq_bits_lines` on the blocks as they are read and returns a
SquareResult, defined in `core`.  Its other `--algo` choices run a solver
here on the BinaryMatrix the blocks make (`BinaryMatrix.from_lines`).
"""

from __future__ import annotations

from typing import Callable

from .bitplanes import line_rows, sweep
from .core import (
    ORACLE_CELL_CAP,
    OracleCapExceededError,
    SquareResult,
    _Result,
)
from .grid import BinaryMatrix


class FreqState(_Result):
    """Frequency-solver state snapshot taken after a row finishes.

    freq[j] is the run of consecutive ones in column j ending at that row;
    the two thresholds always equal found_max_width + 1.
    """

    __slots__ = ()
    freq: tuple[int, ...]
    found_max_width: int
    check_max_width: int
    check_max_height: int
    counter: int

    def __new__(
        cls,
        freq: tuple[int, ...],
        found_max_width: int,
        check_max_width: int,
        check_max_height: int,
        counter: int,
    ) -> FreqState:
        return tuple.__new__(
            cls, (freq, found_max_width, check_max_width, check_max_height, counter))


class AllocationAudit:
    """Tallies auxiliary working-storage elements a solver allocates.

    Solvers report element counts as they allocate; `peak_elements` is the
    high-water mark.  The input matrix itself is never counted.
    """

    def __init__(self) -> None:
        self.peak_elements = 0
        self._live = 0

    def add(self, count: int) -> None:
        self._live += count
        if self._live > self.peak_elements:
            self.peak_elements = self._live

    def release(self, count: int) -> None:
        self._live -= count


def _freq_core(
    m: BinaryMatrix,
    snapshots: list[FreqState] | None,
    audit: AllocationAudit | None,
) -> SquareResult:
    rows, cols, cells = m.rows, m.cols, m.cells
    if rows == 0 or cols == 0:
        return SquareResult(0, 0, 0)
    freq = [0] * cols
    if audit is not None:
        audit.add(cols)
    found_max_width = 0
    check_max_width = 1
    check_max_height = 1
    counter = 0
    visited = 0
    for i in range(rows):
        row = cells[i * cols:(i + 1) * cols]
        for j, cell in enumerate(row):
            visited += 1
            if cell:
                f = freq[j] + 1
                freq[j] = f
                if check_max_height <= f:
                    counter += 1
                    if check_max_width == counter:
                        found_max_width += 1
                        check_max_width += 1
                        check_max_height += 1
                        counter = 0
                    # a satisfied column skips the trailing reset
                    continue
            else:
                freq[j] = 0
            counter = 0
        counter = 0
        if snapshots is not None:
            snapshots.append(
                FreqState(
                    tuple(freq),
                    found_max_width,
                    check_max_width,
                    check_max_height,
                    counter,
                )
            )
    return SquareResult(found_max_width, found_max_width * found_max_width, visited)


def freq_square(m: BinaryMatrix, audit: AllocationAudit | None = None) -> SquareResult:
    """Single-pass maximal square via per-column run counts and a width counter.

    Per cell: a 1 extends its column run; if the run reaches the current
    height threshold the horizontal counter advances, and when the counter
    reaches the width threshold a square of that size is confirmed and both
    thresholds grow by one.  Any break resets the counter.  One pass, one
    O(cols) vector, no table.
    """
    return _freq_core(m, None, audit)


def freq_square_traced(
    m: BinaryMatrix, audit: AllocationAudit | None = None
) -> tuple[SquareResult, list[FreqState]]:
    """freq_square plus a FreqState snapshot after each row.

    Tracing shares the solver core, so the result is identical to
    freq_square on every input.
    """
    snapshots: list[FreqState] = []
    result = _freq_core(m, snapshots, audit)
    return result, snapshots


def freq_bits(m: BinaryMatrix, audit: AllocationAudit | None = None) -> SquareResult:
    """freq_square's threshold raising, one whole row at a time on bit masks.

    Each row is packed into an int and the rows go through
    `bitplanes.sweep`, which states why one test per row suffices: the
    per-column runs are a bit-sliced counter, and the columns whose run is
    at least best + 1 are tested for that many consecutive set bits.
    cells_visited counts the cells the read checks, rows * cols; the audit
    counts 64-bit words (the packed row and the counter planes).

    This always sweeps the rows, so the counter holds O(cols log rows)
    words, the paper's O(n) space; sweeping the columns of a tall matrix
    would hold O(rows log cols).  `bitplanes.freq_bits_lines`, which
    `solve` runs on its input a block of lines at a time, folds and sweeps
    the columns instead when a full block holds more lines than cols.
    """
    best, planes = sweep(line_rows(m.to_text(), m.cols), (1,))
    if audit is not None:
        audit.add((m.cols + 63) // 64 * (1 + planes))
    return SquareResult(best, best * best, m.rows * m.cols)


def dp_full(m: BinaryMatrix, audit: AllocationAudit | None = None) -> SquareResult:
    """Full-table DP: cell (i, j) holds the best square side ending there.

    A 1-cell extends the three neighbors above/left/diagonal by
    min(...) + 1; out-of-range neighbors read as 0.
    """
    rows, cols, cells = m.rows, m.cols, m.cells
    if rows == 0 or cols == 0:
        return SquareResult(0, 0, 0)
    table = [[0] * cols for _ in range(rows)]
    if audit is not None:
        audit.add(rows * cols)
    best = 0
    visited = 0
    prev: list[int] = []
    for i in range(rows):
        cur = table[i]
        row = cells[i * cols:(i + 1) * cols]
        for j, cell in enumerate(row):
            visited += 1
            if cell:
                if i == 0 or j == 0:
                    v = 1
                else:
                    v = min(prev[j], cur[j - 1], prev[j - 1]) + 1
                cur[j] = v
                if v > best:
                    best = v
        prev = cur
    return SquareResult(best, best * best, visited)


def dp_rows(m: BinaryMatrix, audit: AllocationAudit | None = None) -> SquareResult:
    """Row-rolling DP: same recurrence as dp_full, keeping only two rows."""
    rows, cols, cells = m.rows, m.cols, m.cells
    if rows == 0 or cols == 0:
        return SquareResult(0, 0, 0)
    prev = [0] * cols
    cur = [0] * cols
    if audit is not None:
        audit.add(2 * cols)
    best = 0
    visited = 0
    for i in range(rows):
        row = cells[i * cols:(i + 1) * cols]
        for j, cell in enumerate(row):
            visited += 1
            if cell:
                if i == 0 or j == 0:
                    v = 1
                else:
                    v = min(prev[j], cur[j - 1], prev[j - 1]) + 1
                cur[j] = v
                if v > best:
                    best = v
            else:
                cur[j] = 0
        prev, cur = cur, prev
    return SquareResult(best, best * best, visited)


# the DP references `bench` times freq_square against, and `solve --algo
# dp|dp2d` runs, by function name
BASELINES: dict[str, Callable[[BinaryMatrix], SquareResult]] = {
    "dp_full": dp_full,
    "dp_rows": dp_rows,
}


def brute_force_square(m: BinaryMatrix, audit: AllocationAudit | None = None) -> SquareResult:
    """Direct oracle: test the one window at each anchor that could beat the best.

    For each (top, left) it checks only the k x k window with k = best + 1,
    one row segment at a time.  The top row is searched for the next run of
    k ones at or after left, and left jumps to it; a top row with no such
    run ends that top.  An all-ones window raises best to k and the same
    anchor is tried at k + 1.  A zero at column z in a lower row rules out
    every anchor up to z on that top at side k, so left jumps to z + 1 (the
    bad-character skip of Boyer and Moore, CACM 20(10), 1977).
    cells_visited counts the cells each scan reads: a top-row search from
    left to the end of the run it finds, or to the end of the row when it
    finds none, and a lower-row segment up to and including its first zero,
    so it can be below rows*cols.  It allocates no working storage, so an
    audit is left at 0.
    """
    rows, cols, cells = m.rows, m.cols, m.cells
    if rows * cols > ORACLE_CELL_CAP:
        raise OracleCapExceededError(
            f"{rows}x{cols} = {rows * cols} cells exceeds oracle cap {ORACLE_CELL_CAP}"
        )
    best = 0
    visited = 0
    top = 0
    while top + best < rows:
        left = 0
        row0 = top * cols
        while left + best < cols and top + best < rows:
            k = best + 1
            run = cells.find(b"\x01" * k, row0 + left, row0 + cols)
            if run < 0:
                visited += cols - left
                break
            visited += run + k - row0 - left
            left = run - row0
            for start in range(run + cols, run + k * cols, cols):
                zero = cells.find(0, start, start + k)
                if zero >= 0:
                    visited += zero - start + 1
                    left += zero - start + 1
                    break
                visited += k
            else:
                best = k
        top += 1
    return SquareResult(best, best * best, visited)
