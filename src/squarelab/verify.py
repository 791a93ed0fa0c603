"""Differential and exhaustive verification of the square solvers.

Every case runs all four solvers and flags any disagreement on the returned
side; disagreements carry the reproducing matrix so a finding is never lost
in an aggregate.  Campaigns also recheck the per-column run-length state of
the frequency solver against direct recomputation, and that each single-pass
solver visits exactly rows*cols cells.
"""

from __future__ import annotations

import random
import time
from typing import Callable

from .core import SquareResult, _Result
from .grid import (
    _TO_BITS,
    _TO_TEXT,
    EDGE_SIZES,
    EMPTY_MATRIX,
    BinaryMatrix,
    EdgeKind,
    GenSpec,
    generate_edge_case,
    generate_matrix,
    serialize_matrix,
)
from .histogram import build_histograms
from .squares import (
    brute_force_square,
    dp_full,
    dp_rows,
    freq_square,
    freq_square_traced,
)

ENUMERATION_CAP = 2**20

# every this many random cases also recheck the frequency solver's state
STATE_CHECK_STRIDE = 100

Solver = Callable[[BinaryMatrix], SquareResult]

# fixed comparison order; freq is the candidate, the rest are references
DEFAULT_SOLVERS: tuple[tuple[str, Solver], ...] = (
    ("freq", freq_square),
    ("dp_full", dp_full),
    ("dp_rows", dp_rows),
    ("brute", brute_force_square),
)

# solvers whose visit count must equal rows*cols exactly
SINGLE_PASS_SOLVERS = ("freq", "bits", "dp_full", "dp_rows")


class EnumerationCapExceededError(ValueError):
    """Exhaustive sweep would enumerate too many matrices."""


class Mismatch(_Result):
    """One disagreement: the input and every solver's claimed side."""

    __slots__ = ()
    case_id: str
    matrix: BinaryMatrix
    sides: tuple[tuple[str, int], ...]

    def __new__(cls, case_id: str, matrix: BinaryMatrix,
                sides: tuple[tuple[str, int], ...]) -> Mismatch:
        return tuple.__new__(cls, (case_id, matrix, sides))


class InvariantFailure(_Result):
    """A broken internal invariant on one case; row < 0 means not row-specific."""

    __slots__ = ()
    case_id: str
    row: int
    description: str

    def __new__(cls, case_id: str, row: int, description: str) -> InvariantFailure:
        return tuple.__new__(cls, (case_id, row, description))


class VerifyReport:
    """What one campaign found: cases run, findings, and its wall time.
    Campaigns fill it in place, so it is mutable, compares by value and has
    no hash."""

    def __init__(
        self,
        cases_run: int = 0,
        mismatches: list[Mismatch] | None = None,
        invariant_failures: list[InvariantFailure] | None = None,
        elapsed: float = 0.0,
    ) -> None:
        self.cases_run = cases_run
        self.mismatches = [] if mismatches is None else mismatches
        self.invariant_failures = [] if invariant_failures is None else invariant_failures
        self.elapsed = elapsed

    def __repr__(self) -> str:
        return (f"VerifyReport(cases_run={self.cases_run!r}, mismatches={self.mismatches!r}, "
                f"invariant_failures={self.invariant_failures!r}, elapsed={self.elapsed!r})")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return ((self.cases_run, self.mismatches, self.invariant_failures, self.elapsed)
                == (other.cases_run, other.mismatches, other.invariant_failures, other.elapsed))

    @property
    def clean(self) -> bool:
        return not self.mismatches and not self.invariant_failures


def _check_case(
    case_id: str,
    matrix: BinaryMatrix,
    solvers: tuple[tuple[str, Solver], ...],
    report: VerifyReport,
) -> list[tuple[str, SquareResult]]:
    """Run every solver on one case, record any disagreement and broken
    visit count in `report`, and return each solver's result."""
    results = [(name, fn(matrix)) for name, fn in solvers]
    sides = tuple((name, r.side) for name, r in results)
    if len({s for _, s in sides}) > 1:
        report.mismatches.append(Mismatch(case_id, matrix, sides))
    expected_visits = matrix.rows * matrix.cols
    for name, r in results:
        if name in SINGLE_PASS_SOLVERS and r.cells_visited != expected_visits:
            report.invariant_failures.append(
                InvariantFailure(
                    case_id,
                    -1,
                    f"{name} visited {r.cells_visited} cells, "
                    f"expected {expected_visits}",
                )
            )
    report.cases_run += 1
    return results


def _check_freq_state(case_id: str, matrix: BinaryMatrix, report: VerifyReport) -> None:
    """Compare the traced snapshots to the column run lengths per row."""
    _, snapshots = freq_square_traced(matrix)
    for i, (state, heights) in enumerate(zip(snapshots, build_histograms(matrix))):
        runs = tuple(heights)
        if state.freq != runs:
            report.invariant_failures.append(
                InvariantFailure(
                    case_id, i, f"freq {state.freq} != column runs {runs}"
                )
            )
        if not (
            state.check_max_width
            == state.check_max_height
            == state.found_max_width + 1
        ):
            report.invariant_failures.append(
                InvariantFailure(
                    case_id,
                    i,
                    "thresholds decoupled: "
                    f"width={state.check_max_width} height={state.check_max_height} "
                    f"found={state.found_max_width}",
                )
            )


def enumeration_count(max_rows: int, max_cols: int) -> int:
    """Number of distinct matrices over all shapes r <= max_rows, c <= max_cols."""
    return sum(
        2 ** (r * c) for r in range(1, max_rows + 1) for c in range(1, max_cols + 1)
    )


def _pattern_cells(pattern: int, width: int) -> bytes:
    """Row-major cells for a pattern integer, most significant bit first.

    Ascending pattern order is lexicographic order on the cell string, so
    the first disagreement found per shape is the minimal reproducer.
    """
    return format(pattern, f"0{width}b").encode().translate(_TO_BITS)


def exhaustive_sweep(
    max_rows: int,
    max_cols: int,
    solvers: tuple[tuple[str, Solver], ...] = DEFAULT_SOLVERS,
) -> VerifyReport:
    """Run every binary matrix of every shape up to max_rows x max_cols.

    Raises EnumerationCapExceededError when the total enumeration would
    exceed ENUMERATION_CAP.
    """
    total = 0
    for r in range(1, max_rows + 1):
        for c in range(1, max_cols + 1):
            total += 2 ** (r * c)
            if total > ENUMERATION_CAP:
                raise EnumerationCapExceededError(
                    f"sweep up to {max_rows}x{max_cols} exceeds "
                    f"{ENUMERATION_CAP} enumerations"
                )
    report = VerifyReport()
    start = time.perf_counter()
    for r in range(1, max_rows + 1):
        for c in range(1, max_cols + 1):
            bits = r * c
            for pattern in range(2**bits):
                matrix = BinaryMatrix(r, c, _pattern_cells(pattern, bits))
                _check_case(f"{r}x{c}#{pattern}", matrix, solvers, report)
    report.elapsed = time.perf_counter() - start
    return report


def random_campaign(
    count: int,
    max_dim: int,
    densities: set[float],
    seed: int,
    solvers: tuple[tuple[str, Solver], ...] = DEFAULT_SOLVERS,
) -> VerifyReport:
    """Seeded random matrices, shapes up to max_dim x max_dim, cycling densities.

    Every case gets the four-way comparison; every STATE_CHECK_STRIDE-th case
    additionally recomputes the frequency solver's per-row state from scratch.
    Identical arguments produce an identical report.
    """
    if count < 1:
        raise ValueError("count must be positive")
    density_cycle = sorted(densities)
    rng = random.Random(seed)
    report = VerifyReport()
    start = time.perf_counter()
    for index in range(count):
        density = density_cycle[index % len(density_cycle)]
        rows = rng.randint(1, max_dim)
        cols = rng.randint(1, max_dim)
        matrix_seed = rng.getrandbits(64)
        matrix = generate_matrix(GenSpec(rows, cols, density, matrix_seed))
        case_id = f"random#{index}"
        _check_case(case_id, matrix, solvers, report)
        if index % STATE_CHECK_STRIDE == 0:
            _check_freq_state(case_id, matrix, report)
    report.elapsed = time.perf_counter() - start
    return report


def edge_case_suite() -> VerifyReport:
    """Edge-case values: the EDGE_SIZES constant matrices and the empty matrix.

    Compares freq_square against dp_full on each, with the single-pass visit
    count, and both against the analytically known area.
    """
    # looked up at call time, so a stand-in patched over either name is used
    solvers = (("freq", freq_square), ("dp_full", dp_full))
    cases: list[tuple[str, BinaryMatrix, int]] = []
    for kind, n in EDGE_SIZES.items():
        # zeros hold no square, n x n ones hold one of side n, a single row or column side 1
        area = 0 if kind is EdgeKind.ALL_ZEROS else n * n if kind is EdgeKind.ALL_ONES else 1
        cases.append((f"{kind.value}_{n}", generate_edge_case(kind, n), area))
    cases.append(("empty", EMPTY_MATRIX, 0))
    report = VerifyReport()
    start = time.perf_counter()
    for case_id, matrix, expected_area in cases:
        for name, result in _check_case(case_id, matrix, solvers, report):
            if result.area != expected_area:
                report.invariant_failures.append(
                    InvariantFailure(
                        case_id,
                        -1,
                        f"{name} area {result.area}, expected {expected_area}",
                    )
                )
    report.elapsed = time.perf_counter() - start
    return report


def render_report(report: VerifyReport) -> str:
    """Line-oriented report text.  Deterministic: excludes elapsed time."""
    lines = [
        f"cases_run={report.cases_run}",
        f"mismatches={len(report.mismatches)}",
        f"invariant_failures={len(report.invariant_failures)}",
    ]
    for mm in report.mismatches:
        lines.append(f"mismatch case={mm.case_id} rows={mm.matrix.rows} cols={mm.matrix.cols}")
        lines.extend("  " + row for row in serialize_matrix(mm.matrix).splitlines())
        lines.append("  sides " + " ".join(f"{n}={s}" for n, s in mm.sides))
    for inv in report.invariant_failures:
        where = f" row={inv.row}" if inv.row >= 0 else ""
        lines.append(f"invariant_failure case={inv.case_id}{where}: {inv.description}")
    return "\n".join(lines) + "\n"


def render_mismatch_csv(*reports: VerifyReport) -> str:
    """One CSV row per mismatch across all reports; cells are the row-major
    0/1 string.  Side columns follow the order in which solver names first
    appear, and a field is empty where that solver did not run on the case."""
    mismatches = [mm for report in reports for mm in report.mismatches]
    seen = (n for mm in mismatches for n, _ in mm.sides)
    solver_names = list(dict.fromkeys(seen)) or [n for n, _ in DEFAULT_SOLVERS]
    header = "case,rows,cols,cells," + ",".join(f"{n}_side" for n in solver_names)
    lines = [header]
    for mm in mismatches:
        cells = mm.matrix.cells.translate(_TO_TEXT).decode("ascii")
        by_name = dict(mm.sides)
        sides = ",".join(str(by_name.get(n, "")) for n in solver_names)
        lines.append(f"{mm.case_id},{mm.matrix.rows},{mm.matrix.cols},{cells},{sides}")
    return "\n".join(lines) + "\n"
