"""Differential and exhaustive verification of the square solvers.

Every case runs all four solvers and flags any disagreement on the returned
side; disagreements carry the reproducing matrix so a finding is never lost
in an aggregate.  Campaigns also recheck the per-column run-length state of
the frequency solver against direct recomputation, and that each single-pass
solver visits exactly rows*cols cells.

Each campaign can run one contiguous shard of its cases, and `run_verify`,
what `squarelab verify` runs, splits every campaign into one shard per CPU
the process may use: it runs shard 0 itself and forks a child for each of
the others, which sends its reports back over a pipe.  Concatenated in shard
order they are the report of one unsharded run.
"""

from __future__ import annotations

import marshal
import os
import random
import sys
import time
from math import isqrt
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NoReturn

from .core import ORACLE_CELL_CAP, SquareResult, _Result
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

if TYPE_CHECKING:
    import argparse

ENUMERATION_CAP = 2**20

# every this many random cases also recheck the frequency solver's state
STATE_CHECK_STRIDE = 100

Solver = Callable[[BinaryMatrix], SquareResult]

# (k, n): the k-th of n contiguous, near-equal slices of a campaign's cases
Shard = tuple[int, int]
WHOLE: Shard = (0, 1)

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


class VerifyReport(SimpleNamespace):
    """What one campaign found: cases run, findings, and its wall time.
    Campaigns fill it in place, so it is mutable, compares by value and has
    no hash, as a SimpleNamespace does."""

    def __init__(
        self,
        cases_run: int = 0,
        mismatches: list[Mismatch] | None = None,
        invariant_failures: list[InvariantFailure] | None = None,
        elapsed: float = 0.0,
    ) -> None:
        super().__init__(
            cases_run=cases_run,
            mismatches=[] if mismatches is None else mismatches,
            invariant_failures=[] if invariant_failures is None else invariant_failures,
            elapsed=elapsed,
        )

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
    """Number of distinct matrices over all shapes r <= max_rows, c <= max_cols,
    or EnumerationCapExceededError as soon as the running total passes
    ENUMERATION_CAP."""
    total = 0
    for r in range(1, max_rows + 1):
        for c in range(1, max_cols + 1):
            total += 2 ** (r * c)
            if total > ENUMERATION_CAP:
                raise EnumerationCapExceededError(
                    f"sweep up to {max_rows}x{max_cols} exceeds "
                    f"{ENUMERATION_CAP} enumerations"
                )
    return total


def _pattern_cells(pattern: int, width: int) -> bytes:
    """Row-major cells for a pattern integer, most significant bit first.

    Ascending pattern order is lexicographic order on the cell string, so
    the first disagreement found per shape is the minimal reproducer.
    """
    return format(pattern, f"0{width}b").encode().translate(_TO_BITS)


def _bounds(total: int, shard: Shard) -> tuple[int, int]:
    """The global indices [lo, hi) of `shard`'s slice of `total` cases."""
    k, n = shard
    if not 0 <= k < n:
        raise ValueError(f"shard {k} of {n} does not exist")
    return total * k // n, total * (k + 1) // n


def exhaustive_sweep(
    max_rows: int,
    max_cols: int,
    solvers: tuple[tuple[str, Solver], ...] = DEFAULT_SOLVERS,
    shard: Shard = WHOLE,
) -> VerifyReport:
    """Run every binary matrix of every shape up to max_rows x max_cols, or
    the `shard` slice of them, in shape-major, then pattern, order.

    Raises EnumerationCapExceededError when the total enumeration would
    exceed ENUMERATION_CAP.
    """
    lo, hi = _bounds(enumeration_count(max_rows, max_cols), shard)
    report = VerifyReport()
    start = time.perf_counter()
    first = 0  # global index of the shape's pattern 0
    for r in range(1, max_rows + 1):
        for c in range(1, max_cols + 1):
            bits = r * c
            for pattern in range(max(lo - first, 0), min(hi - first, 2**bits)):
                matrix = BinaryMatrix(r, c, _pattern_cells(pattern, bits))
                _check_case(f"{r}x{c}#{pattern}", matrix, solvers, report)
            first += 2**bits
    report.elapsed = time.perf_counter() - start
    return report


def random_campaign(
    count: int,
    max_dim: int,
    densities: set[float],
    seed: int,
    solvers: tuple[tuple[str, Solver], ...] = DEFAULT_SOLVERS,
    shard: Shard = WHOLE,
) -> VerifyReport:
    """Seeded random matrices, shapes up to max_dim x max_dim, cycling densities.

    Every case gets the four-way comparison; every STATE_CHECK_STRIDE-th case
    additionally recomputes the frequency solver's per-row state from scratch.
    Identical arguments produce an identical report.  A `shard` runs its
    slice of the `count` cases: it draws the shape and seed of every earlier
    case, so its cases are the unsharded campaign's, but builds no matrix
    for them.
    """
    if count < 1:
        raise ValueError("count must be positive")
    lo, hi = _bounds(count, shard)
    density_cycle = sorted(densities)
    rng = random.Random(seed)
    report = VerifyReport()
    start = time.perf_counter()
    for index in range(hi):
        density = density_cycle[index % len(density_cycle)]
        rows = rng.randint(1, max_dim)
        cols = rng.randint(1, max_dim)
        matrix_seed = rng.getrandbits(64)
        if index < lo:
            continue
        matrix = generate_matrix(GenSpec(rows, cols, density, matrix_seed))
        case_id = f"random#{index}"
        _check_case(case_id, matrix, solvers, report)
        if index % STATE_CHECK_STRIDE == 0:
            _check_freq_state(case_id, matrix, report)
    report.elapsed = time.perf_counter() - start
    return report


def edge_case_suite(shard: Shard = WHOLE) -> VerifyReport:
    """Edge-case values: the EDGE_SIZES constant matrices and the empty matrix,
    or the `shard` slice of that list.

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
    lo, hi = _bounds(len(cases), shard)
    report = VerifyReport()
    start = time.perf_counter()
    for case_id, matrix, expected_area in cases[lo:hi]:
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


def _cpus() -> int:
    """How many CPUs this process may run on: the number of shards.  One,
    run here with no fork, where the OS reports no affinity or cannot fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


# a section's report as plain values, which marshal can send: cases run,
# mismatches as (case id, rows, cols, cells, sides), invariant failures as
# (case id, row, description), elapsed
_Plain = tuple[int, list, list, float]


def _shard_reports(args: argparse.Namespace, shard: Shard) -> list[_Plain]:
    """Run `shard` of each `verify` section, in section order."""
    from .cli import DEFAULT_DENSITIES

    n = args.exhaustive_max
    reports = (
        exhaustive_sweep(n, n, shard=shard),
        random_campaign(args.random_count, args.max_dim, DEFAULT_DENSITIES, args.seed,
                        shard=shard),
        edge_case_suite(shard=shard),
    )
    return [(r.cases_run,
             [(mm.case_id, mm.matrix.rows, mm.matrix.cols, mm.matrix.cells, mm.sides)
              for mm in r.mismatches],
             [tuple(inv) for inv in r.invariant_failures],
             r.elapsed) for r in reports]


def _shard_child(args: argparse.Namespace, shard: Shard, write_end: int) -> NoReturn:
    """Run `shard` in a forked child and send its reports, or the name and
    text of what it raised, to the parent; never returns."""
    try:
        try:
            reply = marshal.dumps((None, _shard_reports(args, shard)))
        except BaseException as exc:  # the parent raises it; a child ends here
            reply = marshal.dumps((type(exc).__name__, str(exc)))
        with open(write_end, "wb") as pipe:
            pipe.write(reply)
    finally:
        os._exit(0)


def _received(data: bytes, status: int, shard: Shard) -> list[_Plain]:
    """A child's reports from what it sent and its wait status; what it
    raised, or a ChildProcessError if it sent nothing whole."""
    try:
        error, body = marshal.loads(data)
    except (EOFError, ValueError):
        raise ChildProcessError(
            f"verify shard {shard[0]} of {shard[1]} ended with status "
            f"{os.waitstatus_to_exitcode(status)} and no report") from None
    if error == "MemoryError":
        raise MemoryError
    if error is not None:
        raise ChildProcessError(f"verify shard {shard[0]} of {shard[1]} failed: {error}: {body}")
    return body


def _joined(parts: tuple[_Plain, ...]) -> VerifyReport:
    """One section's report from its shards' reports, in shard order; its
    elapsed is the slowest shard's."""
    report = VerifyReport()
    for cases_run, mismatches, failures, elapsed in parts:
        report.cases_run += cases_run
        report.mismatches += [Mismatch(case_id, BinaryMatrix(rows, cols, cells), sides)
                              for case_id, rows, cols, cells, sides in mismatches]
        report.invariant_failures += [InvariantFailure(*f) for f in failures]
        report.elapsed = max(report.elapsed, elapsed)
    return report


def _run_shards(args: argparse.Namespace, count: int) -> list[VerifyReport]:
    """Each section's report, run as `count` shards: shard 0 here, each
    other in a forked child.  Whatever this raises, every child has been
    killed and reaped first."""
    pids: list[int] = []  # the children not yet reaped, in shard order
    pipes = []
    try:
        for k in range(1, count):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _shard_child(args, (k, count), write_end)
                pids.append(pid)
            finally:
                os.close(write_end)
        parts = [_shard_reports(args, (0, count))]
        for k, pipe in enumerate(pipes, 1):
            data = pipe.read()
            _, status = os.waitpid(pids[0], 0)
            del pids[0]
            parts.append(_received(data, status, (k, count)))
    except BaseException:
        from signal import SIGKILL

        for pid in pids:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
    return [_joined(section) for section in zip(*parts)]


def run_verify(args: argparse.Namespace) -> int:
    """`squarelab verify`: every campaign, one shard per CPU, then the
    reports and the mismatch CSV exactly as one process would write them.
    Every argument and the enumeration cap are checked before any fork."""
    if args.exhaustive_max < 1:
        raise ValueError("--exhaustive-max must be positive")
    if args.random_count < 1:
        raise ValueError("--random-count must be positive")
    if args.max_dim < 1:
        raise ValueError("--max-dim must be positive")
    if args.max_dim ** 2 > ORACLE_CELL_CAP:
        raise ValueError(
            f"--max-dim {args.max_dim} allows {args.max_dim}x{args.max_dim} cases, "
            f"over the oracle cap of {ORACLE_CELL_CAP} cells "
            f"(--max-dim {isqrt(ORACLE_CELL_CAP)} at most)")
    if not args.mismatch_out or os.path.isdir(args.mismatch_out):
        raise ValueError(f"--mismatch-out must name a file, not {args.mismatch_out!r}")
    enumeration_count(args.exhaustive_max, args.exhaustive_max)
    sys.stdout.flush()  # so nothing buffered before the fork is written twice
    sys.stderr.flush()
    reports = _run_shards(args, _cpus())
    for name, report in zip(("exhaustive", "random", "edges"), reports):
        print(f"[{name}]")
        sys.stdout.write(render_report(report))
        print(f"{name}: elapsed {report.elapsed:.3f}s", file=sys.stderr)
    if all(report.clean for report in reports):
        return 0
    if any(report.mismatches for report in reports):
        from .commands import _write_file  # only on a finding, after the forks

        _write_file(args.mismatch_out, render_mismatch_csv(*reports))
        print(f"mismatches written to {args.mismatch_out}", file=sys.stderr)
    return 1
