"""Benchmark harness comparing the frequency solver against the DP baselines.

Each grid cell generates one seeded matrix, reused by both algorithms so the
comparison isolates the algorithm rather than the instance.  Timing uses the
monotonic wall clock, runs strictly sequentially, excludes generation, and
reports trimmed means.  Tables and plot series go out as CSV or markdown,
rendered by one function from the column specs in TABLES.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Callable

from .core import PlotTarget
from .grid import (
    EDGE_SIZES,
    BinaryMatrix,
    EdgeKind,
    GenSpec,
    generate_edge_case,
    generate_matrix,
)
from .squares import BASELINES, freq_square

EDGE_LABELS: dict[EdgeKind, str] = {
    EdgeKind.ALL_ZEROS: "All 0s",
    EdgeKind.ALL_ONES: "All 1s",
    EdgeKind.SINGLE_ROW: "Single Row",
    EdgeKind.SINGLE_COL: "Single Col",
}


# the size a TIME_VS_DENSITY_AT_SIZE series keeps unless told otherwise
PLOT_SIZE = 500


class EmptyAfterTrimError(ValueError):
    """Trimming would discard every sample."""


class NoRecordsError(ValueError):
    """A plot series selected no records."""


@dataclass(frozen=True)
class BenchConfig:
    sizes: tuple[int, ...] = (10, 50, 100, 500, 1000)
    densities: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    runs: int = 30
    trim_fraction: float = 0.1
    seed: int = 0
    baseline: str = "dp_full"
    warmup_runs: int = 1

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if not 0.0 <= self.trim_fraction < 0.4:
            raise ValueError("trim_fraction must be in [0, 0.4)")
        if self.baseline not in BASELINES:
            raise ValueError(f"unknown baseline {self.baseline!r}")
        if any(s < 1 for s in self.sizes):
            raise ValueError("sizes must be positive")
        if any(not 0.0 <= d <= 1.0 for d in self.densities):
            raise ValueError("densities must lie in [0, 1]")
        if self.warmup_runs < 0:
            raise ValueError("warmup_runs must be nonnegative")


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark row.  Times are milliseconds; candidate is the
    frequency solver, baseline the configured DP.  `case` labels edge-case
    rows and is None for grid rows."""

    size: int
    density: float
    baseline_times: tuple[float, ...]
    candidate_times: tuple[float, ...]
    baseline_trimmed_mean: float
    candidate_trimmed_mean: float
    speedup: float
    same_result: bool
    case: str | None = None


def trimmed_mean(samples: list[float] | tuple[float, ...], trim_fraction: float) -> float:
    """Mean after dropping floor(len * trim_fraction) samples from each tail."""
    if not 0.0 <= trim_fraction < 1.0:
        raise ValueError("trim_fraction must be in [0, 1)")
    n = len(samples)
    drop = int(n * trim_fraction)
    kept = sorted(samples)[drop:n - drop]
    if not kept:
        raise EmptyAfterTrimError(f"trimming {drop} per tail empties {n} samples")
    return sum(kept) / len(kept)


def _bench_matrix(
    matrix: BinaryMatrix, config: BenchConfig, size: int, density: float,
    case: str | None = None,
) -> BenchRecord:
    baseline_fn = BASELINES[config.baseline]
    for _ in range(config.warmup_runs):
        baseline_fn(matrix)
        freq_square(matrix)
    baseline_result = baseline_fn(matrix)
    candidate_result = freq_square(matrix)
    # alternate the two solvers so a drift in host speed hits both alike
    baseline_times: list[float] = []
    candidate_times: list[float] = []
    for _ in range(config.runs):
        for fn, times in ((baseline_fn, baseline_times), (freq_square, candidate_times)):
            t0 = time.perf_counter()
            fn(matrix)
            t1 = time.perf_counter()
            times.append((t1 - t0) * 1000.0)
    baseline_mean = trimmed_mean(baseline_times, config.trim_fraction)
    candidate_mean = trimmed_mean(candidate_times, config.trim_fraction)
    speedup = baseline_mean / candidate_mean if candidate_mean else float("inf")
    return BenchRecord(
        size=size,
        density=density,
        baseline_times=tuple(baseline_times),
        candidate_times=tuple(candidate_times),
        baseline_trimmed_mean=baseline_mean,
        candidate_trimmed_mean=candidate_mean,
        speedup=speedup,
        same_result=baseline_result.area == candidate_result.area,
        case=case,
    )


def run_grid(config: BenchConfig) -> list[BenchRecord]:
    """Benchmark every (size, density) cell on one seeded matrix each."""
    records = []
    for size in config.sizes:
        for density in config.densities:
            matrix = generate_matrix(GenSpec(size, size, density, config.seed))
            records.append(_bench_matrix(matrix, config, size, density))
    return records


def run_edge_cases(config: BenchConfig) -> list[BenchRecord]:
    """Benchmark the four constant edge cases; the empty matrix is skipped."""
    records = []
    for kind, n in EDGE_SIZES.items():
        matrix = generate_edge_case(kind, n)
        density = 0.0 if kind is EdgeKind.ALL_ZEROS else 1.0
        records.append(_bench_matrix(matrix, config, n, density, case=kind.value))
    return records


# one column of an output: its header and the text of one record's cell
Column = tuple[str, Callable[[BenchRecord], str]]

_SIZE = ("size", lambda r: f"{r.size}")
_DENSITY = ("density", lambda r: f"{r.density:g}")
_STD_MS = ("std_ms", lambda r: f"{r.baseline_trimmed_mean:.6f}")
_USER_MS = ("user_ms", lambda r: f"{r.candidate_trimmed_mean:.6f}")
_SPEEDUP = ("speedup", lambda r: f"{r.speedup:.4f}")
_SAME = ("same_result", lambda r: str(r.same_result).lower())
_CASE = ("case", lambda r: f"{r.case}")

_MD_STATS = (
    ("Std Time (ms)", lambda r: f"{r.baseline_trimmed_mean:.3f}"),
    ("User Time (ms)", lambda r: f"{r.candidate_trimmed_mean:.3f}"),
    ("Speedup", lambda r: f"{r.speedup:.2f}x"),
    ("Same Result?", lambda r: "Yes" if r.same_result else "No"),
)

_EDGE_MD = (
    ("Case", lambda r: EDGE_LABELS[EdgeKind(r.case)] if r.case else ""),
    *_MD_STATS,
)

# the empty matrix is not benchmarked; the edge markdown table says so
_SKIPPED_EMPTY_ROW = "| Empty | Skipped (empty matrix) | - | - | - |"

# each output's columns: (grid|edge, csv|md) tables and the plot series
TABLES: dict[tuple[str, str] | PlotTarget, tuple[Column, ...]] = {
    ("grid", "csv"): (_SIZE, _DENSITY, _STD_MS, _USER_MS, _SPEEDUP, _SAME),
    ("edge", "csv"): (_CASE, _STD_MS, _USER_MS, _SPEEDUP, _SAME),
    ("grid", "md"): (
        ("Size", lambda r: f"{r.size}x{r.size}"),
        ("Density", lambda r: f"{r.density:.2f}"),
        *_MD_STATS,
    ),
    ("edge", "md"): _EDGE_MD,
    PlotTarget.SPEEDUP_VS_DENSITY: (_SIZE, _DENSITY, _SPEEDUP),
    PlotTarget.TIME_VS_DENSITY_AT_SIZE: (_DENSITY, _STD_MS, _USER_MS),
    PlotTarget.EDGE_SPEEDUPS: (_CASE, _SPEEDUP),
}


def plot_selection(
    records: list[BenchRecord], target: PlotTarget, size: int = PLOT_SIZE
) -> list[BenchRecord]:
    """The records a plot series shows: TIME_VS_DENSITY_AT_SIZE keeps those
    at `size`, the other targets keep all.  Raises NoRecordsError when none
    are left."""
    at_size = target is PlotTarget.TIME_VS_DENSITY_AT_SIZE
    if at_size:
        records = [r for r in records if r.size == size]
    if not records:
        raise NoRecordsError(f"no records at size {size}" if at_size else "no records to plot")
    return records


def render_table(
    records: list[BenchRecord], columns: tuple[Column, ...], markdown: bool
) -> str:
    """CSV, or a markdown table, with a header and one row per record.

    The markdown rule line gives each header len(header) + 2 dashes.
    """
    headers = [h for h, _ in columns]
    rows = [[fmt(r) for _, fmt in columns] for r in records]
    if markdown:
        lines = ["| " + " | ".join(headers) + " |",
                 "|" + "|".join("-" * (len(h) + 2) for h in headers) + "|"]
        if columns is _EDGE_MD:
            lines.append(_SKIPPED_EMPTY_ROW)
        lines += ["| " + " | ".join(cells) + " |" for cells in rows]
    else:
        lines = [",".join(cells) for cells in (headers, *rows)]
    return "\n".join(lines) + "\n"


def run_bench(args: argparse.Namespace) -> int:
    """`squarelab bench`: the options left unset take BenchConfig's defaults
    and PLOT_SIZE; the table or plot series goes to stdout."""
    from .cli import BASELINE_FLAGS

    options = {
        "sizes": args.sizes,
        "densities": args.densities,
        "runs": args.runs,
        "trim_fraction": args.trim,
        "seed": args.seed,
        "baseline": BASELINE_FLAGS.get(args.baseline),
        "warmup_runs": args.warmup,
    }
    config = BenchConfig(**{k: v for k, v in options.items() if v is not None})
    target = PlotTarget(args.plot) if args.plot else None
    edge = args.edge_cases or target is PlotTarget.EDGE_SPEEDUPS
    records = run_edge_cases(config) if edge else run_grid(config)
    if target is None:
        key = ("edge" if edge else "grid", args.format)
    else:
        size = PLOT_SIZE if args.plot_size is None else args.plot_size
        key, records = target, plot_selection(records, target, size)
    markdown = target is None and args.format == "md"
    sys.stdout.write(render_table(records, TABLES[key], markdown))
    return 0
