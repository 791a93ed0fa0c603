"""Benchmark harness comparing the frequency solver against the DP baselines.

Each grid cell generates one seeded matrix, reused by both algorithms so the
comparison isolates the algorithm rather than the instance.  Timing uses the
monotonic wall clock, runs strictly sequentially, excludes generation, and
reports trimmed means.  Tables and plot data go out as CSV or markdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .grid import EDGE_SIZES, BinaryMatrix, EdgeKind, GenSpec, generate_edge_case, generate_matrix
from .squares import SquareResult, dp_full, dp_rows, freq_square

BASELINES: dict[str, Callable[[BinaryMatrix], SquareResult]] = {
    "dp_full": dp_full,
    "dp_rows": dp_rows,
}

EDGE_LABELS: dict[EdgeKind, str] = {
    EdgeKind.ALL_ZEROS: "All 0s",
    EdgeKind.ALL_ONES: "All 1s",
    EdgeKind.SINGLE_ROW: "Single Row",
    EdgeKind.SINGLE_COL: "Single Col",
}


class EmptyAfterTrimError(ValueError):
    """Trimming would discard every sample."""


class NoRecordsError(ValueError):
    """Plot emission needs at least one record."""


class PlotTarget(str, Enum):
    SPEEDUP_VS_DENSITY = "speedup_vs_density"
    TIME_VS_DENSITY_AT_SIZE = "time_vs_density_at_size"
    EDGE_SPEEDUPS = "edge_speedups"


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
        if self.runs - 2 * int(self.runs * self.trim_fraction) < 1:
            raise ValueError("trimming would leave no samples")
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


def _time_runs(
    fn: Callable[[BinaryMatrix], SquareResult], matrix: BinaryMatrix, runs: int
) -> tuple[float, ...]:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn(matrix)
        t1 = time.perf_counter()
        times.append((t1 - t0) * 1000.0)
    return tuple(times)


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
    baseline_times = _time_runs(baseline_fn, matrix, config.runs)
    candidate_times = _time_runs(freq_square, matrix, config.runs)
    baseline_mean = trimmed_mean(baseline_times, config.trim_fraction)
    candidate_mean = trimmed_mean(candidate_times, config.trim_fraction)
    speedup = baseline_mean / candidate_mean if candidate_mean else float("inf")
    return BenchRecord(
        size=size,
        density=density,
        baseline_times=baseline_times,
        candidate_times=candidate_times,
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


def _fmt_density(d: float) -> str:
    return f"{d:g}"


def render_grid_csv(records: list[BenchRecord]) -> str:
    lines = ["size,density,std_ms,user_ms,speedup,same_result"]
    for r in records:
        lines.append(
            f"{r.size},{_fmt_density(r.density)},"
            f"{r.baseline_trimmed_mean:.6f},{r.candidate_trimmed_mean:.6f},"
            f"{r.speedup:.4f},{str(r.same_result).lower()}"
        )
    return "\n".join(lines) + "\n"


def render_edge_csv(records: list[BenchRecord]) -> str:
    lines = ["case,std_ms,user_ms,speedup,same_result"]
    for r in records:
        lines.append(
            f"{r.case},{r.baseline_trimmed_mean:.6f},"
            f"{r.candidate_trimmed_mean:.6f},{r.speedup:.4f},"
            f"{str(r.same_result).lower()}"
        )
    return "\n".join(lines) + "\n"


def render_grid_md(records: list[BenchRecord]) -> str:
    lines = [
        "| Size | Density | Std Time (ms) | User Time (ms) | Speedup | Same Result? |",
        "|------|---------|---------------|----------------|---------|--------------|",
    ]
    for r in records:
        lines.append(
            f"| {r.size}x{r.size} | {r.density:.2f} "
            f"| {r.baseline_trimmed_mean:.3f} | {r.candidate_trimmed_mean:.3f} "
            f"| {r.speedup:.2f}x | {'Yes' if r.same_result else 'No'} |"
        )
    return "\n".join(lines) + "\n"


def render_edge_md(records: list[BenchRecord]) -> str:
    lines = [
        "| Case | Std Time (ms) | User Time (ms) | Speedup | Same Result? |",
        "|------|---------------|----------------|---------|--------------|",
        "| Empty | Skipped (empty matrix) | - | - | - |",
    ]
    for r in records:
        label = EDGE_LABELS.get(EdgeKind(r.case), r.case) if r.case else ""
        lines.append(
            f"| {label} | {r.baseline_trimmed_mean:.3f} "
            f"| {r.candidate_trimmed_mean:.3f} | {r.speedup:.2f}x "
            f"| {'Yes' if r.same_result else 'No'} |"
        )
    return "\n".join(lines) + "\n"


def emit_plot_data(
    records: list[BenchRecord],
    target: PlotTarget,
    size: int | None = None,
) -> str:
    """Tidy CSV series for plotting: one header row plus one row per record.

    TIME_VS_DENSITY_AT_SIZE filters to the requested size (default 500).
    """
    if not records:
        raise NoRecordsError("no records to plot")
    if target is PlotTarget.SPEEDUP_VS_DENSITY:
        lines = ["size,density,speedup"]
        for r in records:
            lines.append(f"{r.size},{_fmt_density(r.density)},{r.speedup:.4f}")
    elif target is PlotTarget.TIME_VS_DENSITY_AT_SIZE:
        wanted = 500 if size is None else size
        subset = [r for r in records if r.size == wanted]
        if not subset:
            raise NoRecordsError(f"no records at size {wanted}")
        lines = ["density,std_ms,user_ms"]
        for r in subset:
            lines.append(
                f"{_fmt_density(r.density)},"
                f"{r.baseline_trimmed_mean:.6f},{r.candidate_trimmed_mean:.6f}"
            )
    elif target is PlotTarget.EDGE_SPEEDUPS:
        lines = ["case,speedup"]
        for r in records:
            lines.append(f"{r.case},{r.speedup:.4f}")
    else:
        raise ValueError(f"unknown plot target {target!r}")
    return "\n".join(lines) + "\n"
