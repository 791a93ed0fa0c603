"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line directly on the terminal so a full run
reads as a checklist.  Expensive campaigns are shared between criteria
through session-scoped fixtures.  Budgets: the correctness campaigns must
stay under a minute each, the benchmark under five.
"""

import contextlib
import io
import itertools
import random
import time
from contextlib import contextmanager

import pytest

from squarelab.bench import BenchConfig, run_grid, trimmed_mean
from squarelab.cli import main
from squarelab.cubes import brute_force_cube, exists_cube_at_depth, max_cube
from squarelab.cubes import DepthFreqMatrix
from squarelab.grid import (
    BinaryMatrix,
    BinaryVolume,
    EDGE_SIZES,
    EdgeKind,
    GenSpec,
    EMPTY_MATRIX,
    generate_edge_case,
    generate_matrix,
    generate_volume,
)
from squarelab.histogram import (
    RectResult,
    build_histograms,
    largest_rect_in_histogram,
    maximal_rectangle,
)
from squarelab.squares import (
    AllocationAudit,
    brute_force_square,
    dp_full,
    dp_rows,
    freq_square,
    freq_square_traced,
)
from squarelab.verify import random_campaign, render_report

DENSITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] criterion {number} ({label}): PASS")


@pytest.fixture(scope="session")
def exhaustive_cli_run():
    """`verify --exhaustive-max 4` through the CLI, random/edge parts minimal."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--exhaustive-max", "4", "--random-count", "1",
                     "--max-dim", "1", "--seed", "0"])
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


@pytest.fixture(scope="session")
def random_campaign_runs():
    start = time.perf_counter()
    first = random_campaign(10000, 64, DENSITIES, seed=0)
    mid = time.perf_counter()
    second = random_campaign(10000, 64, DENSITIES, seed=0)
    end = time.perf_counter()
    return first, second, mid - start, end - mid


@pytest.fixture(scope="session")
def traced_sample():
    """100 seeded matrices with their traced per-row frequency snapshots."""
    rng = random.Random(2026)
    sample = []
    for _ in range(100):
        m = generate_matrix(GenSpec(rng.randint(1, 40), rng.randint(1, 40),
                                    rng.random(), rng.getrandbits(32)))
        result, snapshots = freq_square_traced(m)
        sample.append((m, result, snapshots))
    return sample


@pytest.fixture(scope="session")
def bench_records():
    config = BenchConfig(sizes=(500, 1000), densities=(0.1, 0.5, 0.9),
                         runs=30, trim_fraction=0.1, seed=0,
                         baseline="dp_full", warmup_runs=1)
    start = time.perf_counter()
    records = run_grid(config)
    elapsed = time.perf_counter() - start
    return records, elapsed


def column_runs_by_row(m):
    runs = [0] * m.cols
    out = []
    for i in range(m.rows):
        row = m.row(i)
        for j in range(m.cols):
            runs[j] = runs[j] + 1 if row[j] else 0
        out.append(tuple(runs))
    return out


def stack_rectangle(m):
    """The stack on every row's histogram, kept on a strictly larger area."""
    best = RectResult(0, 0, 0)
    for heights in build_histograms(m):
        candidate = largest_rect_in_histogram(heights)
        if candidate.area > best.area:
            best = candidate
    return best


def test_criterion_1_exhaustive_correctness(capsys, exhaustive_cli_run):
    code, out, _, elapsed = exhaustive_cli_run
    with criterion(capsys, 1, "exhaustive sweep to 4x4"):
        assert code == 0, f"verify exited {code}; stdout:\n{out}"
        assert "cases_run=74954" in out
        exhaustive_block = out.split("[random]")[0]
        assert "mismatches=0" in exhaustive_block
        assert "invariant_failures=0" in exhaustive_block
        assert elapsed <= 60.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_randomized_correctness(capsys, random_campaign_runs):
    first, second, t1, t2 = random_campaign_runs
    with criterion(capsys, 2, "10k random matrices to 64x64"):
        assert first.cases_run == 10000
        assert first.mismatches == []
        assert first.invariant_failures == []
        assert render_report(first) == render_report(second)
        assert t1 <= 60.0, f"campaign took {t1:.1f}s"
        assert t2 <= 60.0, f"rerun took {t2:.1f}s"


def test_criterion_3_freq_snapshot_invariant(capsys, traced_sample):
    with criterion(capsys, 3, "per-row frequency snapshots"):
        for m, _, snapshots in traced_sample:
            expected = column_runs_by_row(m)
            assert len(snapshots) == m.rows
            for i, snap in enumerate(snapshots):
                assert snap.freq == expected[i], (
                    f"row {i} of {m.rows}x{m.cols}")


def test_criterion_4_visit_and_space_instrumentation(
        capsys, exhaustive_cli_run, random_campaign_runs, traced_sample):
    _, out, _, _ = exhaustive_cli_run
    first, _, _, _ = random_campaign_runs
    with criterion(capsys, 4, "single-pass visits, O(cols) space"):
        # suites 1-2 record any visit-count violation as an invariant failure
        exhaustive_block = out.split("[random]")[0]
        assert "invariant_failures=0" in exhaustive_block
        assert first.invariant_failures == []
        # suite 3 sample, checked directly
        for m, result, _ in traced_sample:
            assert result.cells_visited == m.rows * m.cols
            assert dp_full(m).cells_visited == m.rows * m.cols
            assert dp_rows(m).cells_visited == m.rows * m.cols
        # auxiliary storage stays within c*cols, c <= 4, regardless of rows
        cols = 32
        peaks = {}
        for rows in (10, 1000):
            freq_audit = AllocationAudit()
            rows_audit = AllocationAudit()
            m = generate_matrix(GenSpec(rows, cols, 0.5, 77))
            freq_square(m, audit=freq_audit)
            dp_rows(m, audit=rows_audit)
            assert freq_audit.peak_elements <= 4 * cols
            assert rows_audit.peak_elements <= 4 * cols
            peaks[rows] = (freq_audit.peak_elements, rows_audit.peak_elements)
        assert peaks[10] == peaks[1000], "aux space must not grow with rows"


def test_criterion_5_edge_case_values(capsys):
    with criterion(capsys, 5, "edge-case results"):
        # largest square area of each edge kind at size n
        square_area = {
            EdgeKind.ALL_ZEROS: lambda n: 0,
            EdgeKind.ALL_ONES: lambda n: n * n,
            EdgeKind.SINGLE_ROW: lambda n: 1,
            EdgeKind.SINGLE_COL: lambda n: 1,
        }
        cases = [(generate_edge_case(kind, n), square_area[kind](n))
                 for kind, n in EDGE_SIZES.items()]
        cases.append((EMPTY_MATRIX, 0))
        assert [area for _, area in cases] == [0, 10000, 1, 1, 0]
        for m, want_area in cases:
            freq = freq_square(m)
            full = dp_full(m)
            assert freq.area == want_area, f"{m.rows}x{m.cols}"
            assert freq.area == full.area


def test_criterion_6_benchmark_trends(capsys, bench_records):
    records, elapsed = bench_records
    with criterion(capsys, 6, "benchmark trends at 500/1000"):
        assert elapsed <= 300.0, f"benchmark took {elapsed:.1f}s"
        assert all(r.same_result for r in records)
        by_cell = {(r.size, r.density): r for r in records}
        for size in (500, 1000):
            sparse = by_cell[(size, 0.1)].speedup
            dense = by_cell[(size, 0.9)].speedup
            assert dense >= sparse, (
                f"size {size}: speedup {dense:.2f} at 0.9 "
                f"< {sparse:.2f} at 0.1")
        growth = (by_cell[(1000, 0.5)].candidate_trimmed_mean
                  / by_cell[(500, 0.5)].candidate_trimmed_mean)
        assert 2.5 <= growth <= 6.0, f"500->1000 growth factor {growth:.2f}"


# printed (std_ms, user_ms, speedup) rows whose quotient is representable
# at +/-0.01 given three-decimal rounding; rows below 100x100 and the
# single-row/col edge rows are not (their printed operands are too coarse)
PUBLISHED_GRID_ROWS = [
    (0.026, 0.018, 1.44),
    (0.085, 0.023, 3.70),
    (0.118, 0.091, 1.29),
    (0.259, 0.138, 1.88),
    (0.338, 0.195, 1.73),
    (0.374, 0.159, 2.36),
    (0.418, 0.145, 2.89),
    (3.046, 2.326, 1.31),
    (5.803, 3.447, 1.68),
    (8.035, 4.098, 1.96),
    (8.705, 3.562, 2.44),
    (8.627, 3.540, 2.44),
    (10.368, 7.841, 1.32),
    (20.167, 11.716, 1.72),
    (29.682, 14.832, 2.00),
    (33.620, 13.718, 2.45),
    (34.402, 14.029, 2.45),
]

PUBLISHED_EDGE_ROWS = [
    (0.059, 0.059, 1.00),
    (0.315, 0.079, 3.99),
]


def test_criterion_7_speedup_arithmetic(capsys):
    with criterion(capsys, 7, "published speedup arithmetic"):
        for std_ms, user_ms, printed in PUBLISHED_GRID_ROWS + PUBLISHED_EDGE_ROWS:
            got = std_ms / user_ms
            assert abs(got - printed) <= 0.01 + 1e-9, (
                f"{std_ms}/{user_ms} = {got:.4f}, printed {printed}")
        # trim semantics behind those means: floor(30 * 0.1) = 3 per tail
        samples = [float(x) for x in range(30)]
        samples[0], samples[-1] = -1000.0, 1000.0
        assert trimmed_mean(samples, 0.1) == sum(range(3, 27)) / 24


def test_criterion_8_histogram_baseline(capsys):
    with criterion(capsys, 8, "histogram rectangle baseline"):
        for length in range(1, 9):
            for heights in itertools.product(range(5), repeat=length):
                best = 0
                for left in range(length):
                    low = heights[left]
                    for right in range(left, length):
                        low = min(low, heights[right])
                        best = max(best, low * (right - left + 1))
                got = largest_rect_in_histogram(list(heights))
                assert got.area == best, f"heights={heights}"
                assert got.area == got.height * got.width
        rng = random.Random(8)
        for _ in range(1000):
            m = generate_matrix(GenSpec(rng.randint(1, 24), rng.randint(1, 24),
                                        rng.random(), rng.getrandbits(32)))
            side = freq_square(m).side
            got = maximal_rectangle(m)
            assert got.area >= side * side
            assert got == stack_rectangle(m)


def test_criterion_9_cube_extension(capsys):
    with criterion(capsys, 9, "cube detection"):
        start = time.perf_counter()
        known = DepthFreqMatrix.from_rows([[3, 3, 1], [2, 3, 1], [3, 2, 0]])
        assert exists_cube_at_depth(known, 2) is True
        assert exists_cube_at_depth(known, 3) is False
        for bits in itertools.product((0, 1), repeat=8):
            layers = [
                BinaryMatrix.from_rows([[bits[0], bits[1]], [bits[2], bits[3]]]),
                BinaryMatrix.from_rows([[bits[4], bits[5]], [bits[6], bits[7]]]),
            ]
            v = BinaryVolume.from_layers(layers)
            assert max_cube(v).side == brute_force_cube(v).side
        rng = random.Random(9)
        for _ in range(1000):
            spec = GenSpec(rng.randint(1, 8), rng.randint(1, 8), rng.random(),
                           rng.getrandbits(32), depth=rng.randint(1, 8))
            v = generate_volume(spec)
            assert max_cube(v).side == brute_force_cube(v).side
        elapsed = time.perf_counter() - start
        assert elapsed <= 60.0, f"cube suite took {elapsed:.1f}s"
