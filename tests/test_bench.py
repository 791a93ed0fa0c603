import pytest

from squarelab.bench import (
    BenchConfig,
    EmptyAfterTrimError,
    NoRecordsError,
    TABLES,
    PlotTarget,
    plot_selection,
    render_table,
    run_edge_cases,
    run_grid,
    trimmed_mean,
)

FAST = BenchConfig(sizes=(8, 16), densities=(0.2, 0.8), runs=4,
                   trim_fraction=0.1, seed=5, warmup_runs=1)


def _plot(records, target, size=500):
    return render_table(plot_selection(records, target, size), TABLES[target],
                        markdown=False)


def test_trimmed_mean_plain_mean_when_no_trim():
    assert trimmed_mean([1.0, 2.0, 3.0], 0.0) == 2.0


def test_trimmed_mean_drops_tails():
    # floor(10 * 0.1) = 1 from each end
    samples = [100.0] + [float(x) for x in range(2, 10)] + [-50.0]
    assert trimmed_mean(samples, 0.1) == sum(range(2, 10)) / 8


def test_trimmed_mean_known_value():
    assert trimmed_mean([float(x) for x in range(1, 11)], 0.1) == 5.5


def test_trimmed_mean_single_sample():
    assert trimmed_mean([7.25], 0.0) == 7.25


def test_trimmed_mean_empty_after_trim():
    with pytest.raises(EmptyAfterTrimError):
        trimmed_mean([], 0.1)
    with pytest.raises(EmptyAfterTrimError):
        trimmed_mean([1.0, 2.0], 0.5)


def test_trimmed_mean_rejects_bad_fraction():
    with pytest.raises(ValueError):
        trimmed_mean([1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        trimmed_mean([1.0, 2.0], -0.1)


def test_trimmed_mean_permutation_invariant_and_bounded():
    import random as stdlib_random
    rng = stdlib_random.Random(12)
    for _ in range(20):
        samples = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 20))]
        shuffled = samples[:]
        rng.shuffle(shuffled)
        mean = trimmed_mean(samples, 0.1)
        assert mean == trimmed_mean(shuffled, 0.1)
        assert min(samples) <= mean <= max(samples)


def test_published_ratio_rounds_to_published_speedup():
    assert round(8.035 / 4.098, 2) == 1.96


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(runs=0)
    with pytest.raises(ValueError):
        BenchConfig(trim_fraction=0.5)
    with pytest.raises(ValueError):
        BenchConfig(baseline="quicksort")
    with pytest.raises(ValueError):
        BenchConfig(sizes=(0,))
    with pytest.raises(ValueError):
        BenchConfig(densities=(1.2,))
    with pytest.raises(ValueError):
        BenchConfig(warmup_runs=-1)


def test_run_grid_single_cell_single_record():
    records = run_grid(BenchConfig(sizes=(10,), densities=(0.5,), runs=1,
                                   trim_fraction=0.0, warmup_runs=0))
    assert len(records) == 1


def test_run_grid_record_shape():
    records = run_grid(FAST)
    assert len(records) == 4
    for r in records:
        assert len(r.baseline_times) == FAST.runs
        assert len(r.candidate_times) == FAST.runs
        assert r.case is None
        assert r.same_result is True
        assert r.speedup == pytest.approx(
            r.baseline_trimmed_mean / r.candidate_trimmed_mean)


def test_run_grid_covers_all_cells():
    records = run_grid(FAST)
    cells = {(r.size, r.density) for r in records}
    assert cells == {(8, 0.2), (8, 0.8), (16, 0.2), (16, 0.8)}


def test_run_edge_cases_labels():
    records = run_edge_cases(BenchConfig(runs=2, warmup_runs=0))
    assert [r.case for r in records] == [
        "all_zeros", "all_ones", "single_row", "single_col"]
    assert all(r.same_result for r in records)


def test_grid_csv_schema():
    records = run_grid(FAST)
    text = render_table(records, TABLES["grid", "csv"], markdown=False)
    lines = text.splitlines()
    assert lines[0] == "size,density,std_ms,user_ms,speedup,same_result"
    assert len(lines) == 5
    assert lines[1].startswith("8,0.2,")
    assert lines[1].endswith(",true")


def test_edge_csv_schema():
    records = run_edge_cases(BenchConfig(runs=2, warmup_runs=0))
    lines = render_table(records, TABLES["edge", "csv"], markdown=False).splitlines()
    assert lines[0] == "case,std_ms,user_ms,speedup,same_result"
    assert len(lines) == 5


def test_grid_markdown_table():
    records = run_grid(FAST)
    text = render_table(records, TABLES["grid", "md"], markdown=True)
    lines = text.splitlines()
    assert lines[0].startswith("| Size | Density |")
    assert len(lines) == 2 + 4
    assert "| 8x8 | 0.20 |" in lines[2]
    assert lines[2].rstrip().endswith("| Yes |")


def test_edge_markdown_mentions_skipped_empty():
    records = run_edge_cases(BenchConfig(runs=2, warmup_runs=0))
    text = render_table(records, TABLES["edge", "md"], markdown=True)
    assert "Skipped (empty matrix)" in text
    assert "All 0s" in text and "All 1s" in text
    assert "Single Row" in text and "Single Col" in text


def test_plot_speedup_vs_density():
    records = run_grid(FAST)
    text = _plot(records, PlotTarget.SPEEDUP_VS_DENSITY)
    lines = text.splitlines()
    assert lines[0] == "size,density,speedup"
    assert len(lines) == 5


def test_plot_time_at_size_filters():
    records = run_grid(FAST)
    text = _plot(records, PlotTarget.TIME_VS_DENSITY_AT_SIZE, size=16)
    lines = text.splitlines()
    assert lines[0] == "density,std_ms,user_ms"
    assert len(lines) == 3


def test_plot_time_at_missing_size():
    records = run_grid(FAST)
    with pytest.raises(NoRecordsError):
        plot_selection(records, PlotTarget.TIME_VS_DENSITY_AT_SIZE, size=999)


def test_plot_edge_speedups():
    records = run_edge_cases(BenchConfig(runs=2, warmup_runs=0))
    lines = _plot(records, PlotTarget.EDGE_SPEEDUPS).splitlines()
    assert lines[0] == "case,speedup"
    assert len(lines) == 5


def test_plot_requires_records():
    with pytest.raises(NoRecordsError):
        plot_selection([], PlotTarget.SPEEDUP_VS_DENSITY)


def test_baseline_choice_changes_timings_not_results():
    rows_cfg = BenchConfig(sizes=(12,), densities=(0.5,), runs=3,
                           baseline="dp_rows", warmup_runs=0)
    full_cfg = BenchConfig(sizes=(12,), densities=(0.5,), runs=3,
                           baseline="dp_full", warmup_runs=0)
    a = run_grid(rows_cfg)[0]
    b = run_grid(full_cfg)[0]
    assert a.same_result and b.same_result
