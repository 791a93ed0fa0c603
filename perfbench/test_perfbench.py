"""Tests of the benchmark's own code: references, output checks, spans, verdicts.

    python3 -m pytest perfbench
"""

import random
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from squarelab import (
    BinaryMatrix,
    BinaryVolume,
    GenSpec,
    brute_force_cube,
    brute_force_square,
    dp_rows,
    generate_matrix,
    generate_volume,
)
from squarelab.verify import enumeration_count

import compare
import run
import spans
import workloads as wl


def brute_rect_area(m: BinaryMatrix) -> int:
    """Every (top, left, bottom, right) window, checked cell by cell."""
    best = 0
    for top in range(m.rows):
        for left in range(m.cols):
            for bottom in range(top, m.rows):
                for right in range(left, m.cols):
                    if all(m.get(i, j) for i in range(top, bottom + 1)
                           for j in range(left, right + 1)):
                        best = max(best, (bottom - top + 1) * (right - left + 1))
    return best


def small_matrices(count=300, seed=7):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0.3, 0.6, 0.8, 0.95, 1.0))
        yield generate_matrix(GenSpec(rows, cols, density, rng.getrandbits(32)))


def test_rect_reference_matches_brute_force():
    for m in small_matrices():
        assert wl.rect_area_reference(m) == brute_rect_area(m), m.to_rows()


def test_square_reference_matches_brute_force():
    for m in small_matrices():
        assert dp_rows(m).side == brute_force_square(m).side, m.to_rows()


def test_cube_reference_matches_brute_force():
    rng = random.Random(11)
    for _ in range(150):
        shape = [rng.randint(1, 6) for _ in range(3)]
        density = rng.choice((0.5, 0.8, 0.9, 1.0))
        v = generate_volume(GenSpec(shape[1], shape[2], density,
                                    rng.getrandbits(32), depth=shape[0]))
        assert wl.cube_side_reference(v) == brute_force_cube(v).side, shape


def test_references_on_constant_grids():
    ones = BinaryMatrix(3, 5, b"\x01" * 15)
    assert wl.rect_area_reference(ones) == 15
    assert wl.rect_area_reference(BinaryMatrix(2, 2, bytes(4))) == 0
    assert wl.cube_side_reference(BinaryVolume(4, 3, 5, b"\x01" * 60)) == 3


def _input(**expected):
    return wl.Input("x", [], 0, 0, 0, expected=expected)


def test_check_output_solve_rect_cube():
    assert wl.check_output("solve", _input(side=3), "side=3 area=9\n") is None
    assert wl.check_output("solve", _input(side=3), "side=3 area=8\n")
    assert wl.check_output("solve", _input(side=3), "garbage\n")
    rect = _input(area=12, rows=10, cols=10)
    assert wl.check_output("rect", rect, "area=12 h=3 w=4\n") is None
    assert wl.check_output("rect", rect, "area=12 h=3 w=5\n")
    assert wl.check_output("rect", rect, "area=10 h=2 w=5\n")
    assert wl.check_output("rect", _input(area=12, rows=2, cols=10),
                           "area=12 h=3 w=4\n")
    assert wl.check_output("cube", _input(cube_side=4), "side=4\n") is None
    assert wl.check_output("cube", _input(cube_side=4), "side=5\n")


def test_check_output_verify():
    cases = {"exhaustive": 2, "random": 3, "edges": 1}
    inp = _input(cases=cases)
    good = "".join(f"[{s}]\ncases_run={n}\nmismatches=0\ninvariant_failures=0\n"
                   for s, n in cases.items())
    assert wl.check_output("verify", inp, good) is None
    assert wl.check_output("verify", inp, good.replace("cases_run=3", "cases_run=4"))
    assert wl.check_output("verify", inp, good.replace("mismatches=0", "mismatches=1", 1))
    assert wl.check_output("verify", inp, good.split("[edges]")[0])


def test_verify_setup_counts_cases_and_cells():
    st = wl.setup("verify", 0, Path("."), reps=1)
    assert len(st.inputs) == wl.VERIFY_SEEDS_PER_RUN
    n = wl.VERIFY_EXHAUSTIVE_MAX
    for inp in st.inputs:
        cases = inp.expected["cases"]
        assert cases["exhaustive"] == enumeration_count(n, n)
        assert cases["random"] == wl.VERIFY_RANDOM_COUNT
        assert cases["edges"] == 5
        # the random campaign's matrices are at most max_dim^2 cells each
        exhaustive_cells = sum(r * c * 2 ** (r * c) for r in range(1, n + 1)
                               for c in range(1, n + 1))
        edge_cells = 2 * 100 * 100 + 2 * 1000
        random_cells = inp.cells - exhaustive_cells - edge_cells
        assert 0 < random_cells <= wl.VERIFY_RANDOM_COUNT * wl.VERIFY_MAX_DIM ** 2
    again = wl.setup("verify", 0, Path("."), reps=1)
    assert [i.cells for i in again.inputs] == [i.cells for i in st.inputs]


def test_file_setup_is_deterministic(tmp_path):
    a = wl.setup("volume", 3, tmp_path, reps=1)
    texts = [inp.path.read_text() for inp in a.inputs]
    b = wl.setup("volume", 3, tmp_path, reps=2)
    assert [inp.path.read_text() for inp in b.inputs] == texts
    assert len(b.seconds) == 2
    c = wl.setup("volume", 4, tmp_path, reps=1)
    assert [inp.path.read_text() for inp in c.inputs] != texts


def test_tail_is_relative_to_each_inputs_median():
    # input 0 costs 100 ms and input 1 costs 300 ms; both spread by the same
    # shares, so the tail is the same share above the mean of the medians
    shares = [0.9, 0.95, 1.0, 1.0, 1.05, 1.2] * 8
    # the calibration loop ran at half the reference speed, so every time
    # reads as half of what was measured
    cal = 2 * run.CAL_REF_MS
    records = [{"input": i, "warmup": False, "wall_ms": base * x, "rss_mb": 20.0,
                "error": None, "cal_ms": cal + (-1) ** k}
               for k, x in enumerate(shares) for i, base in enumerate((100.0, 300.0))]
    inputs = [wl.Input("a", [], 10, 0, 0), wl.Input("b", [], 30, 0, 0)]
    metrics, summary = run.end_to_end(inputs, records, [0.5, 0.4, 0.6])
    ratio = statistics.quantiles(shares, n=100)[run.TAIL_PERCENTILE - 1]
    assert summary["as_measured"]["wall_ms_p50"] == pytest.approx(200.0)
    assert metrics["wall_ms_p50"][0] == pytest.approx(100.0)
    assert metrics["wall_ms_tail"][0] == pytest.approx(100.0 * ratio)
    cells_per_s = 40 * len(shares) / (sum(r["wall_ms"] for r in records) / 1e3)
    assert metrics["cells_per_s"][0] == pytest.approx(2 * cells_per_s)
    assert metrics["setup_s"][0] == pytest.approx(0.25)
    assert summary["tail"]["beyond"] >= 10 and summary["error_rate"] == 0


def test_self_time_subtracts_direct_children():
    tr = spans.Tracer()
    with tr.operation("op"):
        with tr.span("a"):
            with tr.span("b"):
                pass
        with tr.span("c"):
            pass
    own = spans.self_times(tr.spans)
    durations = [end - start for _, start, end, _, _ in tr.spans]
    assert own[0] == durations[0] - durations[1] - durations[3]
    assert own[1] == durations[1] - durations[2]
    assert own[2] == durations[2] and own[3] == durations[3]
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 0]
    assert {s[4] for s in tr.spans} == {0}


def test_self_time_on_fixed_spans():
    fixed = [["root", 0, 100, -1, 0], ["a", 10, 40, 0, 0], ["b", 15, 25, 1, 0],
             ["c", 50, 90, 0, 0]]
    assert spans.self_times(fixed) == [30, 20, 10, 40]
    assert spans.by_name(fixed)["a"] == {"count": 1, "total_ms": 30e-6, "self_ms": 20e-6}


@pytest.mark.parametrize("better, parent, change, expected", [
    ("lower", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [80, 81, 79, 80, 82, 78, 80, 81, 79, 80], "better"),
    ("lower", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [130, 131, 129, 130, 132, 128, 130, 131, 129, 130], "worse"),
    ("lower", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [101, 100, 100, 99, 101, 99, 100, 100, 100, 101], "unchanged"),
    ("lower", [100, 160, 70, 130, 90, 150, 60, 120, 80, 140],
     [130, 131, 129, 130, 132, 128, 130, 131, 129, 130], "unresolved"),
    ("higher", [100] * 5, [150] * 5, "unresolved"),  # a gain needs 10 pairs
    ("higher", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [80, 81, 79, 80, 82, 78, 80, 81, 79, 80], "worse"),
])
def test_verdicts(better, parent, change, expected):
    assert compare.verdict(parent, change, better, 0.1)["verdict"] == expected


def test_compare_pairs_by_seed_and_counts_failures():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "t", "unit": "ms", "better": "lower", "bound": 0.1}]}

    def rec(seed, value, failed=0):
        return {"workload": "w", "seed": seed, "trace": 0,
                "result": {"correct": not failed, "attempted": 10, "failed": failed,
                           "metrics": {"t": {"value": value, "unit": "ms"}}}}

    parent = [rec(s, 100 + s % 3) for s in range(10)]
    change = [rec(s, 70 + s % 3, failed=1 if s == 0 else 0) for s in reversed(range(10))]
    rows = compare.compare(parent, change, spec)
    assert rows[0]["verdict"] == "better" and rows[0]["pairs"] == 10
    assert rows[1]["metric"] == "error_rate" and rows[1]["verdict"] == "worse"
    assert "better" in compare.render(rows)
