import pytest

from squarelab.core import SquareResult
from squarelab.grid import BinaryMatrix
from squarelab.squares import dp_full, freq_square
from squarelab.verify import (
    DEFAULT_SOLVERS,
    EnumerationCapExceededError,
    InvariantFailure,
    Mismatch,
    VerifyReport,
    edge_case_suite,
    enumeration_count,
    exhaustive_sweep,
    random_campaign,
    render_mismatch_csv,
    render_report,
)


def broken_solver(m):
    """Misreports any side-2 square as side 1; used to exercise mismatch paths."""
    real = dp_full(m)
    side = 1 if real.side == 2 else real.side
    return SquareResult(side=side, area=side * side, cells_visited=m.rows * m.cols)


def test_enumeration_count_arithmetic():
    # sum over shapes r<=2, c<=2 of 2^(r*c): 2 + 4 + 4 + 16
    assert enumeration_count(2, 2) == 26
    assert enumeration_count(3, 3) == 682
    assert enumeration_count(4, 4) == 74954


def test_exhaustive_sweep_counts_and_cleanliness():
    report = exhaustive_sweep(2, 2)
    assert report.cases_run == 26
    assert report.clean
    assert report.mismatches == []
    assert report.invariant_failures == []


def test_exhaustive_sweep_single_row_family():
    report = exhaustive_sweep(1, 3)
    assert report.cases_run == 2 + 4 + 8
    assert report.clean


def test_exhaustive_sweep_order():
    # each cell string reaches the solvers once, ascending per shape, which
    # makes the first mismatch of a shape its minimal reproducer
    seen = []

    def recording(m):
        seen.append((m.rows, m.cols, "".join(map(str, m.cells))))
        return dp_full(m)

    exhaustive_sweep(2, 3, solvers=(("recording", recording),))
    assert seen == [
        (r, c, format(p, f"0{r * c}b"))
        for r in (1, 2) for c in (1, 2, 3) for p in range(2 ** (r * c))
    ]


def test_exhaustive_sweep_cap_enforced():
    with pytest.raises(EnumerationCapExceededError):
        enumeration_count(99, 99)
    # stops once the total passes the cap, before 2 ** (10**12) is formed
    with pytest.raises(EnumerationCapExceededError):
        enumeration_count(10**6, 10**6)
    with pytest.raises(EnumerationCapExceededError):
        exhaustive_sweep(99, 99)


def test_exhaustive_sweep_finds_injected_bug():
    solvers = DEFAULT_SOLVERS + (("broken", broken_solver),)
    report = exhaustive_sweep(2, 2, solvers=solvers)
    assert not report.clean
    assert len(report.mismatches) >= 1
    # the first reported reproducer is the lexicographically smallest 2x2
    # all-ones pattern, the only shape <=2x2 containing a side-2 square
    first = report.mismatches[0]
    assert first.matrix == BinaryMatrix.from_rows([[1, 1], [1, 1]])


def test_mismatch_reproducers_are_sound():
    solvers = DEFAULT_SOLVERS + (("broken", broken_solver),)
    report = exhaustive_sweep(2, 2, solvers=solvers)
    for mismatch in report.mismatches:
        rerun = {name: fn(mismatch.matrix).side for name, fn in solvers}
        assert len(set(rerun.values())) > 1


def test_random_campaign_deterministic():
    a = random_campaign(100, 16, (0.1, 0.5, 0.9), seed=7)
    b = random_campaign(100, 16, (0.1, 0.5, 0.9), seed=7)
    assert render_report(a) == render_report(b)
    assert a.cases_run == 100


def test_random_campaign_seed_changes_report():
    a = random_campaign(60, 16, (0.5,), seed=1)
    b = random_campaign(60, 16, (0.5,), seed=2)
    # same cardinality either way; matrices differ so elapsed-free payload
    # only differs if a mismatch appears, which it should not
    assert a.cases_run == b.cases_run == 60
    assert a.clean and b.clean


def test_random_campaign_single_tiny_case():
    report = random_campaign(1, 1, (0.5,), seed=3)
    assert report.cases_run == 1
    assert report.clean


def test_random_campaign_requires_positive_count():
    with pytest.raises(ValueError):
        random_campaign(0, 8, (0.5,), seed=0)


def test_random_campaign_detects_injected_bug():
    solvers = DEFAULT_SOLVERS + (("broken", broken_solver),)
    report = random_campaign(200, 12, (0.5,), seed=11, solvers=solvers)
    assert not report.clean


def test_edge_case_suite_values():
    report = edge_case_suite()
    assert report.cases_run == 5
    assert report.clean


def test_edge_case_suite_checks_visit_count(monkeypatch):
    # a freq_square that answers right but skips the visit count
    def unvisited(m):
        r = freq_square(m)
        return SquareResult(r.side, r.area, 0)

    monkeypatch.setattr("squarelab.verify.freq_square", unvisited)
    report = edge_case_suite()
    assert report.cases_run == 5
    assert not report.mismatches
    # every case but the 0x0 empty matrix, where 0 visits is right
    failed = [f.case_id for f in report.invariant_failures]
    assert failed == ["all_zeros_100", "all_ones_100", "single_row_1000", "single_col_1000"]
    assert all("freq visited 0 cells" in f.description for f in report.invariant_failures)


def test_render_report_format():
    report = exhaustive_sweep(2, 2)
    text = render_report(report)
    assert text.startswith("cases_run=26\n")
    assert "mismatches=0\n" in text
    assert "invariant_failures=0\n" in text
    assert text.endswith("\n")
    # elapsed is excluded so reruns are byte-identical
    assert "elapsed" not in text


def test_render_report_includes_reproducer():
    solvers = DEFAULT_SOLVERS + (("broken", broken_solver),)
    report = exhaustive_sweep(2, 2, solvers=solvers)
    text = render_report(report)
    assert "11" in text
    assert "broken" in text


def test_render_mismatch_csv():
    solvers = DEFAULT_SOLVERS + (("broken", broken_solver),)
    report = exhaustive_sweep(2, 2, solvers=solvers)
    csv_text = render_mismatch_csv(report)
    header = csv_text.splitlines()[0]
    assert header == "case,rows,cols,cells,freq_side,dp_full_side,dp_rows_side,brute_side,broken_side"
    assert len(csv_text.splitlines()) == len(report.mismatches) + 1


def test_render_mismatch_csv_mixes_solver_sets():
    # an edge-suite finding compares two solvers, a campaign finding four
    m = BinaryMatrix.from_rows([[1]])
    edges = VerifyReport(mismatches=[
        Mismatch("all_ones_1", m, (("freq", 1), ("dp_full", 0)))])
    campaign = VerifyReport(mismatches=[Mismatch(
        "random#0", m, (("freq", 1), ("dp_full", 1), ("dp_rows", 1), ("brute", 0)))])
    lines = render_mismatch_csv(edges, campaign).splitlines()
    assert lines[0] == "case,rows,cols,cells,freq_side,dp_full_side,dp_rows_side,brute_side"
    assert lines[1:] == ["all_ones_1,1,1,1,1,0,,", "random#0,1,1,1,1,1,1,0"]
    assert all(len(line.split(",")) == len(lines[0].split(",")) for line in lines)


def test_reports_track_visit_counts():
    # single-pass solvers must touch each cell exactly once; a violation
    # shows up as an invariant failure
    report = exhaustive_sweep(2, 3)
    assert report.invariant_failures == []


def test_report_and_finding_values():
    a, b = VerifyReport(), VerifyReport()
    assert a == b and a.mismatches is not b.mismatches
    assert repr(a) == ("VerifyReport(cases_run=0, mismatches=[], invariant_failures=[], "
                       "elapsed=0.0)")
    failure = InvariantFailure("c", -1, "d")
    assert repr(failure) == "InvariantFailure(case_id='c', row=-1, description='d')"
    a.invariant_failures.append(failure)
    assert a != b and not a.clean and b.clean
    assert a == VerifyReport(invariant_failures=[InvariantFailure("c", -1, "d")])
    assert failure != ("c", -1, "d")
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(AttributeError):
        failure.row = 0


def miscounting(m):
    """Right side, but one cell short of a full pass when the ones are odd."""
    r = dp_full(m)
    return SquareResult(r.side, r.area, r.cells_visited - m.cells.count(1) % 2)


# "bits" is a single-pass name, so its short visit counts are findings
FAULTY = DEFAULT_SOLVERS + (("broken", broken_solver), ("bits", miscounting))


def concatenated(reports):
    return (sum(r.cases_run for r in reports),
            [mm for r in reports for mm in r.mismatches],
            [f for r in reports for f in r.invariant_failures])


def assert_shards_concatenate(campaign):
    whole = campaign((0, 1))
    assert not whole.clean
    for n in (1, 2, 3, 7):
        shards = [campaign((k, n)) for k in range(n)]
        assert concatenated(shards) == concatenated([whole]), n


def test_exhaustive_shards_concatenate_to_the_whole_sweep():
    # 682 cases, which neither 3 nor 7 divides
    assert_shards_concatenate(lambda shard: exhaustive_sweep(3, 3, FAULTY, shard=shard))


def test_random_shards_concatenate_to_the_whole_campaign(monkeypatch):
    # a state check that always fails records where it ran: at the global
    # indices 0, 100 and 200 of the 250 cases, whichever shard runs them
    def failing_state_check(case_id, matrix, report):
        report.invariant_failures.append(InvariantFailure(case_id, 0, "state checked"))

    monkeypatch.setattr("squarelab.verify._check_freq_state", failing_state_check)
    assert_shards_concatenate(
        lambda shard: random_campaign(250, 6, (0.5, 0.9), 4, FAULTY, shard=shard))
    checked = [f.case_id for f in random_campaign(250, 6, (0.5,), 4).invariant_failures
               if f.description == "state checked"]
    assert checked == ["random#0", "random#100", "random#200"]


def test_edge_shards_concatenate_to_the_whole_suite(monkeypatch):
    # 7 shards of the 5 cases leave two of them empty
    monkeypatch.setattr("squarelab.verify.freq_square",
                        lambda m: SquareResult(0, 0, m.rows * m.cols))
    assert_shards_concatenate(lambda shard: edge_case_suite(shard=shard))
    assert [edge_case_suite(shard=(k, 7)).cases_run for k in range(7)] == [0, 1, 1, 0, 1, 1, 1]


def test_random_shard_builds_only_its_own_matrices(monkeypatch):
    import squarelab.verify

    built, generate = [], squarelab.verify.generate_matrix
    monkeypatch.setattr(squarelab.verify, "generate_matrix",
                        lambda spec: built.append(spec) or generate(spec))
    whole = random_campaign(10, 5, (0.5,), 8)
    specs, built[:] = built[:], []
    shard = random_campaign(10, 5, (0.5,), 8, shard=(1, 2))
    assert built == specs[5:] and shard.cases_run == 5 == whole.cases_run - 5


@pytest.mark.parametrize("shard", [(1, 1), (-1, 2), (0, 0)])
def test_a_shard_outside_its_count_is_refused(shard):
    with pytest.raises(ValueError, match="does not exist"):
        edge_case_suite(shard=shard)
