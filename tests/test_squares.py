import random

import pytest

from squarelab.cli import DEFAULT_DENSITIES
from squarelab.grid import EMPTY_MATRIX, BinaryMatrix, GenSpec, generate_matrix
from squarelab.squares import (
    ORACLE_CELL_CAP,
    AllocationAudit,
    FreqState,
    OracleCapExceededError,
    SquareResult,
    brute_force_square,
    dp_full,
    dp_rows,
    freq_bits,
    freq_square,
    freq_square_traced,
)
from squarelab.verify import DEFAULT_SOLVERS, _pattern_cells, exhaustive_sweep, random_campaign

ALL_SOLVERS = [freq_square, freq_bits, dp_full, dp_rows, brute_force_square]


def rows_matrix(rows):
    return BinaryMatrix.from_rows(rows)


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_all_ones(solver):
    m = rows_matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    r = solver(m)
    assert r.side == 3 and r.area == 9


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_all_zeros(solver):
    m = rows_matrix([[0, 0], [0, 0]])
    assert solver(m).area == 0


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_empty_matrix(solver):
    r = solver(EMPTY_MATRIX)
    assert r.side == 0 and r.area == 0 and r.cells_visited == 0


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_single_cell(solver):
    assert solver(rows_matrix([[1]])).area == 1
    assert solver(rows_matrix([[0]])).area == 0


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_single_row_and_column(solver):
    assert solver(rows_matrix([[1, 1, 1, 1]])).area == 1
    assert solver(rows_matrix([[1], [1], [1]])).area == 1


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_embedded_square(solver):
    m = rows_matrix([
        [1, 0, 1, 1, 1],
        [1, 1, 1, 1, 1],
        [0, 1, 1, 1, 0],
        [1, 1, 1, 1, 0],
    ])
    r = solver(m)
    assert r.side == 3
    assert r.area == 9


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_two_candidate_squares(solver):
    # a 2x2 early in scan order and a 3x3 later
    m = rows_matrix([
        [1, 1, 0, 0, 0],
        [1, 1, 0, 1, 1],
        [0, 0, 1, 1, 1],
        [0, 1, 1, 1, 1],
        [0, 1, 1, 1, 1],
    ])
    assert solver(m).side == 3


def test_blocked_corner_caps_at_two():
    m = rows_matrix([[0, 1, 1], [1, 1, 1], [1, 1, 1]])
    for solver in ALL_SOLVERS:
        assert solver(m).area == 4


def test_dp_table_on_lower_triangle():
    m = rows_matrix([[1, 0], [1, 1]])
    assert dp_full(m).area == 1
    assert brute_force_square(rows_matrix([[1, 1], [1, 0]])).area == 1


def test_diagonal_has_no_square_beyond_one():
    m = rows_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for solver in ALL_SOLVERS:
        assert solver(m).side == 1


def test_single_pass_visit_count():
    m = generate_matrix(GenSpec(13, 7, 0.5, 5))
    for solver in (freq_square, freq_bits, dp_full, dp_rows):
        assert solver(m).cells_visited == 13 * 7


def test_traced_matches_plain():
    m = generate_matrix(GenSpec(9, 9, 0.6, 21))
    plain = freq_square(m)
    traced, snapshots = freq_square_traced(m)
    assert traced == plain
    assert len(snapshots) == m.rows


def test_traced_snapshots_are_column_runs():
    m = rows_matrix([
        [1, 1, 0, 1],
        [1, 1, 1, 1],
        [0, 1, 1, 1],
    ])
    _, snaps = freq_square_traced(m)
    assert snaps[0].freq == (1, 1, 0, 1)
    assert snaps[1].freq == (2, 2, 1, 2)
    assert snaps[2].freq == (0, 3, 2, 3)


def test_traced_thresholds_stay_coupled():
    m = generate_matrix(GenSpec(20, 20, 0.7, 3))
    _, snaps = freq_square_traced(m)
    for s in snaps:
        assert s.check_max_width == s.found_max_width + 1
        assert s.check_max_height == s.found_max_width + 1


def test_counter_resets_between_rows():
    # rows of width 2 never make a side-2 square when stacked misaligned
    m = rows_matrix([
        [1, 1, 0],
        [0, 1, 1],
    ])
    assert freq_square(m).side == 1


def test_detection_mid_row_then_larger_candidate():
    # side-2 confirmation fires left of a wider run in the same row
    m = rows_matrix([
        [1, 1, 0, 1, 1, 1],
        [1, 1, 0, 1, 1, 1],
        [0, 0, 0, 1, 1, 1],
    ])
    assert freq_square(m).side == 3
    assert dp_full(m).side == 3


def test_agreement_on_seeded_matrices():
    rng = random.Random(99)
    for _ in range(200):
        rows = rng.randint(1, 20)
        cols = rng.randint(1, 20)
        m = generate_matrix(GenSpec(rows, cols, rng.random(), rng.getrandbits(32)))
        sides = {solver(m).side for solver in ALL_SOLVERS}
        assert len(sides) == 1, f"disagreement on {m.rows}x{m.cols}: {sides}"


def test_pinned_regression_side():
    m = generate_matrix(GenSpec(20, 20, 0.5, 42))
    assert dp_full(m).side == 2
    assert freq_square(m).side == 2


def test_brute_force_cap():
    m = generate_matrix(GenSpec(110, 110, 0.5, 0))
    assert m.rows * m.cols > ORACLE_CELL_CAP
    with pytest.raises(OracleCapExceededError):
        brute_force_square(m)


def grown_border_square(m):
    """Reference oracle: grow a square at every anchor while the border it
    adds (the new bottom row and right column) is all ones.  This is the
    per-anchor brute_force_square that the skipping one replaced."""
    rows, cols, cells = m.rows, m.cols, m.cells
    best = 0
    for top in range(rows):
        for left in range(cols):
            limit = min(rows - top, cols - left)
            k = 0
            while k < limit:
                base = (top + k) * cols
                if not all(cells[base + j] for j in range(left, left + k + 1)):
                    break
                if not all(cells[i * cols + left + k] for i in range(top, top + k)):
                    break
                k += 1
            best = max(best, k)
    return best


def test_brute_force_matches_grown_border_exhaustively():
    for r in range(1, 5):
        for c in range(1, 5):
            for pattern in range(2 ** (r * c)):
                m = BinaryMatrix(r, c, _pattern_cells(pattern, r * c))
                assert brute_force_square(m).side == grown_border_square(m), m


@pytest.mark.parametrize("density", [0.9, 0.95, 0.99, 1.0])
def test_brute_force_matches_grown_border_on_dense_shapes(density):
    rng = random.Random(int(density * 100))
    for _ in range(40):
        m = generate_matrix(GenSpec(rng.randint(1, 40), rng.randint(1, 40),
                                    density, rng.getrandbits(32)))
        assert brute_force_square(m).side == grown_border_square(m), m


@pytest.mark.parametrize("shape", [(1, 1), (1, 40), (40, 1), (7, 3), (3, 7), (40, 40)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_brute_force_matches_grown_border_on_edge_shapes(shape):
    rows, cols = shape
    ones = BinaryMatrix(rows, cols, b"\x01" * (rows * cols))
    assert brute_force_square(ones).side == grown_border_square(ones) == min(rows, cols)
    rng = random.Random(rows * 100 + cols)
    for _ in range(20):
        m = generate_matrix(GenSpec(rows, cols, rng.random(), rng.getrandbits(32)))
        assert brute_force_square(m).side == grown_border_square(m), m


def test_brute_force_counts_the_cells_its_scans_read():
    # k=1 at (0,0): reads cell (0,0), best=1.  k=2 at (0,0): reads row 0
    # (2 cells), then row 1 up to its zero (2 cells); left jumps past the
    # zero to 2, and no 2x2 window fits anywhere else: 1 + 2 + 2 = 5.
    assert brute_force_square(rows_matrix([[1, 1], [1, 0]])) == SquareResult(1, 1, 5)


def test_allocation_audit_tracks_peak():
    audit = AllocationAudit()
    audit.add(10)
    audit.add(5)
    audit.release(10)
    audit.add(2)
    assert audit.peak_elements == 15


def test_freq_square_aux_space_scales_with_cols_only():
    for rows in (10, 1000):
        audit = AllocationAudit()
        freq_square(generate_matrix(GenSpec(rows, 32, 0.5, 1)), audit=audit)
        assert audit.peak_elements == 32


def test_dp_rows_aux_space_scales_with_cols_only():
    for rows in (10, 1000):
        audit = AllocationAudit()
        dp_rows(generate_matrix(GenSpec(rows, 32, 0.5, 1)), audit=audit)
        assert audit.peak_elements == 64


def test_dp_full_aux_space_is_whole_table():
    audit = AllocationAudit()
    dp_full(generate_matrix(GenSpec(12, 9, 0.5, 1)), audit=audit)
    assert audit.peak_elements == 12 * 9


def test_flipping_zero_to_one_never_shrinks_square():
    rng = random.Random(55)
    for _ in range(40):
        m = generate_matrix(GenSpec(rng.randint(2, 12), rng.randint(2, 12),
                                    0.5, rng.getrandbits(32)))
        zeros = [k for k, cell in enumerate(m.cells) if cell == 0]
        if not zeros:
            continue
        k = rng.choice(zeros)
        flipped = BinaryMatrix(
            m.rows, m.cols,
            m.cells[:k] + b"\x01" + m.cells[k + 1:])
        assert freq_square(flipped).side >= freq_square(m).side


def test_result_area_is_side_squared():
    rng = random.Random(7)
    for _ in range(50):
        m = generate_matrix(GenSpec(rng.randint(1, 15), rng.randint(1, 15),
                                    rng.random(), rng.getrandbits(32)))
        for solver in ALL_SOLVERS:
            r = solver(m)
            assert r.area == r.side * r.side


def zeros(rows, cols):
    return BinaryMatrix(rows, cols, bytes(rows * cols))


def planted(m, top, left, side):
    """m with a side x side block of ones whose top-left cell is (top, left)."""
    cells = bytearray(m.cells)
    for i in range(top, top + side):
        cells[i * m.cols + left:i * m.cols + left + side] = b"\x01" * side
    return BinaryMatrix(m.rows, m.cols, bytes(cells))


def test_freq_bits_exhaustive_with_every_reference():
    solvers = DEFAULT_SOLVERS + (("bits", freq_bits),)
    report = exhaustive_sweep(4, 4, solvers=solvers)
    assert report.clean
    assert report.cases_run == 74_954


def test_freq_bits_random_campaign_against_dp_rows():
    solvers = (("bits", freq_bits), ("dp_rows", dp_rows))
    report = random_campaign(10000, 64, DEFAULT_DENSITIES, seed=0, solvers=solvers)
    assert report.clean
    assert report.cases_run == 10000


# (width, left column of the square): squares at the row's edges and across
# each 64-bit word boundary
WORD_BOUNDARY_CASES = [
    (63, 0), (63, 57), (64, 0), (64, 58), (65, 59), (65, 61),
    (200, 60), (200, 125), (200, 192),
]


@pytest.mark.parametrize("cols, left", WORD_BOUNDARY_CASES)
def test_freq_bits_square_across_word_boundaries(cols, left):
    side = min(7, cols - left)
    m = planted(zeros(20, cols), 5, left, side)
    assert freq_bits(m) == SquareResult(side, side * side, 20 * cols)
    m = planted(generate_matrix(GenSpec(20, cols, 0.5, cols + left)), 5, left, side)
    assert freq_bits(m) == dp_rows(m)


def test_freq_bits_square_in_last_row_and_last_column():
    assert freq_bits(planted(zeros(12, 9), 12 - 4, 9 - 4, 4)).side == 4
    # a larger square in the last rows beats an early smaller one
    assert freq_bits(planted(planted(zeros(12, 9), 0, 0, 2), 7, 4, 5)).side == 5


def test_freq_bits_constant_and_degenerate_shapes():
    ones = b"\x01"
    assert freq_bits(BinaryMatrix(1000, 1000, ones * 10**6)).side == 1000
    assert freq_bits(BinaryMatrix(1, 1000, ones * 1000)).side == 1
    assert freq_bits(BinaryMatrix(1000, 1, ones * 1000)).side == 1
    assert freq_bits(zeros(300, 300)).side == 0
    assert freq_bits(EMPTY_MATRIX) == SquareResult(0, 0, 0)
    audit = AllocationAudit()
    assert freq_bits(BinaryMatrix(3, 0, b""), audit=audit) == SquareResult(0, 0, 0)
    assert audit.peak_elements == 0
    # the sweep stops at side 4 after four rows: three planes and the row
    audit = AllocationAudit()
    assert freq_bits(BinaryMatrix(1000, 4, ones * 4000), audit=audit).side == 4
    assert audit.peak_elements == 4


@pytest.mark.parametrize("rows, cols, density", [
    (1, 1, 1.0), (10, 32, 0.5), (1000, 32, 1.0), (64, 65, 1.0), (300, 200, 0.9),
])
def test_freq_bits_aux_space_in_words(rows, cols, density):
    audit = AllocationAudit()
    freq_bits(generate_matrix(GenSpec(rows, cols, density, 1)), audit=audit)
    assert audit.peak_elements <= (rows.bit_length() + 2) * ((cols + 63) // 64)


# one value of each result type and the repr the dataclass version printed
RESULTS = [
    (SquareResult(1, 1, 4), "SquareResult(side=1, area=1, cells_visited=4)"),
    (FreqState((1, 0), 1, 2, 2, 0),
     "FreqState(freq=(1, 0), found_max_width=1, check_max_width=2, "
     "check_max_height=2, counter=0)"),
]


@pytest.mark.parametrize("value, text", RESULTS, ids=lambda v: type(v).__name__)
def test_result_repr_is_the_dataclass_one(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, _", RESULTS, ids=lambda v: type(v).__name__)
def test_results_are_immutable_and_hash_by_value(value, _):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    twin = type(value)(**{name: getattr(value, name) for name in value._fields})
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert not hasattr(value, "_replace") and not hasattr(value, "_make")


def test_results_equal_only_their_own_type():
    # a tuple subclass would otherwise equal any tuple of the same items
    assert SquareResult(0, 0, 0) != (0, 0, 0)
    assert (0, 0, 0) != SquareResult(0, 0, 0)
    assert {SquareResult(0, 0, 0): 1}.get((0, 0, 0)) is None


def test_oracle_cap_lives_in_core():
    # defined in core, which `cube` loads, and used from there by squares
    from squarelab import core

    assert OracleCapExceededError is core.OracleCapExceededError
    assert ORACLE_CELL_CAP == core.ORACLE_CELL_CAP
