import itertools
import random

import pytest

from squarelab import histogram
from squarelab.bitplanes import lines_board
from squarelab.core import RectResult, SquareResult
from squarelab.grid import EMPTY_MATRIX, BinaryMatrix, GenSpec, generate_matrix
from squarelab.histogram import (
    build_histograms,
    largest_rect_in_histogram,
    maximal_rectangle,
)
from squarelab.squares import freq_square, freq_square_traced


def stack_rectangle(m):
    """The stack on every row's histogram, kept on a strictly larger area."""
    best = RectResult(0, 0, 0)
    for heights in build_histograms(m):
        candidate = largest_rect_in_histogram(heights)
        if candidate.area > best.area:
            best = candidate
    return best


def triangle(n):
    return BinaryMatrix(n, n, bytes(j <= i for i in range(n) for j in range(n)))


def brute_max_rectangle(m):
    best = 0
    rows = m.to_rows()
    for top in range(m.rows):
        for left in range(m.cols):
            for bottom in range(top, m.rows):
                for right in range(left, m.cols):
                    if all(rows[i][j]
                           for i in range(top, bottom + 1)
                           for j in range(left, right + 1)):
                        best = max(best, (bottom - top + 1) * (right - left + 1))
    return best


def test_build_histograms_examples():
    m = BinaryMatrix.from_rows([[1, 0], [1, 1]])
    assert build_histograms(m) == [[1, 0], [2, 1]]
    zeros = BinaryMatrix.from_rows([[0, 0], [0, 0]])
    assert build_histograms(zeros) == [[0, 0], [0, 0]]
    col = BinaryMatrix.from_rows([[1], [1], [1]])
    assert build_histograms(col) == [[1], [2], [3]]


def test_build_histograms_empty():
    assert build_histograms(EMPTY_MATRIX) == []


def test_histograms_match_traced_freq_vectors():
    rng = random.Random(13)
    for _ in range(30):
        m = generate_matrix(GenSpec(rng.randint(1, 12), rng.randint(1, 12),
                                    rng.random(), rng.getrandbits(32)))
        hists = build_histograms(m)
        _, snaps = freq_square_traced(m)
        for i in range(m.rows):
            assert tuple(hists[i]) == snaps[i].freq


def test_largest_rect_single_bar():
    r = largest_rect_in_histogram([5])
    assert (r.area, r.height, r.width) == (5, 5, 1)


def test_largest_rect_valley():
    r = largest_rect_in_histogram([2, 1, 2])
    assert (r.area, r.height, r.width) == (3, 1, 3)


def test_largest_rect_plateau():
    r = largest_rect_in_histogram([2, 2, 2])
    assert (r.area, r.height, r.width) == (6, 2, 3)


def test_largest_rect_empty_histogram():
    r = largest_rect_in_histogram([])
    assert r.area == 0 and r.height == 0 and r.width == 0


def test_largest_rect_area_consistency():
    r = largest_rect_in_histogram([3, 1, 4, 1, 5])
    assert r.area == r.height * r.width


def test_maximal_rectangle_examples():
    m = BinaryMatrix.from_rows([[1, 1, 1], [1, 1, 0]])
    assert maximal_rectangle(m).area == 4
    ones = BinaryMatrix.from_rows([[1, 1, 1]] * 3)
    assert maximal_rectangle(ones).area == 9
    zeros = BinaryMatrix.from_rows([[0, 0], [0, 0]])
    assert maximal_rectangle(zeros).area == 0


def test_maximal_rectangle_empty():
    assert maximal_rectangle(EMPTY_MATRIX).area == 0


def test_maximal_rectangle_against_brute_force():
    rng = random.Random(31)
    for _ in range(60):
        m = generate_matrix(GenSpec(rng.randint(1, 7), rng.randint(1, 7),
                                    rng.random(), rng.getrandbits(32)))
        assert maximal_rectangle(m).area == brute_max_rectangle(m)


def test_rectangle_bounds_square():
    # every all-ones square is also a rectangle
    rng = random.Random(63)
    for _ in range(100):
        m = generate_matrix(GenSpec(rng.randint(1, 24), rng.randint(1, 24),
                                    rng.random(), rng.getrandbits(32)))
        side = freq_square(m).side
        assert maximal_rectangle(m).area >= side * side


def test_maximal_rectangle_every_matrix_up_to_4x4():
    for rows in range(1, 5):
        for cols in range(1, 5):
            for cells in itertools.product(b"\x00\x01", repeat=rows * cols):
                m = BinaryMatrix(rows, cols, bytes(cells))
                assert maximal_rectangle(m) == stack_rectangle(m), m


@pytest.mark.parametrize("cols", [7, 8, 9, 15, 16, 17, 63, 64, 65])
def test_maximal_rectangle_across_word_boundaries(cols):
    # the board packs eight rows at a time, so 1 and 7 rows are one partial
    # block, 8, 16 and 40 whole blocks, and 9, 15 and 17 a partial block on
    # top of whole ones
    rng = random.Random(cols)
    for rows in (1, 7, 8, 9, 15, 16, 17, 40):
        for density in (0.5, 0.8, 0.95, 1.0):
            m = generate_matrix(GenSpec(rows, cols, density, rng.getrandbits(32)))
            assert maximal_rectangle(m) == stack_rectangle(m)


@pytest.mark.parametrize("rows, cols", [
    (255, 3), (256, 3), (257, 3), (300, 5), (70000, 2),
    (255, 255), (256, 256), (257, 257), (300, 257),
], ids=["255", "256", "257", "300", "70000x2", "255x255", "256x256", "257x257", "300x257"])
def test_maximal_rectangle_heights_at_lane_edges(rows, cols):
    # heights and widths past one and two bytes, on square, tall and wide shapes
    m = BinaryMatrix(rows, cols, b"\x01" * (rows * cols))
    assert maximal_rectangle(m) == stack_rectangle(m) == RectResult(rows * cols, rows, cols)


@pytest.mark.parametrize("m", [
    BinaryMatrix(120, 90, b"\x01" * (120 * 90)),
    triangle(150),
    BinaryMatrix(50, 60, bytes(50 * 60)),
    EMPTY_MATRIX,
    BinaryMatrix(1, 1000, b"\x01" * 1000),
    BinaryMatrix(1000, 1, b"\x01" * 1000),
    BinaryMatrix(3, 0, b""),
], ids=["ones", "triangle", "zeros", "empty", "1x1000", "1000x1", "3x0"])
def test_maximal_rectangle_special_shapes(m):
    assert maximal_rectangle(m) == stack_rectangle(m)


def test_maximal_rectangle_keeps_the_stacks_tie_break():
    # row 2's histogram [3, 3, 1, 1, 1, 1] holds 3x2 and 1x6: the stack pops 3x2 first
    m = BinaryMatrix.from_rows([[1, 1, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0], [1] * 6])
    assert maximal_rectangle(m) == stack_rectangle(m) == RectResult(6, 3, 2)
    # row 1 ties row 0's 1x6 with a 2x3: the first row to reach the area wins
    m = BinaryMatrix.from_rows([[1] * 6, [1, 1, 1, 0, 0, 0]])
    assert maximal_rectangle(m) == stack_rectangle(m) == RectResult(6, 1, 6)


def test_tall_ties_go_to_the_earliest_bottom_row():
    # 8x4: a 4x1 bar in column 0 ends on row 7 and is met first in column
    # order; a 2x2 block in columns 2-3 ends on row 1, so the rows meet it first
    m = BinaryMatrix.from_rows([[0, 0, 1, 1]] * 2 + [[0, 0, 0, 0]] * 2 + [[1, 0, 0, 0]] * 4)
    assert maximal_rectangle(m) == stack_rectangle(m) == RectResult(4, 2, 2)
    # the reverse: the block ends on row 7 and the bar on row 3
    m = BinaryMatrix.from_rows([[0, 0, 0, 1]] * 4 + [[0, 0, 0, 0]] * 2 + [[1, 1, 0, 0]] * 2)
    assert maximal_rectangle(m) == stack_rectangle(m) == RectResult(4, 4, 1)
    # row 2's histogram [3, 3, 1, 1, 1, 1] holds 3x2 and 1x6: the stack pops 3x2 first
    m = BinaryMatrix.from_rows([[1, 1, 0, 0, 0, 0]] * 2 + [[1] * 6] + [[0] * 6] * 5)
    assert maximal_rectangle(m) == stack_rectangle(m) == RectResult(6, 3, 2)
    # a 1x6 on row 4 and a 2x3 ending on row 1: the 2x3 sits in later columns
    m = BinaryMatrix.from_rows([[0, 0, 0, 1, 1, 1]] * 2 + [[0] * 6] * 2 + [[1] * 6]
                               + [[0] * 6] * 3)
    assert maximal_rectangle(m) == stack_rectangle(m) == RectResult(6, 2, 3)


def test_tall_random_ties():
    # few columns and middling density: the largest area is small and shared
    rng = random.Random(11)
    for _ in range(400):
        cols = rng.randint(1, 8)
        m = generate_matrix(GenSpec(rng.randint(cols + 1, 70), cols,
                                    rng.choice((0.4, 0.6, 0.75)), rng.getrandbits(32)))
        assert maximal_rectangle(m) == stack_rectangle(m)


@pytest.mark.parametrize("rows", [63, 64, 65, 200])
def test_tall_all_ones_and_single_columns(rows):
    for cols in (1, 2, 7):
        m = BinaryMatrix(rows, cols, b"\x01" * (rows * cols))
        assert maximal_rectangle(m) == RectResult(rows * cols, rows, cols)
    rng = random.Random(rows)
    for density in (0.3, 0.7, 0.95):
        m = generate_matrix(GenSpec(rows, 1, density, rng.getrandbits(32)))
        assert maximal_rectangle(m) == stack_rectangle(m)


def test_maximal_rectangle_random_shapes():
    rng = random.Random(6)
    for _ in range(400):
        m = generate_matrix(GenSpec(rng.randint(1, 40), rng.randint(1, 40),
                                    rng.choice((0.5, 0.8, 0.9, 0.97, 1.0)),
                                    rng.getrandbits(32)))
        assert maximal_rectangle(m) == stack_rectangle(m)


@pytest.mark.parametrize("rows, cols", [(250, 4000), (1000, 1000), (4000, 250)])
def test_all_ones_takes_a_few_dozen_board_operations(monkeypatch, rows, cols):
    # every shift-AND on the board goes through has_run; a walk that visits
    # every width or height would call it thousands of times here
    has_run, calls = histogram.has_run, []

    def counting(*args):
        calls.append(None)
        return has_run(*args)

    monkeypatch.setattr(histogram, "has_run", counting)
    m = BinaryMatrix(rows, cols, b"\x01" * (rows * cols))
    assert maximal_rectangle(m) == RectResult(rows * cols, rows, cols)
    assert len(calls) <= 100


def staircase(n):
    """Ones on and below the anti-diagonal: h(w) drops by one at every width."""
    return BinaryMatrix(n, n, bytes(i + j >= n - 1 for i in range(n) for j in range(n)))


@pytest.mark.parametrize("m", [
    BinaryMatrix(20, 17, b"\x01" * (20 * 17)),
    BinaryMatrix(20, 17, bytes(20 * 17)),
    generate_matrix(GenSpec(1, 70, 0.8, 1)),
    generate_matrix(GenSpec(70, 1, 0.8, 2)),
    staircase(19),
    generate_matrix(GenSpec(19, 23, 0.9, 3)),
], ids=["ones", "zeros", "one-row", "one-column", "staircase", "random"])
def test_heights_read_off_the_board_are_the_rows_histograms(m):
    # every row's histogram, read up from it a group of eight rows at a
    # time, so groups end above, on and below a multiple of eight
    board = lines_board([m.to_text()], m.cols)[0]
    for first, heights in enumerate(build_histograms(m)):
        read = histogram._heights(board, m.rows, m.cols, first)
        assert read == heights, first
        assert largest_rect_in_histogram(read) == largest_rect_in_histogram(heights)
    assert maximal_rectangle(m) == stack_rectangle(m)


def test_rect_result_is_a_value_of_its_own_type():
    r = RectResult(2, 1, 2)
    assert repr(r) == "RectResult(area=2, height=1, width=2)"
    assert RectResult(area=2, height=1, width=2) == r
    assert hash(RectResult(2, 1, 2)) == hash(r)
    # same fields, different question: never equal
    assert RectResult(0, 0, 0) != SquareResult(0, 0, 0)
    assert SquareResult(0, 0, 0) != RectResult(0, 0, 0)
    assert RectResult(0, 0, 0) != (0, 0, 0)
    for name in ("area", "height", "width"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
    assert not hasattr(r, "_replace") and not hasattr(RectResult, "_make")
