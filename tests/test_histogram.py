import random

from squarelab.grid import EMPTY_MATRIX, BinaryMatrix, GenSpec, generate_matrix
from squarelab.histogram import (
    build_histograms,
    largest_rect_in_histogram,
    maximal_rectangle,
)
from squarelab.squares import freq_square, freq_square_traced


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
