import random
import tracemalloc

import pytest

from squarelab.bitplanes import (
    at_least,
    has_run,
    increment,
    sweep,
    text_board,
    text_columns,
    text_layers,
    text_rows,
)
from squarelab.core import MatrixText, VolumeText
from squarelab.grid import (
    EMPTY_MATRIX,
    EMPTY_VOLUME,
    BinaryMatrix,
    BinaryVolume,
    GenSpec,
    generate_matrix,
    generate_volume,
)


def planes_of(counts):
    """The bit planes of per-column counts, column 0 in the top bit, and the
    mask of the columns whose count is nonzero."""
    cols = len(counts)
    depth = max(counts, default=0).bit_length()
    planes = [sum((c >> k & 1) << (cols - 1 - j) for j, c in enumerate(counts))
              for k in range(depth)]
    row = sum(1 << (cols - 1 - j) for j, c in enumerate(counts) if c)
    return planes, row


def counts_of(planes, cols):
    return [sum((plane >> (cols - 1 - j) & 1) << k for k, plane in enumerate(planes))
            for j in range(cols)]


def mask_of(columns, cols):
    return sum(1 << (cols - 1 - j) for j in columns)


def rows_of(m):
    return list(text_rows(MatrixText.of(m)))


def columns_of(m):
    return list(text_columns(MatrixText.of(m)))


def layers_of(v):
    return list(text_layers(VolumeText.of(v)))


def peak_allocated(f, *args):
    """The peak of the memory allocated while f(*args) runs, in bytes."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_packed_rows_put_column_0_on_top():
    m = BinaryMatrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 0, 0]])
    assert rows_of(m) == [0b100, 0b011, 0]
    assert rows_of(BinaryMatrix(3, 0, b"")) == []
    assert rows_of(EMPTY_MATRIX) == []


def test_packed_columns_put_row_0_on_top():
    m = BinaryMatrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 0, 1], [1, 1, 0]])
    assert columns_of(m) == [0b1001, 0b0101, 0b0110]
    assert columns_of(BinaryMatrix(3, 0, b"")) == []
    assert columns_of(EMPTY_MATRIX) == []


@pytest.mark.parametrize("rows, cols", [
    (1, 1), (1, 9), (9, 1), (63, 5), (64, 5), (65, 5), (65, 1), (200, 3),
])
def test_packed_columns_match_each_columns_text(rows, cols):
    m = generate_matrix(GenSpec(rows, cols, 0.6, rows * cols))
    text = m.to_rows()
    want = [int("".join(str(text[i][j]) for i in range(rows)), 2) for j in range(cols)]
    assert columns_of(m) == want


@pytest.mark.parametrize("cols", [0, 1, 7, 8, 9, 16, 65])
def test_text_board_reads_each_newline_as_a_guard_bit(cols):
    # eight lines are packed at a time: 1 and 7 rows are one partial block,
    # 8 one whole block, and 9 and 17 whole blocks under a partial one
    for rows in (1, 7, 8, 9, 17):
        m = generate_matrix(GenSpec(rows, cols, 0.7, cols)) if cols else BinaryMatrix(rows, 0, b"")
        t = MatrixText.of(m)
        assert text_board(t) == int(t.text.translate(bytes.maketrans(b"\n", b"0")), 2)
    assert text_board(MatrixText.of(EMPTY_MATRIX)) == 0


# a board is an eighth of its text, and the packer holds at most three
# boards at once (its bytearray, the copy int.from_bytes makes of it and the
# int), so a copy of the text, or of a layer, breaks the bound
@pytest.mark.parametrize("rows, cols", [(1000, 1000), (4000, 250), (250, 4000)])
def test_text_board_makes_no_copy_of_the_text(rows, cols):
    t = MatrixText.of(generate_matrix(GenSpec(rows, cols, 0.5, rows)))
    assert peak_allocated(text_board, t) < len(t.text) // 2


def test_text_layers_make_no_copy_of_a_layer():
    t = VolumeText.of(generate_volume(GenSpec(1500, 1500, 0.5, 1, depth=1)))
    assert peak_allocated(lambda t: list(text_layers(t)), t) < len(t.text) // 2


def test_packed_layers_end_every_row_with_a_guard_bit():
    v = BinaryVolume.from_layers([BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 1]]),
                                  BinaryMatrix.from_rows([[1, 1, 1], [1, 1, 1]])])
    assert layers_of(v) == [0b1010_0110, 0b1110_1110]
    assert layers_of(EMPTY_VOLUME) == []


@pytest.mark.parametrize("depth, rows, cols", [(3, 4, 5), (2, 1, 9), (1, 1, 70), (9, 2, 1)])
def test_packed_layers_match_the_row_text(depth, rows, cols):
    # (1, 1, 70) and (2, 1, 9) are wider than the volume has rows
    v = generate_volume(GenSpec(rows, cols, 0.6, depth, depth=depth))
    want = [int("".join(format(row, f"0{cols}b") + "0" for row in rows_of(v.layer(d))), 2)
            for d in range(depth)]
    assert layers_of(v) == want


def test_sweep_reads_no_board_past_its_limit():
    taken = []

    def boards(board, n):
        for _ in range(n):
            taken.append(board)
            yield board

    # all-ones 1000x4 rows reach side 4 on the fourth row, with runs of 4
    assert sweep(boards(0b1111, 1000), (1,), 4) == (4, 3)
    assert len(taken) == 4
    # all-ones 2x2 layers, stride 3, reach side 2 on the second layer
    taken.clear()
    assert sweep(boards(0b110_110, 1000), (1, 3), 2) == (2, 2)
    assert len(taken) == 2
    taken.clear()
    assert sweep(boards(0b1, 10), (1,), 0) == (0, 0)
    assert taken == []


def test_increment_extends_runs_and_resets_under_zeros():
    rng = random.Random(1)
    for cols in (1, 5, 63, 64, 65):
        counts = [0] * cols
        planes = []
        longest = 0
        for _ in range(300):
            bits = [rng.random() < 0.9 for _ in range(cols)]
            increment(planes, mask_of([j for j in range(cols) if bits[j]], cols))
            counts = [c + 1 if b else 0 for c, b in zip(counts, bits)]
            longest = max(longest, *counts)
            assert counts_of(planes, cols) == counts
            # a plane is added by a carry out of the top one, and never dropped
            assert len(planes) == longest.bit_length()


def test_increment_carries_into_a_new_plane():
    planes = []
    for n in range(1, 9):
        increment(planes, 0b11)
        assert counts_of(planes, 2) == [n, n]
    assert len(planes) == 4
    increment(planes, 0b01)
    assert counts_of(planes, 2) == [0, 9]


def test_at_least_is_the_threshold_mask():
    rng = random.Random(2)
    for cols in (1, 7, 64, 65):
        for _ in range(40):
            counts = [rng.randrange(0, 40) for _ in range(cols)]
            planes, row = planes_of(counts)
            for t in range(1, 70):  # past the planes' range too
                want = mask_of([j for j, c in enumerate(counts) if c >= t], cols)
                assert at_least(planes, t, row) == want, (counts, t)


def test_at_least_without_planes_is_empty():
    assert at_least([], 1, 0) == 0


def test_has_run_finds_w_consecutive_bits():
    rng = random.Random(3)
    for width in (1, 2, 9, 64, 65):
        for _ in range(60):
            mask = rng.getrandbits(width) | rng.getrandbits(width)
            text = format(mask, f"0{width}b")
            for w in range(1, width + 2):
                assert bool(has_run(mask, w)) == ("1" * w in text), (text, w)


def test_has_run_marks_where_each_run_starts():
    # bit j survives iff bits j .. j + w - 1 are all set
    assert has_run(0b0111_0110, 3) == 0b0001_0000
    assert has_run(0b1111, 4) == 0b0001
    assert has_run(0b1111, 5) == 0
    assert has_run(0, 1) == 0


def test_has_run_extends_a_mask_of_shorter_runs():
    # a mask of runs of `have` extended to w equals the mask of runs of w
    rng = random.Random(6)
    for unit in (1, 3, 9):
        mask = rng.getrandbits(300) | rng.getrandbits(300)
        for have in (1, 2, 3, 5, 8):
            start = has_run(mask, have, unit)
            for w in range(have, 20):
                assert has_run(start, w, unit, have) == has_run(mask, w, unit), (unit, have, w)


def test_has_run_with_a_shift_unit_matches_a_bit_count():
    # bit j survives iff bits j, j + unit, .., j + (w - 1) * unit are all set
    rng = random.Random(5)
    for unit in (2, 3, 8, 66):
        for _ in range(30):
            width = unit * rng.randint(1, 6) + rng.randrange(unit)
            mask = rng.getrandbits(width) | rng.getrandbits(width)
            for w in range(1, width // unit + 3):
                want = sum(1 << j for j in range(width)
                           if all(mask >> (j + k * unit) & 1 for k in range(w)))
                assert has_run(mask, w, unit) == want, (mask, w, unit)
