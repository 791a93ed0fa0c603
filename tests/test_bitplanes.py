import io
import random
import sys
import tracemalloc

import pytest

from squarelab.bitplanes import (
    at_least,
    fold_columns,
    has_run,
    increment,
    layer_boards,
    line_rows,
    lines_board,
    sweep,
)
from squarelab.cli import main
from squarelab.core import _block_size, read_lines
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
    return list(line_rows(m.to_text(), m.cols))


def columns_of(m):
    columns = [0] * m.cols
    fold_columns(columns, m.to_text())
    return columns


def text_board(t):
    """A matrix's text as its board: each newline a guard bit, row 0 on top."""
    return int(t.translate(bytes.maketrans(b"\n", b"0")), 2) if t else 0


def layer_boards_of(text):
    """The board and rows of each layer of a volume's text, as `cube` reads
    it from a file."""
    blocks, cols = read_lines(io.BytesIO(text), layers=True)
    return list(layer_boards(blocks, cols))


def layers_of(v):
    return [board for board, _ in layer_boards_of(v.to_text())]


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


# a matrix folded a block at a time gives the columns of its text folded as
# one block, whether a block's lines fill whole bytes (8), fall short of
# them (1, 7), or overrun them (9, 261), and with a short last block (2089
# rows)
@pytest.mark.parametrize("lines", [1, 7, 8, 9, 261])
def test_folding_a_block_at_a_time_gives_the_columns(lines):
    m = generate_matrix(GenSpec(2089, 13, 0.5, lines))
    t, size = m.to_text(), lines * (m.cols + 1)
    columns = [0] * m.cols
    rows = sum(fold_columns(columns, t[i:i + size]) for i in range(0, len(t), size))
    assert (columns, rows) == (columns_of(m), m.rows)


@pytest.mark.parametrize("cols", [0, 1, 7, 8, 9, 16, 65])
def test_text_board_reads_each_newline_as_a_guard_bit(cols):
    # a matrix's text is one block of lines, packed into one board; eight
    # lines are packed at a time: 1 and 7 rows are one partial block, 8 one
    # whole block, and 9 and 17 whole blocks under a partial one
    for rows in (1, 7, 8, 9, 17):
        m = generate_matrix(GenSpec(rows, cols, 0.7, cols)) if cols else BinaryMatrix(rows, 0, b"")
        t = m.to_text()
        assert lines_board([t], cols) == (text_board(t), rows)
    assert lines_board([EMPTY_MATRIX.to_text()], 0) == (0, 0)


@pytest.mark.parametrize("cols", [1, 2, 7, 8, 9, 16, 65])
def test_lines_board_packs_blocks_as_text_layers_packs_the_text(cols):
    # blocks of 1 to 9 lines: groups of eight lines straddle blocks, and a
    # partial last group ends on any line of a block
    for rows in range(1, 18):
        t = generate_matrix(GenSpec(rows, cols, 0.7, rows * cols)).to_text()
        want = text_board(t)
        for lines in range(1, 10):
            size = lines * (cols + 1)
            blocks = [t[i:i + size] for i in range(0, len(t), size)]
            assert lines_board(blocks, cols) == (want, rows), (rows, lines)
    assert lines_board([], 0) == (0, 0)


# a board is an eighth of its text, and the packer holds at most three
# boards at once (its bytearray, the copy int.from_bytes makes of it and the
# int), so a copy of the text, or of a layer, breaks the bound; a matrix's
# text is packed as one block, which `b"" + block` does not copy
@pytest.mark.parametrize("rows, cols", [(1000, 1000), (4000, 250), (250, 4000)])
def test_text_board_makes_no_copy_of_the_text(rows, cols):
    t = generate_matrix(GenSpec(rows, cols, 0.5, rows)).to_text()
    assert peak_allocated(lambda t: lines_board([t], cols), t) < len(t) // 2


# the reader checks a grid's text a block of whole lines at a time, and
# that is its one check, so it holds two blocks at most, a volume as a
# matrix, never a copy of the text or of a layer: the part of a block it
# has and the read that completes it, while it joins them (or a block and
# the two parts it splits it into at a blank line), and a few small
# objects; the block before a blank line must not live on through the next
# layer's first read
@pytest.mark.parametrize("depth, rows, cols", [(1, 1000, 1000), (1, 4000, 250), (4, 250, 1000),
                                               (3, 300, 700), (2, 1000, 1000)])
def test_grid_text_check_makes_no_copy_of_the_text(depth, rows, cols):
    t = generate_volume(GenSpec(rows, cols, 0.5, rows, depth=depth)).to_text()
    stream = io.BytesIO(t)
    peak = peak_allocated(lambda: all(read_lines(stream, layers=True)[0]))
    assert peak < 2 * _block_size(cols + 1) + 4096


# a volume's text read as `cube` reads a file, a block at a time
def test_layer_boards_make_no_copy_of_a_layer():
    t = generate_volume(GenSpec(1500, 1500, 0.5, 1, depth=1)).to_text()
    assert peak_allocated(layer_boards_of, t) < len(t) // 2


# `solve` holds a block of the file at a time: on a matrix no taller than it
# is wide, that block and the counter planes; on a taller one, the packed
# columns, one bit per cell, and the block (the block checks a piece of
# itself at a time).  What the file adds to a run's peak is measured above
# that of the same run on an empty file, which holds the parser; 36000x250
# folds 138 blocks into columns of 4.5 KB each.
@pytest.mark.parametrize("rows, cols", [(1000, 1000), (4000, 250), (36000, 250)])
def test_solve_holds_a_block_of_the_file_not_the_file(tmp_path, capsys, rows, cols):
    m = generate_matrix(GenSpec(rows, cols, 0.9, rows))
    t = m.to_text()
    path, empty = tmp_path / "m.txt", tmp_path / "empty.txt"
    path.write_bytes(t)
    empty.write_bytes(b"")
    main(["solve", str(path)])  # loads what a run loads
    added = (peak_allocated(main, ["solve", str(path)])
             - peak_allocated(main, ["solve", str(empty)]))
    assert capsys.readouterr().err == ""
    if rows <= cols:
        assert added < len(t) // 4
    else:
        columns = sum(map(sys.getsizeof, columns_of(m)))
        assert added < columns + 2 * _block_size(cols + 1)


# `rect` packs its board a block of the file at a time, then holds, at
# most, the board, the runs the walk erodes, a window mask and the two
# temporaries of a shift-AND on it: five boards, about five eighths of the
# text, and a block or two of it
@pytest.mark.parametrize("rows, cols", [(1000, 1000), (4000, 250), (250, 4000)])
def test_rect_holds_its_board_not_the_file(tmp_path, capsys, rows, cols):
    t = generate_matrix(GenSpec(rows, cols, 0.9, rows)).to_text()
    path, empty = tmp_path / "m.txt", tmp_path / "empty.txt"
    path.write_bytes(t)
    empty.write_bytes(b"")
    main(["rect", str(path)])  # loads what a run loads
    added = (peak_allocated(main, ["rect", str(path)])
             - peak_allocated(main, ["rect", str(empty)]))
    assert capsys.readouterr().err == ""
    board = sys.getsizeof(lines_board([t], cols)[0])
    assert added < 5 * board + 2 * _block_size(cols + 1)


# `cube` packs each layer's board from a block of the file at a time, and
# holds, at most, a layer board being packed (its bytearray, the copy
# int.from_bytes makes of it and the int), layer 0's, the board the sweep
# is on, its counter planes, the mask it erodes and the temporaries of a
# shift-AND on it, and a block or two; many small layers fit in one block,
# and a layer of (3, 600, 600) spans several blocks
@pytest.mark.parametrize("depth, rows, cols", [(60, 200, 200), (3, 600, 600)])
def test_cube_holds_a_layer_board_not_the_file(tmp_path, capsys, depth, rows, cols):
    t = generate_volume(GenSpec(rows, cols, 0.9, rows, depth=depth)).to_text()
    path, empty = tmp_path / "v.txt", tmp_path / "empty.txt"
    path.write_bytes(t)
    empty.write_bytes(b"")
    main(["cube", str(path)])  # loads what a run loads
    added = (peak_allocated(main, ["cube", str(path)])
             - peak_allocated(main, ["cube", str(empty)]))
    assert capsys.readouterr().err == ""
    board = sys.getsizeof(layer_boards_of(t)[0][0])
    assert added < 8 * board + 2 * _block_size(cols + 1)


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


def test_sweep_reads_every_board():
    taken = []

    def boards(board, n):
        for _ in range(n):
            taken.append(board)
            yield board

    # all-ones 1000x4 rows reach side 4 on the fourth row and are read to
    # the last, with runs of 1000: ten planes
    assert sweep(boards(0b1111, 1000), (1,)) == (4, 10)
    assert len(taken) == 1000
    # all-ones 2x2 layers, stride 3, reach side 2 on the second layer
    taken.clear()
    assert sweep(boards(0b110_110, 1000), (1, 3)) == (2, 10)
    assert len(taken) == 1000
    taken.clear()
    assert sweep(boards(0b1, 10), (1,)) == (1, 4)
    assert len(taken) == 10
    assert sweep(iter([]), (1,)) == (0, 0)


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
