"""Bit-sliced counters and whole-grid bitboards on Python ints, shared by
the square, rectangle and cube kernels; `sweep`, the one frequency sweep
that freq_bits and max_cube run; and the kernels `solve` and `cube` run,
`freq_bits_lines` and `max_cube_lines`, each one `sweep` on the blocks of
whole lines `core.read_lines` reads from a file as it goes, kept here so
that neither subcommand loads `squares` or `cubes`.  `freq_bits_lines`
picks its axis from the width alone, which the first line gives, before
any block is read.

The packers read a block of whole '0'/'1' lines at a time: its rows and
columns (`line_rows`, `fold_columns`), and the one board packer,
`lines_board`, which packs a matrix's blocks into one board as they come
(`rect`), and each layer of a volume into its own (`layer_boards`,
`cube`).  A library call hands them its grid's text.  A grid row is one
int, column 0 in the most significant of `cols` bits, and a grid column
the same way, row 0 on top.  A layer, and so a whole matrix, is one board:
row 0 in the top bits and each row's newline its zero guard bit, so the
stride is cols + 1 and a shift by less than a stride never carries a run
of ones into the next row; `_pack` appends eight lines at a time, top
down, and no copy the size of the text is made.  A counter is a list of
planes, least significant first: bit p of planes[k] is bit k of the count
at position p.  Each helper works on every position of a row, layer or
grid at once with a few big-int operations.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import CubeResult, SquareResult, _block_size

# a board's row newlines, read as its guard bits
_GUARD = bytes.maketrans(b"\n", b"0")


def line_rows(block: bytes, cols: int) -> Iterator[int]:
    """Each line of `block`, whole lines of `cols` '0'/'1' cells and a
    newline, as an int, column 0 in the most significant bit.  Lines with no
    columns have no rows to pack."""
    stride = cols + 1
    for start in range(0, len(block) if cols else 0, stride):
        yield int(block[start:start + cols], 2)


def fold_columns(columns: list[int], block: bytes) -> int:
    """Fold each column of `block`, whole lines of len(columns) '0'/'1' cells
    and a newline, into `columns` below the lines before it, row 0 in the
    most significant bit; return the number of lines.

    Column j is one strided slice of the block, so no transposed copy of
    the grid is made and the text is held a block at a time.
    """
    stride = len(columns) + 1
    lines = len(block) // stride
    for j, column in enumerate(columns):
        columns[j] = column << lines | int(block[j::stride], 2)
    return lines


def _pack(buffer: bytearray, lines: bytes, stop: int, stride: int) -> None:
    """Append lines[:stop], `stride` bytes each with the newline last, to a
    board's `buffer`, top down.  Eight lines are exactly `stride` bytes of
    board, so each group of eight is read on its own; a partial last group
    is padded with zero rows below, which `lines_board` shifts off.
    """
    size = 8 * stride
    for i in range(0, stop, size):
        group = lines[i:min(i + size, stop)].translate(_GUARD)
        buffer += (int(group, 2) << size - len(group)).to_bytes(stride, "big")


def lines_board(blocks: Iterable[bytes], cols: int) -> tuple[int, int]:
    """A matrix's lines of `cols` cells, given a block of whole lines at a
    time, as one board, and the number of lines.

    Each block is packed as it comes, so the board and a block or two are
    all that is held.  A group of eight lines that straddles two blocks is
    carried into the next.  The buffer is emptied before the padding rows
    are shifted off, so no more than it, the copy int.from_bytes makes of it
    and the int are held at the end.
    """
    stride = cols + 1
    size = 8 * stride
    buffer, rows, carry = bytearray(), 0, b""
    for block in blocks:
        rows += len(block) // stride
        lines = carry + block
        del block
        whole = len(lines) - len(lines) % size
        _pack(buffer, lines, whole, stride)
        carry = lines[whole:]
        del lines
    _pack(buffer, carry, len(carry), stride)
    board, pad = int.from_bytes(buffer, "big"), 8 * len(buffer) - rows * stride
    buffer.clear()
    return board >> pad, rows


def layer_boards(blocks: Iterable[bytes], cols: int) -> Iterator[tuple[int, int]]:
    """Each layer of a volume's lines of `cols` cells, given as
    `core.read_lines` reads a volume file, as one board and its rows; a
    layer's blocks are packed as they come, up to the blank line after it."""
    blocks = iter(blocks)
    while (layer := lines_board(iter(blocks.__next__, b"\n"), cols))[1]:
        yield layer


def increment(planes: list[int], row: int) -> None:
    """Add one to every column under a set bit of `row`, reset the others.

    A ripple-carry add of `row` masked by `row`; a carry out of the top plane
    appends a new plane, so the list grows to the bit length of the largest
    count.
    """
    carry = row
    for k, plane in enumerate(planes):
        planes[k] = (plane ^ carry) & row
        carry &= plane
    if carry:
        planes.append(carry)


def at_least(planes: list[int], t: int, row: int) -> int:
    """Mask of the columns whose count is at least `t` (t >= 1).

    An MSB-first comparison: `eq` holds the columns whose high bits equal
    t's so far, `gt` those already greater.  Columns outside `row` count 0.
    """
    if t.bit_length() > len(planes):
        return 0  # every count is below 2**len(planes) <= t
    eq, gt = row, 0
    for k in range(len(planes) - 1, -1, -1):
        if t >> k & 1:
            eq &= planes[k]
        else:
            above = eq & planes[k]
            gt |= above
            eq ^= above
    return gt | eq


def has_run(mask: int, w: int, unit: int = 1, have: int = 1) -> int:
    """Nonzero iff `mask` has a run of `w` (>= 1) set bits, `unit` apart.

    About log2(w / have) shift-ANDs: after each, bit j is set iff bits j,
    j + unit, .., j + (width - 1) * unit all were, and the width doubles
    until it reaches w.  Unit 1 finds consecutive bits; a row stride finds
    the same column in consecutive rows.  A `mask` that already marks runs
    of `have` <= w bits starts from that width, so a w <= 2 * have costs
    one shift-AND and w == have none.
    """
    width = have
    while width < w and mask:
        step = min(width, w - width)
        mask &= mask >> step * unit
        width += step
    return mask


def sweep(boards: Iterable[int], units: tuple[int, ...]) -> tuple[int, int]:
    """The paper's frequency sweep: the largest side of an all-ones square
    (boards are a grid's lines) or cube (boards are a volume's layers), and
    the number of counter planes it ends with: the bit length of the longest
    run of ones it counts.  Every board is read.

    The counter holds, at every position, the run of ones ending at the
    current board.  A square of side s ending at line i contains one of side
    s - 1 ending at line i - 1, and a cube of side s ending at layer d one
    of side s - 1 ending at layer d - 1, so the best side grows by at most
    one per board and after each board the only side worth testing is
    t = best + 1.  The positions whose run is at least t form a mask, and a
    window of side t exists iff eroding it by t along each of `units` (1
    along a line; 1, then the stride cols + 1, across a layer) leaves a bit
    set: erosion by a box separates into one per axis (Serra 1982).
    """
    planes: list[int] = []
    best = 0
    for board in boards:
        increment(planes, board)
        mask = at_least(planes, best + 1, board)
        for unit in units:
            mask = has_run(mask, best + 1, unit)
        if mask:
            best += 1
    return best, len(planes)


def freq_bits_lines(blocks: Iterable[bytes], cols: int) -> SquareResult:
    """squares.freq_bits on a matrix's lines of `cols` cells, given a block
    of whole lines at a time, sweeping the axis its width picks before any
    block is read.  A square's side is the same on the transpose, so the
    answer is freq_bits' either way.

    When a full block (`core._block_size`, read at call time) holds more
    lines than cols, which at the default `core.BLOCK` means fewer than 256
    columns, each block is folded into one int per column (`fold_columns`),
    and the columns, one bit per cell, are swept at the end.  Otherwise each
    block's rows are swept as it comes, so the sweep holds a block and
    O(cols log rows) bits of counter planes.  A block is let go before the
    next is read.
    """
    stride, rows = cols + 1, 0
    if _block_size(stride) // stride > cols:
        columns = [0] * cols
        for block in blocks:
            rows += fold_columns(columns, block)
            del block
        best = sweep(columns, (1,))[0]
        return SquareResult(best, best * best, rows * cols)

    def lines() -> Iterator[int]:
        nonlocal rows
        for block in blocks:
            rows += len(block) // stride
            yield from line_rows(block, cols)
            del block

    best = sweep(lines(), (1,))[0]
    return SquareResult(best, best * best, rows * cols)


def max_cube_lines(blocks: Iterable[bytes], cols: int) -> CubeResult:
    """cubes.max_cube on a volume's lines of `cols` cells, given as
    `layer_boards` takes them.

    Each layer's board goes through `sweep`, which states why one test per
    layer, at t = best + 1, suffices: the positions whose depth run is at
    least t are eroded by t along rows (unit 1), then along columns (unit
    cols + 1), and a bit left over is a t x t x t cube.  volume_visited
    counts the voxels the read checks, depth * rows * cols.
    """
    lines = 0

    def boards() -> Iterator[int]:
        nonlocal lines
        for board, rows in layer_boards(blocks, cols):
            lines += rows
            yield board

    best = sweep(boards(), (1, cols + 1))[0]
    return CubeResult(best, lines * cols)
