"""Property-based tests: text round trips, the bit-parallel kernels against
the per-cell ones, monotonicity in the ones, and the shape of every rendered
benchmark table."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squarelab.bench import TABLES, BenchRecord, render_table
from squarelab.bitplanes import freq_bits_text, max_cube_text
from squarelab.core import MatrixParseError, RectResult, read_matrix, read_volume
from squarelab.cubes import CUBE_ORACLE_CELL_CAP, brute_force_cube, max_cube
from squarelab.grid import (
    BinaryMatrix,
    BinaryVolume,
    EdgeKind,
    parse_matrix,
    parse_volume,
    serialize_matrix,
    serialize_volume,
)
from squarelab.histogram import (
    build_histograms,
    largest_rect_in_histogram,
    maximal_rectangle,
    maximal_rectangle_text,
)
from squarelab.squares import freq_bits, freq_square

# the host's speed varies, so no per-example deadline
PROPERTY = settings(deadline=None, max_examples=150)


@st.composite
def matrices(draw, max_dim=10):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    cells = draw(st.binary(min_size=rows * cols, max_size=rows * cols)
                 .map(lambda raw: bytes(b & 1 for b in raw)))
    return BinaryMatrix(rows, cols, cells)


@st.composite
def volumes(draw, max_dim=5):
    depth = draw(st.integers(1, max_dim))
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    n = depth * rows * cols
    cells = draw(st.binary(min_size=n, max_size=n)
                 .map(lambda raw: bytes(b & 1 for b in raw)))
    return BinaryVolume(depth, rows, cols, cells)


@PROPERTY
@given(matrices())
def test_matrix_text_round_trip(m):
    text = serialize_matrix(m)
    assert parse_matrix(text) == m
    assert serialize_matrix(parse_matrix(text)) == text


@PROPERTY
@given(volumes())
def test_volume_text_round_trip(v):
    text = serialize_volume(v)
    assert parse_volume(text) == v
    assert serialize_volume(parse_volume(text)) == text


@PROPERTY
@given(matrices(max_dim=70))
def test_freq_bits_equals_freq_square(m):
    assert freq_bits(m) == freq_square(m)


# file bytes: the format's three, and six that int(.., 2) or the decoder
# treat specially, '0', '1' and newlines drawn most often
FILE_BYTES = [b"0", b"1", b"\n"] * 4 + [b"\r", b"_", b"+", b" ", b"2", b"\xff"]
files = st.lists(st.sampled_from(FILE_BYTES), max_size=16).map(b"".join)
# well-formed files, and those with one byte dropped or doubled
grid_files = st.one_of(
    matrices(max_dim=4).map(lambda m: serialize_matrix(m).encode()),
    volumes(max_dim=3).map(lambda v: serialize_volume(v).encode()),
).flatmap(lambda data: st.sampled_from([
    data, data[:-1], data[1:], *(data[:k] + data[k - 1:] for k in range(1, len(data)))]))


def line_parse(parse, data):
    """The line parser's grid, or its error's line and message."""
    try:
        return parse(data.decode("utf-8", "surrogateescape"))
    except MatrixParseError as exc:
        return exc.line, str(exc)


def bulk_read(read, data):
    """`read`'s grid, through its text, or its error's line and message."""
    try:
        t = read(data)
    except MatrixParseError as exc:
        return exc.line, str(exc)
    return t.matrix() if hasattr(t, "matrix") else t.volume()


@PROPERTY
@given(st.one_of(files, grid_files))
# int(b" 1", 2) == 1 and int(b"1_1", 2) == 3, so these must fail the check
@example(b"1_\n11\n")
@example(b"+1\n11\n")
@example(b" 1\n11\n")
@example(b"\n11\n11\n")  # the first newline gives cols 0
def test_bulk_read_agrees_with_the_line_parser(data):
    # the bulk check accepts what the line parser accepts, with the same
    # shape and cells, and anything else fails with the line parser's error
    assert bulk_read(read_matrix, data) == line_parse(parse_matrix, data)
    assert bulk_read(read_volume, data) == line_parse(parse_volume, data)


def dense_cells(draw, n):
    """n cells at a drawn density from all zeros to all ones."""
    cut = draw(st.integers(0, 256))
    return draw(st.binary(min_size=n, max_size=n)
                .map(lambda raw: bytes(b < cut for b in raw)))


@st.composite
def dense_matrices(draw, max_dim):
    """Matrices of any density, so long runs and whole-row rectangles occur."""
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    return BinaryMatrix(rows, cols, dense_cells(draw, rows * cols))


@st.composite
def dense_volumes(draw, max_dim):
    """Volumes of any density, so cubes larger than side 1 occur."""
    depth, rows, cols = (draw(st.integers(1, max_dim)) for _ in range(3))
    return BinaryVolume(depth, rows, cols, dense_cells(draw, depth * rows * cols))


def stack_rectangle(m):
    """The stack on every row's histogram, kept on a strictly larger area."""
    best = RectResult(0, 0, 0)
    for heights in build_histograms(m):
        candidate = largest_rect_in_histogram(heights)
        if candidate.area > best.area:
            best = candidate
    return best


@PROPERTY
@given(st.one_of(dense_matrices(max_dim=16), dense_matrices(max_dim=40)))
def test_maximal_rectangle_equals_the_row_stack(m):
    # on grids up to 16x16 the largest area is often held by several shapes
    assert maximal_rectangle(m) == stack_rectangle(m)


@PROPERTY
@given(dense_volumes(max_dim=9))
def test_max_cube_equals_the_brute_force_oracle(v):
    assert v.depth * v.rows * v.cols <= CUBE_ORACLE_CELL_CAP
    assert max_cube(v).side == brute_force_cube(v).side


@PROPERTY
@given(dense_matrices(max_dim=40))
def test_kernels_on_the_file_text_equal_the_matrix_kernels(m):
    t = read_matrix(serialize_matrix(m).encode())
    assert freq_bits_text(t) == freq_bits(m)
    assert maximal_rectangle_text(t) == maximal_rectangle(m)


@PROPERTY
@given(dense_volumes(max_dim=9))
def test_max_cube_on_the_file_text_equals_max_cube(v):
    assert max_cube_text(read_volume(serialize_volume(v).encode())) == max_cube(v)


@PROPERTY
@given(matrices(), st.data())
def test_setting_a_zero_never_shrinks_the_answer(m, data):
    zeros = [i for i, cell in enumerate(m.cells) if not cell]
    if not zeros:
        return
    i = data.draw(st.sampled_from(zeros))
    grown = BinaryMatrix(m.rows, m.cols, m.cells[:i] + b"\x01" + m.cells[i + 1:])
    assert freq_square(grown).side >= freq_square(m).side
    assert maximal_rectangle(grown).area >= maximal_rectangle(m).area


_times = st.floats(0.0, 1e6)
_records = st.builds(
    BenchRecord,
    size=st.integers(1, 5000),
    density=st.floats(0.0, 1.0),
    baseline_times=st.just(()),
    candidate_times=st.just(()),
    baseline_trimmed_mean=_times,
    candidate_trimmed_mean=_times,
    speedup=st.one_of(_times, st.just(float("inf"))),
    same_result=st.booleans(),
    case=st.one_of(st.none(), st.sampled_from([k.value for k in EdgeKind])),
)


@PROPERTY
@given(st.sampled_from(list(TABLES)), st.booleans(), st.lists(_records, max_size=20))
def test_render_table_shape(key, markdown, records):
    columns = TABLES[key]
    text = render_table(records, columns, markdown)
    assert text.endswith("\n")
    lines = text.splitlines()
    # CSV: the header; markdown: header and rule, plus the edge table's skipped-empty row
    header_lines = 1 if not markdown else 3 if key == ("edge", "md") else 2
    assert len(lines) == header_lines + len(records)
    if markdown:
        assert all(line.startswith(("| ", "|-")) for line in lines)
        widths = {line.count("|") for line in lines}
    else:
        widths = {line.count(",") + 1 for line in lines}
    assert widths == {len(columns) + (1 if markdown else 0)}
