import copy
import copyreg
import inspect
import io
import itertools
import pickle
import random
from unittest import mock

import pytest

from squarelab import core
from squarelab.bitplanes import max_cube_lines
from squarelab.core import (
    CubeResult,
    InvalidCharError,
    LayerShapeMismatchError,
    RaggedRowsError,
    RectResult,
    SquareResult,
    read_lines,
)
from squarelab.grid import (
    EMPTY_MATRIX,
    EMPTY_VOLUME,
    BinaryMatrix,
    BinaryVolume,
    EdgeKind,
    GenSpec,
    _COLUMN_COPY_COLS,
    _DRAW_BLOCK,
    _random_cells,
    generate_edge_case,
    generate_matrix,
    generate_volume,
    parse_matrix,
    parse_volume,
    serialize_matrix,
    serialize_volume,
)


def test_matrix_from_rows_roundtrip():
    m = BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert m.rows == 2 and m.cols == 3
    assert m.to_rows() == [[1, 0, 1], [0, 1, 1]]
    assert m.get(0, 0) == 1
    assert m.get(1, 0) == 0
    assert m.ones() == 4


def test_matrix_row_accessor():
    m = BinaryMatrix.from_rows([[1, 1], [0, 1]])
    assert m.row(0) == b"\x01\x01"
    assert m.row(1) == b"\x00\x01"


def test_empty_matrix_is_canonical():
    assert EMPTY_MATRIX.rows == 0
    assert EMPTY_MATRIX.cols == 0
    assert EMPTY_MATRIX.cells == b""
    assert BinaryMatrix.from_rows([]) == EMPTY_MATRIX


def test_matrix_rejects_bad_cells():
    with pytest.raises(ValueError):
        BinaryMatrix(1, 2, b"\x00\x02")
    with pytest.raises(ValueError):
        BinaryMatrix(2, 2, b"\x01\x01\x01")


def test_parse_simple():
    m = parse_matrix("101\n010\n")
    assert m.to_rows() == [[1, 0, 1], [0, 1, 0]]


def test_parse_without_trailing_newline():
    assert parse_matrix("11\n00") == parse_matrix("11\n00\n")


def test_parse_empty_input():
    assert parse_matrix("") == EMPTY_MATRIX


def test_parse_ragged_rows_names_line():
    with pytest.raises(RaggedRowsError) as info:
        parse_matrix("111\n11\n111\n")
    assert info.value.line == 2


def test_parse_invalid_char_names_line():
    with pytest.raises(InvalidCharError) as info:
        parse_matrix("10\n1x\n")
    assert info.value.line == 2


def test_serialize_roundtrip():
    text = "110\n011\n000\n"
    assert serialize_matrix(parse_matrix(text)) == text
    assert serialize_matrix(EMPTY_MATRIX) == ""


def test_serialize_parse_roundtrip_random():
    rng = random.Random(41)
    for _ in range(50):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = generate_matrix(GenSpec(rows, cols, rng.random(), rng.getrandbits(32)))
        assert parse_matrix(serialize_matrix(m)) == m


def test_volume_from_layers():
    a = BinaryMatrix.from_rows([[1, 0], [1, 1]])
    b = BinaryMatrix.from_rows([[0, 1], [1, 0]])
    v = BinaryVolume.from_layers([a, b])
    assert (v.depth, v.rows, v.cols) == (2, 2, 2)
    assert v.get(0, 0, 0) == 1
    assert v.get(1, 0, 0) == 0
    assert v.layer(1) == b


@pytest.mark.parametrize("d", [4, 5, -1, -4])
def test_volume_layer_index_must_be_in_range(d):
    v = BinaryVolume(4, 3, 3, bytes(36))
    with pytest.raises(IndexError, match="depth 4"):
        v.layer(d)
    assert v.layer(3) == BinaryMatrix(3, 3, bytes(9))


def test_volume_layer_shape_must_match():
    a = BinaryMatrix.from_rows([[1, 0]])
    b = BinaryMatrix.from_rows([[1], [0]])
    with pytest.raises(LayerShapeMismatchError):
        BinaryVolume.from_layers([a, b])


def test_parse_volume_blank_line_separated():
    v = parse_volume("10\n01\n\n11\n00\n")
    assert v.depth == 2
    assert v.layer(0).to_rows() == [[1, 0], [0, 1]]
    assert v.layer(1).to_rows() == [[1, 1], [0, 0]]


def test_parse_volume_empty():
    assert parse_volume("") == EMPTY_VOLUME


def test_parse_volume_shape_drift_rejected():
    # the line named is the blank line closing the layer, or one past the text
    with pytest.raises(LayerShapeMismatchError) as info:
        parse_volume("10\n01\n\n111\n000\n")
    assert info.value.line == 6
    with pytest.raises(LayerShapeMismatchError) as info:
        parse_volume("1\n\n11\n")
    assert info.value.line == 4
    with pytest.raises(LayerShapeMismatchError) as info:
        parse_volume("1\n\n11\n\n1\n")
    assert info.value.line == 4


@pytest.mark.parametrize("text, line", [
    ("10\n\n\n01\n", 3),  # two blank lines in a row
    ("\n10\n", 1),  # leading blank line
    ("10\n01\n\n", 4),  # trailing blank line
])
def test_parse_volume_empty_layer_names_line(text, line):
    with pytest.raises(LayerShapeMismatchError) as info:
        parse_volume(text)
    assert info.value.line == line
    assert str(info.value) == f"empty layer before line {line}"


def test_parse_volume_ragged_before_invalid():
    # a line both too long and holding a bad character is ragged, as in a matrix
    with pytest.raises(RaggedRowsError) as info:
        parse_volume("10\n01\n\n11\n0x1\n")
    assert info.value.line == 5
    with pytest.raises(RaggedRowsError):
        parse_matrix("11\n0x1\n")


def test_parse_volume_ragged_reports_global_line():
    with pytest.raises(RaggedRowsError) as info:
        parse_volume("10\n01\n\n11\n0\n")
    assert info.value.line == 5


def test_serialize_volume_roundtrip():
    text = "101\n010\n\n111\n000\n"
    assert serialize_volume(parse_volume(text)) == text


def test_generate_matrix_deterministic():
    spec = GenSpec(8, 8, 0.5, 123)
    assert generate_matrix(spec) == generate_matrix(spec)


def test_generate_matrix_density_extremes():
    ones = generate_matrix(GenSpec(5, 5, 1.0, 0))
    zeros = generate_matrix(GenSpec(5, 5, 0.0, 0))
    assert ones.ones() == 25
    assert zeros.ones() == 0


def test_generate_matrix_pinned_output():
    # frozen regression value: the generator must not drift between releases
    m = generate_matrix(GenSpec(4, 4, 0.5, 7))
    assert serialize_matrix(m) == "1101\n0110\n1111\n1011\n"


def test_generate_matrix_pinned_count():
    m = generate_matrix(GenSpec(100, 100, 0.5, 42))
    # 5-sigma binomial band for n=10000, p=0.5 is [4750, 5250]
    assert 4500 <= m.ones() <= 5500
    assert m.ones() == 4990


def test_generate_matrix_density_tracks_target():
    m = generate_matrix(GenSpec(100, 100, 0.3, 9))
    assert 0.25 < m.ones() / 10000 < 0.35


def test_random_cells_match_the_per_variate_rule():
    # _random_cells thresholds the top byte of each variate in blocks of
    # _DRAW_BLOCK draws and settles ties on the full variate; the reference
    # is one random() call per cell.  256*d is whole for 0, 0.5 and 1 (no
    # ties) and fractional for the rest.
    block = _DRAW_BLOCK
    densities = (0.0, 0.5, 1.0, 0.3, 0.93, 0.975, 1e-12, 1 - 1e-12)
    shapes = [(1, n, None) for n in (block - 1, block, block + 1, 2 * block + 1)]
    shapes += [(7, 9, 5), (40, 41, 3), (1, block + 1, 2)]
    ties = 0
    for seed, (d, (rows, cols, depth)) in enumerate(
        itertools.product(densities, shapes)
    ):
        spec = GenSpec(rows, cols, d, seed, depth)
        rand = random.Random(seed).random
        draws = [rand() for _ in range((depth or 1) * rows * cols)]
        expected = bytes(1 if u < d else 0 for u in draws)
        assert _random_cells(spec) == expected, spec
        if int(256 * d) != 256 * d:
            ties += sum(int(256 * u) == int(256 * d) for u in draws)
    assert ties > 0


def test_gen_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(0, 5, 0.5, 0)
    with pytest.raises(ValueError):
        GenSpec(5, 5, 1.5, 0)
    with pytest.raises(ValueError):
        GenSpec(5, 5, 0.5, -1)
    with pytest.raises(ValueError):
        GenSpec(5, 5, 0.5, 0, depth=0)


def test_generate_matrix_rejects_depth_spec():
    with pytest.raises(ValueError):
        generate_matrix(GenSpec(2, 2, 0.5, 0, depth=2))


def test_generate_volume_deterministic():
    spec = GenSpec(4, 4, 0.5, 11, depth=4)
    v1 = generate_volume(spec)
    v2 = generate_volume(spec)
    assert v1 == v2
    assert (v1.depth, v1.rows, v1.cols) == (4, 4, 4)


def test_generate_volume_requires_depth():
    with pytest.raises(ValueError):
        generate_volume(GenSpec(2, 2, 0.5, 0))


def test_edge_case_shapes():
    assert generate_edge_case(EdgeKind.ALL_ZEROS, 3).to_rows() == [[0, 0, 0]] * 3
    assert generate_edge_case(EdgeKind.ALL_ONES, 2).to_rows() == [[1, 1], [1, 1]]
    row = generate_edge_case(EdgeKind.SINGLE_ROW, 4)
    assert (row.rows, row.cols) == (1, 4) and row.ones() == 4
    col = generate_edge_case(EdgeKind.SINGLE_COL, 4)
    assert (col.rows, col.cols) == (4, 1) and col.ones() == 4


def test_edge_case_size_must_be_positive():
    with pytest.raises(ValueError):
        generate_edge_case(EdgeKind.ALL_ONES, 0)


# one value of each grid type and the repr the dataclass version printed
GRID_VALUES = [
    (BinaryMatrix(2, 2, b"\x01\x00\x00\x01"),
     "BinaryMatrix(rows=2, cols=2, cells=b'\\x01\\x00\\x00\\x01')"),
    (BinaryVolume(1, 1, 2, b"\x01\x00"),
     "BinaryVolume(depth=1, rows=1, cols=2, cells=b'\\x01\\x00')"),
    (GenSpec(3, 4, 0.5, 7), "GenSpec(rows=3, cols=4, density=0.5, seed=7, depth=None)"),
    (GenSpec(3, 4, 0.5, 7, depth=2), "GenSpec(rows=3, cols=4, density=0.5, seed=7, depth=2)"),
]


@pytest.mark.parametrize("value, text", GRID_VALUES, ids=lambda v: type(v).__name__)
def test_grid_value_repr_is_the_dataclass_one(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", [v for v, _ in GRID_VALUES], ids=lambda v: type(v).__name__)
def test_grid_values_are_immutable(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", [v for v, _ in GRID_VALUES], ids=lambda v: type(v).__name__)
def test_equal_grid_values_hash_equal(value):
    twin = type(value)(*value)
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)
    assert len({value, twin}) == 1


@pytest.mark.parametrize("cls", [BinaryMatrix, BinaryVolume, GenSpec])
def test_grid_constructor_takes_the_fields_by_name(cls):
    assert tuple(inspect.signature(cls).parameters) == cls._fields
    value = next(v for v, _ in GRID_VALUES if type(v) is cls)
    assert cls(**dict(zip(cls._fields, value))) == value
    assert GenSpec(3, 4, 0.5, 7).depth is None


def test_grid_values_have_no_unvalidated_constructor():
    values = [BinaryMatrix(1, 1, b"\x01"), SquareResult(2, 4, 9), RectResult(6, 2, 3),
              CubeResult(2, 8)]
    for value in values:
        cls = type(value)
        assert not hasattr(value, "_replace") and not hasattr(cls, "_make")
        # pickling and copying rebuild the value through __new__, which validates
        rebuild, args = value.__reduce_ex__(2)[:2]
        assert rebuild is copyreg.__newobj__ and args == (cls, *value)
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.copy(value) == value and copy.deepcopy(value) == value
    with pytest.raises(ValueError, match="cell count"):
        copyreg.__newobj__(BinaryMatrix, 1, 1, b"")


def test_grid_values_compare_as_tuples():
    # documented: a grid value is a tuple of its fields, in order
    m = BinaryMatrix(1, 2, b"\x01\x00")
    assert m == (1, 2, b"\x01\x00")
    assert len(m) == 3 and list(m) == [m.rows, m.cols, m.cells]
    assert GenSpec(1, 1, 0.0, 0) == (1, 1, 0.0, 0, None)


def read_blocks(data, layers, block):
    """The blocks `read_lines` reads from data, a block of `block` bytes of
    whole lines at most, and their width."""
    with mock.patch.object(core, "BLOCK", block):
        blocks, cols = read_lines(io.BytesIO(data), layers)
        return list(blocks), cols


def read_grid(data, layers, block=core.BLOCK):
    """The matrix, or volume (`layers`), `from_lines` makes of the blocks
    `read_lines` reads from data, as `solve --algo freq` and `cube --algo
    brute` read a file; None when either rejects it."""
    try:
        blocks, cols = read_blocks(data, layers, block)
        return (BinaryVolume if layers else BinaryMatrix).from_lines(blocks, cols)
    except ValueError:
        return None


def test_read_lines_reads_a_matrix_file_a_block_at_a_time():
    data = b"110\n011\n"
    assert read_blocks(data, False, core.BLOCK) == ([data], 3)
    assert read_blocks(data, False, 4) == ([b"110\n", b"011\n"], 3)
    for block in core.BLOCK, 4:
        assert read_grid(data, False, block) == parse_matrix(data.decode())
    # a missing final newline is added; the lines are the same
    for block in core.BLOCK, 4:
        assert read_blocks(b"110\n011", False, block) == read_blocks(data, False, block)


def test_read_lines_reads_a_volume_file_a_layer_at_a_time():
    # each blank line between layers is a block of its own, so no block
    # straddles a layer's end, whatever the block size
    data = b"10\n01\n\n11\n00\n\n01\n11\n"
    layers = [b"10\n01\n", b"\n", b"11\n00\n", b"\n", b"01\n11\n"]
    lines = [b"10\n", b"01\n", b"\n", b"11\n", b"00\n", b"\n", b"01\n", b"11\n"]
    assert read_blocks(data, True, core.BLOCK) == (layers, 2)
    assert read_blocks(data, True, 6) == (layers, 2)
    assert read_blocks(data, True, 3) == (lines, 2)
    for block in core.BLOCK, 6, 3:
        assert read_blocks(data[:-1], True, block) == read_blocks(data, True, block)
        assert read_grid(data, True, block) == parse_volume(data.decode())
    assert read_blocks(b"1\n", True, core.BLOCK) == ([b"1\n"], 1)


def test_empty_file_is_the_empty_grid():
    # no blocks, of no width, which `solve` and `cube` read as the empty grid
    for layers in False, True:
        assert read_blocks(b"", layers, core.BLOCK) == ([], 0)
    assert EMPTY_MATRIX.to_text() == b""
    assert BinaryMatrix.from_lines([], 0) == EMPTY_MATRIX
    assert EMPTY_VOLUME.to_text() == b""
    assert BinaryVolume.from_lines([], 0) == EMPTY_VOLUME
    assert max_cube_lines(iter([]), 0) == CubeResult(0, 0)


def read_shape(data, layers):
    """The shape of the grid `read_grid` reads from data, or the line the
    reader's error names."""
    try:
        blocks, cols = read_blocks(data, layers, core.BLOCK)
        return (BinaryVolume if layers else BinaryMatrix).from_lines(blocks, cols)[:-1]
    except core.MatrixParseError as exc:
        return exc.line


# texts that are no matrix of the shape given: the reader rejects each at
# the line given, or reads it as the shape given last, another shape or
# the same one with the last line's newline added
@pytest.mark.parametrize("fields", [
    (b" 1\n11\n", (2, 2), 1),  # int(b" 1", 2) would read it
    (b"1_\n11\n", (2, 2), 1),
    (b"+1\n11\n", (2, 2), 1),
    (b"11\n11", (2, 2), (2, 2)),
    (b"111\n1\n", (2, 2), 2),
    (b"11\n11\n", (1, 2), (2, 2)),
    (b"", (-1, 0), (0, 0)),
    (b"", (0, 5), (0, 0)),  # no rows, yet columns
])
def test_matrix_text_checks_its_text(fields):
    text, shape, read = fields
    assert read_shape(text, False) == read
    assert read != shape or not text.endswith(b"\n")


@pytest.mark.parametrize("fields", [
    (b"11\n11\n\n1_\n11\n", (2, 2, 2), 4),
    (b"11\n11\n11\n11\n", (2, 2, 2), (1, 4, 2)),  # no blank line between the layers
    (b"11\n11\n\n11\n11\n\n", (2, 2, 2), 7),
    (b"11\n1\n1\n", (2, 1, 2), 2),  # a cell where the blank line goes, a newline in a row
    (b"1\n1\n\n11\n\n", (2, 2, 1), 5),  # the second layer's rows end off the stride
    (b"11\n", (1, 0, 2), (1, 1, 2)),
    (b"\n", (2, 0, 0), 1),
    (b"", (0, 3, 3), (0, 0, 0)),  # no layers, yet rows and columns
])
def test_volume_text_checks_its_text(fields):
    text, shape, read = fields
    assert read_shape(text, True) == read != shape


def text_by_lines(m):
    """A matrix's file text built a line at a time."""
    return b"".join(bytes(48 + cell for cell in m.row(i)) + b"\n" for i in range(m.rows))


# `_text_of` copies a grid a column at a time up to _COLUMN_COPY_COLS
# columns and a line at a time past it; either copy gives the text built a
# line at a time, on grids shorter and longer than they are wide
@pytest.mark.parametrize("rows, cols", [
    (0, 0), (3, 0), (1, 7), (7, 1), (4, 5), (5, 4),
    *((rows, _COLUMN_COPY_COLS + k) for rows in (4, 70) for k in (-1, 0, 1)),
])
def test_grid_text_of_a_grid_is_its_file(rows, cols):
    m = (BinaryMatrix(rows, cols, b"") if not rows * cols
         else generate_matrix(GenSpec(rows, cols, 0.5, 3)))
    t = m.to_text()
    assert t == serialize_matrix(m).encode() and BinaryMatrix.from_lines([t], cols) == m
    assert t == text_by_lines(m)
    if rows * cols:
        v = generate_volume(GenSpec(rows, cols, 0.5, 3, depth=3))
        vt = v.to_text()
        assert vt == serialize_volume(v).encode() and read_grid(vt, True) == v
        assert vt == b"\n".join(text_by_lines(v.layer(d)) for d in range(3))
    assert EMPTY_VOLUME.to_text() == b""


def test_grid_text_has_no_cells_only_where_a_grid_has_none():
    # a text reads back as the grid of its shape for exactly the shapes
    # BinaryMatrix (one layer) or BinaryVolume accepts: among those with no
    # cells, the 0x0x0 volume and the r x 0 matrices, whose text is a
    # newline per row, given as one block, since the reader rejects a blank
    # line in a file
    def accepts(make, *fields):
        try:
            return make(*fields)
        except ValueError:
            return None

    for depth, rows, cols in itertools.product(range(3), range(4), range(4)):
        text = b"\n".join([(b"1" * cols + b"\n") * rows] * depth)
        cells = b"\x01" * (depth * rows * cols)
        if depth == 1:
            grid = accepts(BinaryMatrix, rows, cols, cells)
            read = accepts(BinaryMatrix.from_lines, [text], cols)
            shape = read and (1, read.rows, read.cols)
        else:
            grid = accepts(BinaryVolume, depth, rows, cols, cells)
            read = read_grid(text, True)
            shape = read and (read.depth, read.rows, read.cols)
        assert (shape == (depth, rows, cols)) == (grid is not None), (depth, rows, cols)
        assert grid is None or read.to_text() == grid.to_text() == text
