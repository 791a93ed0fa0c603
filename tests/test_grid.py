import copy
import copyreg
import inspect
import pickle
import random

import pytest

from squarelab.core import (
    CubeResult,
    InvalidCharError,
    LayerShapeMismatchError,
    MatrixText,
    RaggedRowsError,
    RectResult,
    SquareResult,
    VolumeText,
    read_matrix,
    read_volume,
)
from squarelab.grid import (
    EMPTY_MATRIX,
    EMPTY_VOLUME,
    BinaryMatrix,
    BinaryVolume,
    EdgeKind,
    GenSpec,
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


def test_read_matrix_reads_the_file_in_place():
    data = b"110\n011\n"
    t = read_matrix(data)
    assert t == (data, 2, 3) and t.text is data
    assert t.matrix() == parse_matrix(data.decode())
    # a missing final newline is added; the shape and cells are the same
    assert read_matrix(b"110\n011") == t


def test_read_volume_reads_the_file_in_place():
    data = b"10\n01\n\n11\n00\n\n01\n11\n"
    t = read_volume(data)
    assert t == (data, 3, 2, 2) and t.text is data and t.pitch == 7
    assert t.volume() == parse_volume(data.decode())
    assert read_volume(data[:-1]) == t
    assert read_volume(b"1\n") == (b"1\n", 1, 1, 1)


def test_empty_file_is_the_empty_grid():
    assert read_matrix(b"").matrix() == EMPTY_MATRIX
    assert read_volume(b"").volume() == EMPTY_VOLUME


@pytest.mark.parametrize("fields", [
    (b" 1\n11\n", 2, 2),  # int(b" 1", 2) would read it
    (b"1_\n11\n", 2, 2),
    (b"+1\n11\n", 2, 2),
    (b"11\n11", 2, 2),
    (b"111\n1\n", 2, 2),
    (b"11\n11\n", 1, 2),
    (b"", -1, 0),
])
def test_matrix_text_checks_its_text(fields):
    with pytest.raises(ValueError):
        MatrixText(*fields)


@pytest.mark.parametrize("fields", [
    (b"11\n11\n\n1_\n11\n", 2, 2, 2),
    (b"11\n11\n11\n11\n", 2, 2, 2),  # no blank line between the layers
    (b"11\n11\n\n11\n11\n\n", 2, 2, 2),
    (b"11\n1\n1\n", 2, 1, 2),  # a cell where the blank line goes, a newline in a row
    (b"1\n1\n\n11\n\n", 2, 2, 1),  # the second layer's rows end off the stride
    (b"11\n", 1, 0, 2),
    (b"\n", 2, 0, 0),
])
def test_volume_text_checks_its_text(fields):
    with pytest.raises(ValueError):
        VolumeText(*fields)


def test_grid_text_rebuilds_through_the_check():
    for t in read_matrix(b"10\n01\n"), read_volume(b"10\n01\n\n11\n11\n"):
        assert pickle.loads(pickle.dumps(t)) == t and copy.deepcopy(t) == t
        rebuild, args = t.__reduce_ex__(2)[:2]
        assert rebuild is copyreg.__newobj__ and args == (type(t), *t)
    # the arguments go through __new__'s check, so a text that is not the
    # shape it claims does not unpickle
    with pytest.raises(ValueError, match="not 2 lines"):
        copyreg.__newobj__(MatrixText, b"10\n0x\n", 2, 2)
    with pytest.raises(ValueError, match="not 2 layers"):
        copyreg.__newobj__(VolumeText, b"10\n01\n\n11\n1\n\n", 2, 2, 2)


@pytest.mark.parametrize("rows, cols", [(0, 0), (3, 0), (1, 7), (7, 1), (4, 5), (5, 4)])
def test_grid_text_of_a_grid_is_its_file(rows, cols):
    m = (BinaryMatrix(rows, cols, b"") if not rows * cols
         else generate_matrix(GenSpec(rows, cols, 0.5, 3)))
    t = MatrixText.of(m)
    assert t.text == serialize_matrix(m).encode() and t.matrix() == m
    assert MatrixText(*t) == t
    if rows * cols:
        v = generate_volume(GenSpec(rows, cols, 0.5, 3, depth=3))
        vt = VolumeText.of(v)
        assert vt.text == serialize_volume(v).encode() and vt.volume() == v
        assert VolumeText(*vt) == vt
    assert VolumeText.of(EMPTY_VOLUME) == (b"", 0, 0, 0)
