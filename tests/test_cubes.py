import itertools
import random

import pytest

from squarelab import bitplanes, squares
from squarelab.cubes import (
    CUBE_ORACLE_CELL_CAP,
    CubeResult,
    DepthFreqMatrix,
    ShapeMismatchError,
    brute_force_cube,
    depth_freq_update,
    exists_cube_at_depth,
    max_cube,
)
from squarelab.grid import (
    EMPTY_VOLUME,
    BinaryMatrix,
    BinaryVolume,
    GenSpec,
    generate_volume,
    parse_volume,
)


def volume_of(*layer_rows):
    return BinaryVolume.from_layers([BinaryMatrix.from_rows(r) for r in layer_rows])


def test_depth_freq_update_counts_runs():
    f = DepthFreqMatrix(2, 2)
    depth_freq_update(f, BinaryMatrix.from_rows([[1, 0], [1, 1]]))
    assert f.values == [1, 0, 1, 1]
    depth_freq_update(f, BinaryMatrix.from_rows([[1, 1], [0, 1]]))
    assert f.values == [2, 1, 0, 2]
    depth_freq_update(f, BinaryMatrix.from_rows([[0, 1], [1, 1]]))
    assert f.values == [0, 2, 1, 3]


def test_depth_freq_update_shape_check():
    f = DepthFreqMatrix(2, 2)
    with pytest.raises(ShapeMismatchError):
        depth_freq_update(f, BinaryMatrix.from_rows([[1, 0, 1]]))


def test_exists_cube_on_known_frequency_matrix():
    f = DepthFreqMatrix.from_rows([[3, 3, 1], [2, 3, 1], [3, 2, 0]])
    assert exists_cube_at_depth(f, 2) is True
    assert exists_cube_at_depth(f, 3) is False


def test_exists_cube_k1_needs_one_positive_entry():
    f = DepthFreqMatrix.from_rows([[0, 0], [0, 1]])
    assert exists_cube_at_depth(f, 1) is True
    zero = DepthFreqMatrix.from_rows([[0, 0], [0, 0]])
    assert exists_cube_at_depth(zero, 1) is False


def test_exists_cube_window_must_fit():
    f = DepthFreqMatrix.from_rows([[5, 5], [5, 5]])
    assert exists_cube_at_depth(f, 2) is True
    assert exists_cube_at_depth(f, 3) is False


def test_exists_cube_runs_no_bitplanes_sweep(monkeypatch):
    # the per-voxel reference must not share the sweep max_cube runs, or a
    # defect in it would hide from the comparisons below
    def no_sweep(*args):
        raise AssertionError("bitplanes.sweep ran")

    monkeypatch.setattr(squares, "sweep", no_sweep)
    monkeypatch.setattr(bitplanes, "sweep", no_sweep)
    f = DepthFreqMatrix.from_rows([[3, 3, 1], [2, 3, 1], [3, 2, 0]])
    assert exists_cube_at_depth(f, 2) is True
    assert exists_cube_at_depth(f, 3) is False
    assert exists_cube_at_depth(DepthFreqMatrix.from_rows([[0, 0], [0, 1]]), 1) is True
    assert exists_cube_at_depth(DepthFreqMatrix.from_rows([[5, 5], [5, 5]]), 3) is False


def test_exists_cube_rejects_nonpositive_k():
    f = DepthFreqMatrix.from_rows([[1]])
    with pytest.raises(ValueError):
        exists_cube_at_depth(f, 0)


def test_max_cube_all_ones():
    v = volume_of([[1, 1], [1, 1]], [[1, 1], [1, 1]])
    assert max_cube(v).side == 2
    assert brute_force_cube(v).side == 2


def test_max_cube_all_zeros():
    v = volume_of([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert max_cube(v).side == 0
    assert brute_force_cube(v).side == 0


def test_max_cube_empty_volume():
    assert max_cube(EMPTY_VOLUME).side == 0
    assert brute_force_cube(EMPTY_VOLUME).side == 0


def test_max_cube_single_voxel():
    v = volume_of([[1]])
    assert max_cube(v).side == 1


def test_max_cube_limited_by_depth():
    layer = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
    v = volume_of(layer, layer)
    assert max_cube(v).side == 2
    assert brute_force_cube(v).side == 2


def test_max_cube_broken_interior():
    top = [[1, 1], [1, 1]]
    bottom = [[1, 1], [1, 0]]
    v = volume_of(top, bottom)
    assert max_cube(v).side == 1
    assert brute_force_cube(v).side == 1


def test_max_cube_embedded():
    text = (
        "0000\n0110\n0110\n0000\n"
        "\n"
        "0000\n0110\n0110\n0000\n"
        "\n"
        "0000\n0000\n0000\n0000\n"
    )
    v = parse_volume(text)
    assert max_cube(v).side == 2


@pytest.mark.parametrize("depth, rows, cols", [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)],
                         ids=["2x2x2", "2x2x3", "2x3x2", "3x2x2"])
def test_every_small_volume_agrees(depth, rows, cols):
    for bits in itertools.product((0, 1), repeat=depth * rows * cols):
        v = BinaryVolume(depth, rows, cols, bytes(bits))
        assert max_cube(v).side == brute_force_cube(v).side, bits


def reference_sweep(v):
    """The per-voxel sweep: one exists_cube_at_depth test per layer at best + 1."""
    f = DepthFreqMatrix(v.rows, v.cols)
    best = 0
    for d in range(v.depth):
        depth_freq_update(f, v.layer(d))
        if exists_cube_at_depth(f, best + 1):
            best += 1
    return best


def test_runs_do_not_cross_row_ends():
    # rows 0 and 1 end in a one that rows 1 and 2 start with: read as one
    # stream of bits, the layer holds a 2x2 square that is not in the grid
    layer = [[0, 0, 1], [1, 0, 1], [1, 0, 0]]
    v = volume_of(layer, layer)
    assert max_cube(v).side == brute_force_cube(v).side == 1
    # the same across two-column row ends makes a false 3x3 next to a true 2x2
    wide = [[0] * 6 + [1] * 2] + [[1] + [0] * 5 + [1] * 2] * 2 + [[1] + [0] * 7]
    v = volume_of(wide, wide, wide)
    assert max_cube(v).side == brute_force_cube(v).side == 2


@pytest.mark.parametrize("depth, rows, cols", [
    (6, 6, 1), (6, 1, 6), (1, 6, 6), (1, 1, 40), (40, 1, 1), (3, 1, 1)])
def test_volumes_one_voxel_thick(depth, rows, cols):
    ones = BinaryVolume(depth, rows, cols, b"\x01" * (depth * rows * cols))
    assert max_cube(ones).side == 1
    rng = random.Random(depth * 100 + rows * 10 + cols)
    for _ in range(20):
        v = generate_volume(GenSpec(rows, cols, rng.random(), rng.getrandbits(32),
                                    depth=depth))
        assert max_cube(v).side == brute_force_cube(v).side


@pytest.mark.parametrize("cols", [63, 64, 65])
def test_word_edge_widths(cols):
    rng = random.Random(cols)
    for _ in range(25):
        spec = GenSpec(rng.randint(1, 4), cols, rng.choice((0.8, 0.95, 1.0)),
                       rng.getrandbits(32), depth=rng.randint(1, 4))
        v = generate_volume(spec)
        assert max_cube(v).side == brute_force_cube(v).side == reference_sweep(v)


@pytest.mark.parametrize("rows", [1, 7, 8, 9, 17])
def test_layers_of_whole_and_partial_eight_row_blocks(rows):
    # text_layers packs eight rows at a time, a partial block on top
    rng = random.Random(rows)
    for _ in range(25):
        spec = GenSpec(rows, rng.randint(1, 20), rng.choice((0.8, 0.95, 1.0)),
                       rng.getrandbits(32), depth=rng.randint(1, 20))
        v = generate_volume(spec)
        assert max_cube(v) == CubeResult(reference_sweep(v), v.depth * v.rows * v.cols)


def test_all_ones_cubes():
    for n in range(1, 13):
        v = BinaryVolume(n, n, n, b"\x01" * n**3)
        assert max_cube(v) == CubeResult(n, n**3)


@pytest.mark.parametrize("depth", [1, 2, 5])
def test_depth_is_the_limit(depth):
    v = BinaryVolume(depth, 9, 11, b"\x01" * (depth * 99))
    assert max_cube(v).side == depth
    # one zero voxel per layer, each in a different corner, still leaves room
    corners = (0, 10, 88, 98)
    cells = bytearray(v.cells)
    for d in range(depth):
        cells[d * 99 + corners[d % 4]] = 0
    v = BinaryVolume(depth, 9, 11, bytes(cells))
    assert max_cube(v).side == reference_sweep(v) == depth


@pytest.mark.parametrize("depth, rows, cols, density",
                         [(40, 40, 40, 0.97), (120, 40, 40, 0.93)])
@pytest.mark.parametrize("seed", [1, 2])
def test_agrees_with_the_per_voxel_sweep_past_the_brute_cap(depth, rows, cols,
                                                           density, seed):
    v = generate_volume(GenSpec(rows, cols, density, seed, depth=depth))
    assert depth * rows * cols > CUBE_ORACLE_CELL_CAP
    result = max_cube(v)
    assert result.side == reference_sweep(v)
    assert result.side > 1
    assert result.volume_visited == depth * rows * cols


def test_seeded_volumes_agree():
    rng = random.Random(17)
    for _ in range(150):
        d = rng.randint(1, 6)
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        v = generate_volume(GenSpec(r, c, rng.random(), rng.getrandbits(32), depth=d))
        result = max_cube(v)
        assert result.side == brute_force_cube(v).side
        assert result.volume_visited == v.depth * v.rows * v.cols


def test_exists_cube_antitone_in_k():
    rng = random.Random(29)
    for _ in range(30):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        f = DepthFreqMatrix.from_rows(
            [[rng.randint(0, 6) for _ in range(c)] for _ in range(r)])
        satisfied = [k for k in range(1, min(r, c) + 1)
                     if exists_cube_at_depth(f, k)]
        # true at k implies true at every smaller k with a fitting window
        assert satisfied == list(range(1, len(satisfied) + 1))


def test_depth_freq_rolls_match_recomputation():
    rng = random.Random(37)
    for _ in range(20):
        spec = GenSpec(rng.randint(1, 5), rng.randint(1, 5), rng.random(),
                       rng.getrandbits(32), depth=rng.randint(1, 5))
        v = generate_volume(spec)
        f = DepthFreqMatrix(v.rows, v.cols)
        for d in range(v.depth):
            depth_freq_update(f, v.layer(d))
            for i in range(v.rows):
                for j in range(v.cols):
                    run = 0
                    for back in range(d, -1, -1):
                        if v.get(back, i, j):
                            run += 1
                        else:
                            break
                    assert f.get(i, j) == run


def test_satisfiable_sides_are_downward_closed():
    rng = random.Random(43)
    for _ in range(25):
        spec = GenSpec(rng.randint(1, 5), rng.randint(1, 5), rng.random(),
                       rng.getrandbits(32), depth=rng.randint(1, 5))
        v = generate_volume(spec)
        limit = min(v.depth, v.rows, v.cols)
        satisfied = set()
        for k in range(1, limit + 1):
            f = DepthFreqMatrix(v.rows, v.cols)
            for d in range(v.depth):
                depth_freq_update(f, v.layer(d))
                if d >= k - 1 and exists_cube_at_depth(f, k):
                    satisfied.add(k)
                    break
        # a side-k cube contains a side-(k-1) cube, so the set has no gaps
        assert satisfied == set(range(1, len(satisfied) + 1))
        assert len(satisfied) == brute_force_cube(v).side


def test_brute_force_cube_cap():
    v = generate_volume(GenSpec(20, 20, 0.5, 0, depth=20))
    assert v.depth * v.rows * v.cols > CUBE_ORACLE_CELL_CAP
    with pytest.raises(ValueError):
        brute_force_cube(v)


def test_max_cube_deterministic_on_rerun():
    v = generate_volume(GenSpec(8, 8, 0.7, 5, depth=8))
    assert max_cube(v) == max_cube(v)


def test_cube_result_is_a_value_of_its_own_type():
    r = CubeResult(1, 8)
    assert repr(r) == "CubeResult(side=1, volume_visited=8)"
    assert CubeResult(side=1, volume_visited=8) == r
    assert hash(CubeResult(1, 8)) == hash(r)
    assert r != (1, 8) and (1, 8) != r
    for name in ("side", "volume_visited"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
    assert not hasattr(r, "_replace") and not hasattr(CubeResult, "_make")


def test_depth_freq_matrix_is_a_mutable_value():
    f = DepthFreqMatrix(2, 1)
    assert repr(f) == "DepthFreqMatrix(rows=2, cols=1, values=[0, 0])"
    assert repr(DepthFreqMatrix.from_rows([[1, 2]])) == (
        "DepthFreqMatrix(rows=1, cols=2, values=[1, 2])")
    assert f == DepthFreqMatrix(2, 1, [0, 0]) and f != DepthFreqMatrix(1, 2)
    assert DepthFreqMatrix(2, 1, []) == f
    f.values[1] = 3
    assert f.get(1, 0) == 3 and f != DepthFreqMatrix(2, 1)
    f.values = [4, 4]
    assert f == DepthFreqMatrix(2, 1, [4, 4])
    with pytest.raises(TypeError):
        hash(f)
    with pytest.raises(AttributeError):
        f.extra = 1
    with pytest.raises(ValueError, match="value count 3 != 2x1"):
        DepthFreqMatrix(2, 1, [0, 0, 0])
