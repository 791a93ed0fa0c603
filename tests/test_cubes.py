import itertools
import random

import pytest

from squarelab.cubes import (
    CUBE_ORACLE_CELL_CAP,
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


def test_all_2x2x2_volumes_agree():
    for bits in itertools.product((0, 1), repeat=8):
        layers = [
            [[bits[0], bits[1]], [bits[2], bits[3]]],
            [[bits[4], bits[5]], [bits[6], bits[7]]],
        ]
        v = volume_of(*layers)
        assert max_cube(v).side == brute_force_cube(v).side


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
