"""Maximal k x k x k cube detection in binary volumes.

A depth-frequency matrix counts consecutive ones along the depth axis per
(row, col).  A k x k window of counts >= k at depth d certifies a cube of
side k ending there.  One sweep over the layers finds the largest side,
testing one side per layer, by the invariant `bitplanes.sweep` states.

max_cube runs that sweep on whole-layer bitboards: the counts are a
bit-sliced counter over each packed layer, and the k x k window test is a
row erosion followed by a column erosion of the thresholded mask.  Its form
on a file's text, `bitplanes.max_cube_text`, is what `cube` runs.
DepthFreqMatrix, depth_freq_update and exists_cube_at_depth do the same
one voxel at a time; they are the reference max_cube is tested against,
as freq_square is for freq_bits.
"""

from __future__ import annotations

from .bitplanes import max_cube_text
from .core import CubeResult, OracleCapExceededError, VolumeText
from .grid import BinaryMatrix, BinaryVolume

CUBE_ORACLE_CELL_CAP = 4096


class ShapeMismatchError(ValueError):
    """Layer shape differs from the frequency matrix shape."""


class DepthFreqMatrix:
    """Per-(row, col) count of consecutive ones along depth, ending at the
    last layer applied.  Updated in place as layers stream through, so it
    is mutable, compares by value and has no hash.  No `values` (or an
    empty list) means all zeros."""

    __slots__ = ("rows", "cols", "values")

    def __init__(self, rows: int, cols: int, values: list[int] | None = None):
        if not values:
            values = [0] * (rows * cols)
        if len(values) != rows * cols:
            raise ValueError(f"value count {len(values)} != {rows}x{cols}")
        self.rows, self.cols, self.values = rows, cols, values

    def __repr__(self) -> str:
        return f"DepthFreqMatrix(rows={self.rows!r}, cols={self.cols!r}, values={self.values!r})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.rows, self.cols, self.values) == (other.rows, other.cols, other.values)

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "DepthFreqMatrix":
        flat = [v for row in rows for v in row]
        return cls(len(rows), len(rows[0]) if rows else 0, flat)

    def get(self, i: int, j: int) -> int:
        return self.values[i * self.cols + j]


def depth_freq_update(f: DepthFreqMatrix, layer: BinaryMatrix) -> DepthFreqMatrix:
    """Advance f by one layer: increment counts under ones, reset under zeros.

    Mutates f in place and returns it.  Applying layer 0 to an all-zeros f
    reproduces the initial state (counts equal the layer itself).
    """
    if (f.rows, f.cols) != (layer.rows, layer.cols):
        raise ShapeMismatchError(
            f"layer is {layer.rows}x{layer.cols}, "
            f"frequency matrix is {f.rows}x{f.cols}"
        )
    values = f.values
    for idx, cell in enumerate(layer.cells):
        values[idx] = values[idx] + 1 if cell else 0
    return f


def exists_cube_at_depth(f: DepthFreqMatrix, k: int) -> bool:
    """True iff some k x k window of f has all entries >= k.

    Thresholding f at k turns the question into maximal-square detection:
    the window exists exactly when the binarized matrix holds a square of
    side >= k, which the paper's per-cell frequency solver answers in one
    pass.  It shares no code with `bitplanes.sweep`, which max_cube runs,
    so a defect in the sweep cannot hide from the comparison.
    """
    from .squares import freq_square  # only this reference needs squares

    if k < 1:
        raise ValueError("k must be positive")
    if f.rows < k or f.cols < k:
        return False
    binarized = BinaryMatrix(
        f.rows, f.cols, bytes(1 if v >= k else 0 for v in f.values)
    )
    return freq_square(binarized).side >= k


def max_cube(v: BinaryVolume) -> CubeResult:
    """Largest all-ones cube side in one sweep over whole-layer bitboards.

    Each layer is one int with a guard bit after every row (see
    bitplanes.text_layers), and the layers go through `bitplanes.sweep`,
    which states why one test per layer, at t = best + 1, suffices.  The
    positions whose depth run is at least t are eroded by t along rows
    (shift unit 1) and then along columns (shift unit cols + 1); a bit left
    over is a t x t x t cube.  volume_visited counts the voxels the read
    checks, depth * rows * cols.  DepthFreqMatrix, depth_freq_update and
    exists_cube_at_depth are the per-voxel reference this sweep is tested
    against.
    """
    return max_cube_text(VolumeText.of(v))


def brute_force_cube(v: BinaryVolume) -> CubeResult:
    """Direct oracle: grow a cube at every anchor while its new shell is all ones.

    Growing side k to k+1 adds three faces; a zero in any face stops growth
    at that anchor, and larger sides there are skipped since they contain it.
    """
    depth, rows, cols, cells = v.depth, v.rows, v.cols, v.cells
    total = depth * rows * cols
    if total > CUBE_ORACLE_CELL_CAP:
        raise OracleCapExceededError(
            f"{depth}x{rows}x{cols} = {total} cells exceeds cube oracle cap "
            f"{CUBE_ORACLE_CELL_CAP}"
        )
    best = 0
    visited = 0
    for d0 in range(depth):
        for i0 in range(rows):
            for j0 in range(cols):
                limit = min(depth - d0, rows - i0, cols - j0)
                k = 0
                while k < limit:
                    ok = True
                    # face at depth d0+k: full (k+1)^2 square
                    d = d0 + k
                    for i in range(i0, i0 + k + 1):
                        base = (d * rows + i) * cols
                        for j in range(j0, j0 + k + 1):
                            visited += 1
                            if not cells[base + j]:
                                ok = False
                                break
                        if not ok:
                            break
                    # face at row i0+k over earlier depths
                    if ok:
                        i = i0 + k
                        for d in range(d0, d0 + k):
                            base = (d * rows + i) * cols
                            for j in range(j0, j0 + k + 1):
                                visited += 1
                                if not cells[base + j]:
                                    ok = False
                                    break
                            if not ok:
                                break
                    # face at col j0+k over the remaining interior
                    if ok:
                        j = j0 + k
                        for d in range(d0, d0 + k):
                            base = d * rows * cols + j
                            for i in range(i0, i0 + k):
                                visited += 1
                                if not cells[base + i * cols]:
                                    ok = False
                                    break
                            if not ok:
                                break
                    if not ok:
                        break
                    k += 1
                if k > best:
                    best = k
    return CubeResult(best, visited)
