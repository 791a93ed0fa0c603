"""Workload inputs, CLI invocations and reference answers.

Every input is generated from the run's seed with the package's own grid
functions and written to the run's working directory; the program under test
only ever sees those files and its command-line flags.  Reference answers are
computed at set-up by code that does not share a kernel with the CLI path
being measured: `dp_rows` for squares, and the rectangle and cube DPs below.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

from squarelab import (
    GenSpec,
    SquareResult,
    dp_rows,
    edge_case_suite,
    exhaustive_sweep,
    generate_matrix,
    generate_volume,
    random_campaign,
    serialize_matrix,
    serialize_volume,
)
from squarelab import verify as verify_module
from squarelab.cli import DEFAULT_DENSITIES

# (rows, cols, density): two square shapes that differ in answer size, and a
# tall and a wide shape of the same cell count; both 2D workloads share them.
MATRIX_SPECS = (
    (1000, 1000, 0.5),
    (1000, 1000, 0.95),
    (4000, 250, 0.9),
    (250, 4000, 0.9),
)

# (depth, rows, cols, density): a cube and a deep volume, each twice with its
# own seed.  max_cube's cost follows the answer: each binary-search probe that
# fails sweeps every layer, one that succeeds stops where the cube ends.  At
# these densities the answer is 7 (cube) or 5 (deep) on nearly every seed, so
# volume_visited moves by about 3% between seeds; at 0.97 and 0.95 the side
# is one smaller or larger on some seeds, which moves a volume's work by
# 20-40%.
VOLUME_SPECS = (
    (60, 60, 60, 0.975),
    (60, 60, 60, 0.975),
    (120, 40, 40, 0.93),
    (120, 40, 40, 0.93),
)

VERIFY_EXHAUSTIVE_MAX = 3
VERIFY_RANDOM_COUNT = 500
VERIFY_MAX_DIM = 32
VERIFY_SEEDS_PER_RUN = 4
VERIFY_SECTIONS = ("exhaustive", "random", "edges")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # squarelab subcommand
    family: str   # inputs are shared between workloads of one family


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve_large", "solve", "matrix"),
        Workload("rect_large", "rect", "matrix"),
        Workload("cube_volume", "cube", "volume"),
        Workload("verify_small", "verify", "verify"),
    )
}


@dataclass
class Input:
    """One round-robin input: the CLI arguments and what a correct run prints."""

    label: str
    argv: list[str]
    cells: int
    nbytes: int
    gen_seed: int
    shape: tuple[int, ...] = ()
    density: float | None = None
    path: Path | None = None
    expected: dict = field(default_factory=dict)


def input_seed(family: str, seed: int, index: int) -> int:
    """Stable 64-bit generator seed for input `index` of a family."""
    digest = hashlib.sha256(f"{family}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Setup:
    inputs: list[Input]
    seconds: list[float]          # one entry per set-up repetition
    generate_ms: list[float]      # per repetition, summed over inputs
    serialize_ms: list[float]     # per repetition, summed over inputs
    grids: list = field(default_factory=list)  # generated matrices/volumes


def _setup_files(family: str, seed: int, workdir: Path, reps: int) -> Setup:
    specs = MATRIX_SPECS if family == "matrix" else VOLUME_SPECS
    seconds, gen_ms, ser_ms = [], [], []
    for _ in range(reps):
        inputs, grids = [], []
        gen_ns = ser_ns = 0
        start = time.perf_counter_ns()
        for i, spec in enumerate(specs):
            gseed = input_seed(family, seed, i)
            t0 = time.perf_counter_ns()
            if family == "matrix":
                rows, cols, density = spec
                grid = generate_matrix(GenSpec(rows, cols, density, gseed))
                t1 = time.perf_counter_ns()
                text = serialize_matrix(grid)
                shape = (rows, cols)
            else:
                depth, rows, cols, density = spec
                grid = generate_volume(GenSpec(rows, cols, density, gseed, depth=depth))
                t1 = time.perf_counter_ns()
                text = serialize_volume(grid)
                shape = (depth, rows, cols)
            t2 = time.perf_counter_ns()
            gen_ns += t1 - t0
            ser_ns += t2 - t1
            path = workdir / f"{family}{i}.txt"
            path.write_text(text, encoding="ascii")
            label = "x".join(map(str, shape)) + f"@{density}"
            inputs.append(Input(label, [str(path)], len(grid.cells), len(text),
                                gseed, shape, density, path))
            grids.append(grid)
        seconds.append((time.perf_counter_ns() - start) / 1e9)
        gen_ms.append(gen_ns / 1e6)
        ser_ms.append(ser_ns / 1e6)
    return Setup(inputs, seconds, gen_ms, ser_ms, grids)


def _cell_counter(counts: dict):
    """A solver stand-in that records the matrices a campaign checks."""

    def count(m):
        counts["cells"] += m.rows * m.cols
        return SquareResult(0, 0, m.rows * m.cols)

    return count


def _no_op_solver(m):
    return SquareResult(0, 0, 0)


def _verify_argv(vseed: int) -> list[str]:
    return ["--exhaustive-max", str(VERIFY_EXHAUSTIVE_MAX),
            "--random-count", str(VERIFY_RANDOM_COUNT),
            "--max-dim", str(VERIFY_MAX_DIM), "--seed", str(vseed)]


def _setup_verify(seed: int, reps: int) -> Setup:
    """The verify campaigns make their own matrices from flags.  Set-up runs
    them in-process with a counting stand-in solver, which generates every
    matrix the CLI will check (with the package's generators) and yields the
    cell and case counts a correct run must report."""
    seconds = []
    for _ in range(reps):
        inputs = []
        start = time.perf_counter_ns()
        for i in range(VERIFY_SEEDS_PER_RUN):
            vseed = input_seed("verify", seed, i) >> 1  # CLI seeds are signed
            counts = {"cells": 0}
            only = (("cells", _cell_counter(counts)),)
            n = VERIFY_EXHAUSTIVE_MAX
            cases = {
                "exhaustive": exhaustive_sweep(n, n, solvers=only).cases_run,
                "random": random_campaign(VERIFY_RANDOM_COUNT, VERIFY_MAX_DIM,
                                          DEFAULT_DENSITIES, vseed,
                                          solvers=only).cases_run,
            }
            # the edge suite takes no solvers; count each of its matrices once
            # through the solver names it looks up in its module
            with mock.patch.object(verify_module, "freq_square", only[0][1]), \
                    mock.patch.object(verify_module, "dp_full", _no_op_solver):
                cases["edges"] = edge_case_suite().cases_run
            label = f"verify-seed{vseed}"
            inputs.append(Input(label, _verify_argv(vseed), counts["cells"], 0,
                                vseed, expected={"cases": cases}))
        seconds.append((time.perf_counter_ns() - start) / 1e9)
    return Setup(inputs, seconds, [], [])


def setup(family: str, seed: int, workdir: Path, reps: int) -> Setup:
    """Generate, serialize and write a family's inputs `reps` times (the last
    repetition's files stay); references are not part of set-up."""
    if family == "verify":
        return _setup_verify(seed, reps)
    return _setup_files(family, seed, workdir, reps)


# ---- references -----------------------------------------------------------


def rect_area_reference(m) -> int:
    """Largest all-ones rectangle area by the left/right/height DP.

    Per row, height[j] is the run of ones ending at (i, j) and [left[j],
    right[j]) the widest column span that keeps that height; the answer is
    the best (right - left) * height.  Independent of the histogram stack.
    """
    rows, cols, cells = m.rows, m.cols, m.cells
    height = [0] * cols
    left = [0] * cols
    right = [cols] * cols
    best = 0
    for i in range(rows):
        row = cells[i * cols:(i + 1) * cols]
        cur_left = 0
        for j in range(cols):
            if row[j]:
                height[j] += 1
                if left[j] < cur_left:
                    left[j] = cur_left
            else:
                height[j] = 0
                left[j] = 0
                cur_left = j + 1
        cur_right = cols
        for j in range(cols - 1, -1, -1):
            if row[j]:
                if right[j] > cur_right:
                    right[j] = cur_right
                area = (right[j] - left[j]) * height[j]
                if area > best:
                    best = area
            else:
                right[j] = cols
                cur_right = j
    return best


def cube_side_reference(v) -> int:
    """Largest all-ones cube side by the 3D DP over seven neighbours.

    c[d][i][j] = 1 + min of c at the seven cells that precede (d, i, j) in
    the unit cube behind it, on one-cells; two depth layers are kept.
    """
    depth, rows, cols, cells = v.depth, v.rows, v.cols, v.cells
    size = rows * cols
    prev = [0] * size
    best = 0
    for d in range(depth):
        cur = [0] * size
        base = d * size
        for i in range(rows):
            r = i * cols
            for j in range(cols):
                k = r + j
                if not cells[base + k]:
                    continue
                if i and j:
                    c = min(prev[k], cur[k - cols], cur[k - 1], prev[k - cols],
                            prev[k - 1], cur[k - cols - 1], prev[k - cols - 1]) + 1
                else:
                    c = 1
                cur[k] = c
                if c > best:
                    best = c
        prev = cur
    return best


def attach_references(command: str, st: Setup) -> None:
    """Add `command`'s answer to each input's `expected`; verify's come from
    set-up.  solve and rect share inputs, so both can be attached."""
    for inp, grid in zip(st.inputs, st.grids):
        if command == "solve":
            inp.expected["side"] = dp_rows(grid).side
        elif command == "rect":
            inp.expected.update(area=rect_area_reference(grid),
                                rows=grid.rows, cols=grid.cols)
        elif command == "cube":
            inp.expected["cube_side"] = cube_side_reference(grid)


# ---- output checks ----------------------------------------------------------


def _fields(line: str) -> dict[str, int]:
    out = {}
    for part in line.split():
        key, _, value = part.partition("=")
        out[key] = int(value)
    return out


def check_output(command: str, inp: Input, stdout: str) -> str | None:
    """None when stdout is the correct answer for `inp`, else the reason."""
    exp = inp.expected
    try:
        if command == "verify":
            sections = {}
            current = None
            for line in stdout.splitlines():
                if line.startswith("[") and line.endswith("]"):
                    current = line[1:-1]
                    sections[current] = {}
                elif current is not None and "=" in line and " " not in line:
                    key, _, value = line.partition("=")
                    sections[current][key] = int(value)
            for name in VERIFY_SECTIONS:
                got = sections.get(name, {})
                want = {"cases_run": exp["cases"][name],
                        "mismatches": 0, "invariant_failures": 0}
                if got != want:
                    return f"[{name}] {got} != {want}"
            return None
        got = _fields(stdout.strip())
        if command == "solve":
            side = exp["side"]
            want = {"side": side, "area": side * side}
            return None if got == want else f"{got} != {want}"
        if command == "rect":
            area, h, w = got["area"], got["h"], got["w"]
            if area != exp["area"]:
                return f"area {area} != reference {exp['area']}"
            if h * w != area or not (h <= exp["rows"] and w <= exp["cols"]):
                return f"h={h} w={w} do not make area {area} in bounds"
            return None
        if command == "cube":
            want = {"side": exp["cube_side"]}
            return None if got == want else f"{got} != {want}"
    except (KeyError, ValueError) as exc:
        return f"unparseable output {stdout!r}: {exc}"
    raise ValueError(f"unknown command {command}")
