"""Command-line front end.

Subcommands: solve, gen, verify, bench, cube, rect.  Machine-readable output
(tables, CSV, reports) goes to stdout; diagnostics and timings go to stderr.
Exit codes: 0 success, 1 verification finding, 2 usage or parse error, 3 out
of memory, 130 interrupted (Ctrl-C), 141 stdout closed early (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from contextlib import nullcontext, suppress
from stat import S_IMODE, S_ISREG
from typing import BinaryIO, ContextManager, NoReturn

from .core import MatrixParseError, PlotTarget, read_lines

# DP flag of `bench --baseline` and `solve --algo` -> squares.BASELINES key,
# which is also the solver's function name
BASELINE_FLAGS = {"dp": "dp_rows", "dp2d": "dp_full"}

# `solve --algo dp2d` builds a rows x cols table of ints; this is the size of
# bench's largest grid and of the paper's tables
DP2D_CELL_CAP = 1_000_000

# `solve --algo` flag -> squares function name; `bits` runs freq_bits_lines
# instead, so only the others load squares (and grid, for their BinaryMatrix)
SOLVE_ALGOS = {
    "bits": "freq_bits",
    "freq": "freq_square",
    **BASELINE_FLAGS,
    "brute": "brute_force_square",
}

DEFAULT_DENSITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def _write_file(path: str, text: str) -> None:
    # a regular or new file is replaced whole by a part file beside it (or
    # beside the file a symlink names) that takes its mode, so a failed write
    # leaves it as it was and no partial file behind; a device, FIFO or
    # hard-linked file is filled in place, as a rename would replace the node
    st = os.stat(path) if os.path.exists(path) else None
    if st and (not S_ISREG(st.st_mode) or st.st_nlink > 1):
        with open(path, "w", encoding="ascii") as out:
            out.write(text)
        return
    if st:  # a file we may not write fails here, as opening it would
        os.close(os.open(path, os.O_WRONLY))
    real = os.path.realpath(path)
    part = f"{real}.{os.getpid()}.part"
    try:
        fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the file asked for, as opening it would
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="ascii") as out:
            if st:
                os.fchmod(fd, S_IMODE(st.st_mode))
            out.write(text)
        os.replace(part, real)
    except BaseException:
        os.unlink(part)
        raise


def _list_of(kind: type):
    # an argparse type for a comma-separated list of `kind` values
    def parse(text: str) -> tuple:
        try:
            return tuple(map(kind, text.split(",")))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {kind.__name__} list: {text!r}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squarelab",
        description="Maximal-square solvers, verification campaigns, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", help="find the largest all-ones square")
    p_solve.add_argument("path", nargs="?", default="-",
                         help="matrix file, or - for stdin (default)")
    p_solve.add_argument("--algo", choices=sorted(SOLVE_ALGOS), default="bits")

    p_gen = sub.add_parser("gen", help="generate a seeded random matrix")
    p_gen.add_argument("--rows", type=int, required=True)
    p_gen.add_argument("--cols", type=int, required=True)
    p_gen.add_argument("--density", type=float, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--depth", type=int, default=None,
                       help="emit a volume of this many layers instead")
    p_gen.add_argument("--out", default=None, help="write here instead of stdout")

    p_verify = sub.add_parser("verify", help="run differential correctness campaigns")
    p_verify.add_argument("--exhaustive-max", type=int, default=3,
                          help="enumerate all matrices up to N x N")
    p_verify.add_argument("--random-count", type=int, default=1000)
    p_verify.add_argument("--max-dim", type=int, default=32)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--mismatch-out", default="mismatches.csv",
                          help="CSV written when disagreements are found")

    # the bench options left unset (None) take BenchConfig's defaults and
    # PLOT_SIZE in bench.run_bench, so building this parser loads no bench
    p_bench = sub.add_parser("bench", help="time the frequency solver against a DP baseline")
    p_bench.add_argument("--sizes", type=_list_of(int))
    p_bench.add_argument("--densities", type=_list_of(float))
    p_bench.add_argument("--runs", type=int)
    p_bench.add_argument("--trim", type=float)
    p_bench.add_argument("--baseline", choices=sorted(BASELINE_FLAGS))
    p_bench.add_argument("--format", choices=("csv", "md"), default="md")
    p_bench.add_argument("--edge-cases", action="store_true",
                         help="run the constant edge cases instead of the size grid")
    p_bench.add_argument("--plot", choices=[t.value for t in PlotTarget], default=None,
                         help="emit a tidy CSV data series instead of a table")
    p_bench.add_argument("--plot-size", type=int)
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--warmup", type=int)

    p_cube = sub.add_parser("cube", help="find the largest all-ones cube in a volume")
    p_cube.add_argument("path", nargs="?", default="-")
    p_cube.add_argument("--algo", choices=("freq", "brute"), default="freq")

    p_rect = sub.add_parser("rect", help="find the largest all-ones rectangle")
    p_rect.add_argument("path", nargs="?", default="-")

    return parser


def _open_source(path: str) -> ContextManager[BinaryIO]:
    # the file, or stdin's byte stream for "-", which is left open: read as
    # bytes whatever the locale, a block of whole lines at a time
    # (core.read_lines), so a '\r' or a non-ASCII byte reaches the check
    return nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb")


def _cmd_solve(args: argparse.Namespace) -> int:
    with _open_source(args.path) as stream:
        blocks, cols, rows = read_lines(stream)
        if args.algo == "bits":
            from .bitplanes import freq_bits_lines

            result = freq_bits_lines(blocks, cols, rows)
        else:
            from . import squares
            from .grid import BinaryMatrix

            m = BinaryMatrix.from_lines(blocks, cols)
            if args.algo == "dp2d" and m.rows * cols > DP2D_CELL_CAP:
                raise ValueError(
                    f"{m.rows}x{cols} = {m.rows * cols} cells exceeds dp2d cap {DP2D_CELL_CAP}")
            result = getattr(squares, SOLVE_ALGOS[args.algo])(m)
    print(f"side={result.side} area={result.area}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from .grid import GenSpec, generate_matrix, generate_volume, serialize_matrix

    spec = GenSpec(args.rows, args.cols, args.density, args.seed, depth=args.depth)
    grid = generate_matrix(spec) if args.depth is None else generate_volume(spec)
    text = serialize_matrix(grid)  # a volume's text too
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_file(args.out, text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verify

    return run_verify(args)


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import run_bench

    return run_bench(args)


def _cmd_cube(args: argparse.Namespace) -> int:
    with _open_source(args.path) as stream:
        blocks, cols, _ = read_lines(stream, layers=True)
        if args.algo == "freq":
            from .bitplanes import max_cube_lines

            result = max_cube_lines(blocks, cols)
        else:
            from .cubes import brute_force_cube
            from .grid import BinaryVolume

            result = brute_force_cube(BinaryVolume.from_lines(blocks, cols))
    print(f"side={result.side}")
    return 0


def _cmd_rect(args: argparse.Namespace) -> int:
    from .histogram import maximal_rectangle_lines

    with _open_source(args.path) as stream:
        blocks, cols, _ = read_lines(stream)
        result = maximal_rectangle_lines(blocks, cols)
    print(f"area={result.area} h={result.height} w={result.width}")
    return 0


_HANDLERS = {
    "solve": _cmd_solve,
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "cube": _cmd_cube,
    "rect": _cmd_rect,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _HANDLERS[args.subcommand](args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except MatrixParseError as exc:
        line = f" (line {exc.line})" if exc.line else ""
        print(f"squarelab: parse error{line}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the flush at exit is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except KeyboardInterrupt:
        print("squarelab: interrupted", file=sys.stderr)
        return 130
    except MemoryError:
        print("squarelab: out of memory", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"squarelab: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> NoReturn:
    # ends the process without the interpreter's teardown of every module it
    # loaded: the atexit handlers run, then stdout and stderr are flushed, in
    # the interpreter's own order.  A failed flush is left to the
    # interpreter's exit, and so is a run that a caller wraps (a profiler, a
    # debugger, a tracer, a script's runpy.run_module), which may act after
    # the run returns: only the module or script that calls this, with no
    # frame but runpy's below it, ends the process here
    code = main()
    frame = sys._getframe(1).f_back
    while frame is not None and frame.f_globals.get("__name__") == "runpy":
        frame = frame.f_back
    if frame is None:
        atexit._run_exitfuncs()  # and unregisters them, so none runs twice
        with suppress(Exception):
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
