"""Command-line front end.

Subcommands: solve, gen, verify, bench, cube, rect.  Machine-readable output
(tables, CSV, reports) goes to stdout; diagnostics and timings go to stderr.
Exit codes: 0 success, 1 verification finding, 2 usage or parse error, 3 out
of memory, 130 interrupted (Ctrl-C), 141 stdout closed early (128 + SIGPIPE).

A plain `solve|rect|cube|verify` call is read here without argparse
(`_plain_args`); every other argv goes to the parser in `commands`, the one
definition of the command line, which the plain reader is tested against.
"""

from __future__ import annotations

import atexit
import os
import sys
from contextlib import nullcontext, suppress
from types import SimpleNamespace
from typing import TYPE_CHECKING, BinaryIO, ContextManager, NoReturn

from .core import MatrixParseError, read_lines

if TYPE_CHECKING:
    import argparse

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

# subcommand -> {flag: (default, what its value may be)} for each subcommand
# the plain reader reads, the one place those defaults are written: a tuple
# of choices, in the order help and errors list them, `int` for a whole
# number, or `str` for a path.  All but `verify` also take one path, `-`
# (stdin) by default
OPTIONS = {
    "solve": {"--algo": ("bits", tuple(sorted(SOLVE_ALGOS)))},
    "rect": {},
    "cube": {"--algo": ("freq", ("freq", "brute"))},
    "verify": {"--exhaustive-max": (3, int), "--random-count": (1000, int),
               "--max-dim": (32, int), "--seed": (0, int),
               "--mismatch-out": ("mismatches.csv", str)},
}

DEFAULT_DENSITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    # the namespace build_parser would give a plain call of a subcommand in
    # OPTIONS: each of its flags at most once, as two tokens `--flag VALUE`,
    # VALUE one of the flag's choices, `-?[0-9]+` in ASCII for a whole
    # number, or for a path a token that is neither empty nor starts with
    # `-`; and, for all but verify, at most one path, `-` or a token that
    # does not start with `-`.  Any other argv (help, an error, `--flag=X`, an
    # abbreviation, `--`, a repeated flag, `+3`, gen, bench) is None:
    # argparse reads it
    options = OPTIONS.get(argv[0]) if argv else None
    if options is None:
        return None
    subcommand, *rest = argv
    given = {}
    paths = []
    tokens = iter(rest)
    for token in tokens:
        if token in options and token not in given:
            value = next(tokens, "")
            takes = options[token][1]
            if takes is int:
                digits = value.removeprefix("-")
                if not (digits.isascii() and digits.isdigit()):
                    return None
                try:
                    value = int(value)
                except ValueError:  # more digits than int() reads
                    return None
            elif value not in takes if isinstance(takes, tuple) else value[:1] in ("", "-"):
                return None
            given[token] = value
        elif token == "-" or token[:1] != "-":
            paths.append(token)
        else:
            return None
    if len(paths) > 1 or paths and subcommand == "verify":
        return None
    fields = {flag[2:].replace("-", "_"): given.get(flag, default)
              for flag, (default, _) in options.items()}
    if subcommand != "verify":
        fields["path"] = paths[0] if paths else "-"
    return SimpleNamespace(subcommand=subcommand, **fields)


def _open_source(path: str) -> ContextManager[BinaryIO]:
    # the file, or stdin's byte stream for "-", which is left open: read as
    # bytes whatever the locale, a block of whole lines at a time
    # (core.read_lines), so a '\r' or a non-ASCII byte reaches the check
    return nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb")


def _cmd_solve(args: argparse.Namespace) -> int:
    with _open_source(args.path) as stream:
        blocks, cols = read_lines(stream)
        if args.algo == "bits":
            from .bitplanes import freq_bits_lines

            result = freq_bits_lines(blocks, cols)
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
    from .commands import run_gen

    return run_gen(args)


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verify

    return run_verify(args)


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import run_bench

    return run_bench(args)


def _cmd_cube(args: argparse.Namespace) -> int:
    with _open_source(args.path) as stream:
        blocks, cols = read_lines(stream, layers=True)
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
        blocks, cols = read_lines(stream)
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
    args = _plain_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        from .commands import build_parser

        try:
            args = build_parser().parse_args(argv)
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
