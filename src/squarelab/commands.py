"""The command line's cold half: the argparse parser, and what only `gen`
runs, and `verify` when it writes a finding.

`build_parser` is the one definition of every subcommand and option.
`cli.main` loads this module only for an argv that its plain reader
(`cli._plain_args`) declines: `gen`, `bench`, `--help`, a usage error, or a
`solve|rect|cube|verify` call in any form but the plain one.
"""

from __future__ import annotations

import argparse
import os
import sys
from stat import S_IMODE, S_ISREG

from .cli import BASELINE_FLAGS, OPTIONS
from .core import PlotTarget


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
    default, choices = OPTIONS["solve"]["--algo"]
    p_solve.add_argument("--algo", choices=choices, default=default)

    p_gen = sub.add_parser("gen", help="generate a seeded random matrix")
    p_gen.add_argument("--rows", type=int, required=True)
    p_gen.add_argument("--cols", type=int, required=True)
    p_gen.add_argument("--density", type=float, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--depth", type=int, default=None,
                       help="emit a volume of this many layers instead")
    p_gen.add_argument("--out", default=None, help="write here instead of stdout")

    p_verify = sub.add_parser("verify", help="run differential correctness campaigns")
    helps = {"--exhaustive-max": "enumerate all matrices up to N x N",
             "--mismatch-out": "CSV written when disagreements are found"}
    for flag, (default, kind) in OPTIONS["verify"].items():
        p_verify.add_argument(flag, type=kind, default=default, help=helps.get(flag))

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
    default, choices = OPTIONS["cube"]["--algo"]
    p_cube.add_argument("--algo", choices=choices, default=default)

    p_rect = sub.add_parser("rect", help="find the largest all-ones rectangle")
    p_rect.add_argument("path", nargs="?", default="-")

    return parser


def run_gen(args: argparse.Namespace) -> int:
    """`squarelab gen`: the seeded matrix, or volume with --depth, to
    stdout or to --out."""
    from .grid import GenSpec, generate_matrix, generate_volume, serialize_matrix

    if args.out is not None and (not args.out or os.path.isdir(args.out)):
        raise ValueError(f"--out must name a file, not {args.out!r}")
    spec = GenSpec(args.rows, args.cols, args.density, args.seed, depth=args.depth)
    grid = generate_matrix(spec) if args.depth is None else generate_volume(spec)
    text = serialize_matrix(grid)  # a volume's text too
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_file(args.out, text)
    return 0
