"""Command-line front end.

Subcommands: solve, gen, verify, bench, cube, rect.  Machine-readable output
(tables, CSV, reports) goes to stdout; diagnostics and timings go to stderr.
Exit codes: 0 success, 1 verification finding, 2 usage or parse error, 3 out
of memory, 130 interrupted (Ctrl-C), 141 stdout closed early (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import os
import sys
from math import isqrt
from pathlib import Path

from .core import ORACLE_CELL_CAP, MatrixParseError, PlotTarget, read_matrix, read_volume

# DP flag of `bench --baseline` and `solve --algo` -> squares.BASELINES key,
# which is also the solver's function name
BASELINE_FLAGS = {"dp": "dp_rows", "dp2d": "dp_full"}

# `solve --algo dp2d` builds a rows x cols table of ints; this is the size of
# bench's largest grid and of the paper's tables
DP2D_CELL_CAP = 1_000_000

# `solve --algo` flag -> squares function name; `bits` runs as
# bitplanes.freq_bits_text on the file's text, so only the others load
# squares (and grid, for the BinaryMatrix they take)
SOLVE_ALGOS = {
    "bits": "freq_bits",
    "freq": "freq_square",
    **BASELINE_FLAGS,
    "brute": "brute_force_square",
}

DEFAULT_DENSITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def _read_bytes(path: str | None) -> bytes:
    # stdin and files are both read as bytes, whatever the locale, so a '\r'
    # or a non-ASCII byte reaches core's checks and the line parser, which
    # names its line
    if path is None or path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


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
    # PLOT_SIZE in _cmd_bench, so building this parser loads no bench
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


def _cmd_solve(args: argparse.Namespace) -> int:
    text = read_matrix(_read_bytes(args.path))
    if args.algo == "bits":
        from .bitplanes import freq_bits_text

        result = freq_bits_text(text)
    else:
        cells = text.rows * text.cols
        if args.algo == "dp2d" and cells > DP2D_CELL_CAP:
            raise ValueError(
                f"{text.rows}x{text.cols} = {cells} cells exceeds dp2d cap {DP2D_CELL_CAP}")
        from . import squares
        from .grid import BinaryMatrix

        result = getattr(squares, SOLVE_ALGOS[args.algo])(BinaryMatrix.from_text(text))
    print(f"side={result.side} area={result.area}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from .grid import (
        GenSpec,
        generate_matrix,
        generate_volume,
        serialize_matrix,
        serialize_volume,
    )

    spec = GenSpec(args.rows, args.cols, args.density, args.seed, depth=args.depth)
    if args.depth is None:
        text = serialize_matrix(generate_matrix(spec))
    else:
        text = serialize_volume(generate_volume(spec))
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="ascii")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import (
        edge_case_suite,
        exhaustive_sweep,
        random_campaign,
        render_mismatch_csv,
        render_report,
    )

    if args.exhaustive_max < 1:
        raise ValueError("--exhaustive-max must be positive")
    if args.random_count < 1:
        raise ValueError("--random-count must be positive")
    if args.max_dim < 1:
        raise ValueError("--max-dim must be positive")
    if args.max_dim ** 2 > ORACLE_CELL_CAP:
        raise ValueError(
            f"--max-dim {args.max_dim} allows {args.max_dim}x{args.max_dim} cases, "
            f"over the oracle cap of {ORACLE_CELL_CAP} cells "
            f"(--max-dim {isqrt(ORACLE_CELL_CAP)} at most)")
    sections = [
        ("exhaustive", exhaustive_sweep(args.exhaustive_max, args.exhaustive_max)),
        ("random", random_campaign(args.random_count, args.max_dim,
                                   DEFAULT_DENSITIES, args.seed)),
        ("edges", edge_case_suite()),
    ]
    findings = False
    for name, report in sections:
        print(f"[{name}]")
        sys.stdout.write(render_report(report))
        print(f"{name}: elapsed {report.elapsed:.3f}s", file=sys.stderr)
        if not report.clean:
            findings = True
    if findings:
        reports = [report for _, report in sections]
        if any(report.mismatches for report in reports):
            Path(args.mismatch_out).write_text(
                render_mismatch_csv(*reports), encoding="ascii")
            print(f"mismatches written to {args.mismatch_out}", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        PLOT_SIZE,
        TABLES,
        BenchConfig,
        plot_selection,
        render_table,
        run_edge_cases,
        run_grid,
    )

    options = {
        "sizes": args.sizes,
        "densities": args.densities,
        "runs": args.runs,
        "trim_fraction": args.trim,
        "seed": args.seed,
        "baseline": BASELINE_FLAGS.get(args.baseline),
        "warmup_runs": args.warmup,
    }
    config = BenchConfig(**{k: v for k, v in options.items() if v is not None})
    target = PlotTarget(args.plot) if args.plot else None
    edge = args.edge_cases or target is PlotTarget.EDGE_SPEEDUPS
    records = run_edge_cases(config) if edge else run_grid(config)
    if target is None:
        key = ("edge" if edge else "grid", args.format)
    else:
        size = PLOT_SIZE if args.plot_size is None else args.plot_size
        key, records = target, plot_selection(records, target, size)
    markdown = target is None and args.format == "md"
    sys.stdout.write(render_table(records, TABLES[key], markdown))
    return 0


def _cmd_cube(args: argparse.Namespace) -> int:
    text = read_volume(_read_bytes(args.path))
    if args.algo == "freq":
        from .bitplanes import max_cube_text

        result = max_cube_text(text)
    else:
        from .cubes import brute_force_cube
        from .grid import BinaryVolume

        result = brute_force_cube(BinaryVolume.from_text(text))
    print(f"side={result.side}")
    return 0


def _cmd_rect(args: argparse.Namespace) -> int:
    from .histogram import maximal_rectangle_text

    result = maximal_rectangle_text(read_matrix(_read_bytes(args.path)))
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


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
