"""The traced in-process run: per-layer metrics from spans around public calls.

Each workload's pipeline repeats in-process what its CLI command does (read
the file, parse, solve; or run the three verify campaigns with the CLI's
arguments), with a span around every call into a layer.  Probes that the CLI
does not make (validation on its own, one cube depth sweep) run as separate
operations so they stay out of the pipeline time.  Per-layer times are in ms
per invocation: the median over repetitions for each input, averaged over the
workload's inputs, the same way `wall_ms_p50` treats CLI invocations.
"""

from __future__ import annotations

import statistics
import time

from squarelab import (
    AllocationAudit,
    BinaryMatrix,
    DepthFreqMatrix,
    depth_freq_update,
    edge_case_suite,
    exhaustive_sweep,
    exists_cube_at_depth,
    freq_square,
    max_cube,
    maximal_rectangle,
    parse_matrix,
    parse_volume,
    random_campaign,
)
from squarelab.cli import DEFAULT_DENSITIES
from squarelab.verify import DEFAULT_SOLVERS

import workloads as wl
from spans import NullTracer, Tracer, per_op

REPS = 3

# span names whose time the CLI spends outside read, dispatch and print
CLI_LAYER_SPANS = {
    "solve": ("grid.parse", "squares.freq"),
    "rect": ("grid.parse", "histogram.rect"),
    "cube": ("grid.parse_volume", "cubes.max_cube"),
    "verify": ("verify.exhaustive", "verify.random", "verify.edges"),
}


def _solve(tr, inp):
    with tr.span("cli.read"):
        text = inp.path.read_text(encoding="ascii")
    with tr.span("grid.parse"):
        m = parse_matrix(text)
    audit = AllocationAudit()
    with tr.span("squares.freq"):
        result = freq_square(m, audit)
    return result, audit


def _rect(tr, inp):
    with tr.span("cli.read"):
        text = inp.path.read_text(encoding="ascii")
    with tr.span("grid.parse"):
        m = parse_matrix(text)
    with tr.span("histogram.rect"):
        return maximal_rectangle(m)


def _cube(tr, inp):
    with tr.span("cli.read"):
        text = inp.path.read_text(encoding="ascii")
    with tr.span("grid.parse_volume"):
        v = parse_volume(text)
    with tr.span("cubes.max_cube"):
        return max_cube(v)


def _traced_solvers(tr):
    def wrap(name, fn):
        def solver(m):
            with tr.span(name):
                return fn(m)
        return solver
    return tuple((n, wrap(f"verify.solver.{n}", fn)) for n, fn in DEFAULT_SOLVERS)


def _verify(tr, inp, solvers):
    n = wl.VERIFY_EXHAUSTIVE_MAX
    with tr.span("verify.exhaustive"):
        ex = exhaustive_sweep(n, n, solvers=solvers)
    with tr.span("verify.random"):
        rnd = random_campaign(wl.VERIFY_RANDOM_COUNT, wl.VERIFY_MAX_DIM,
                              DEFAULT_DENSITIES, inp.gen_seed, solvers=solvers)
    with tr.span("verify.edges"):
        edges = edge_case_suite()
    return {"exhaustive": ex, "random": rnd, "edges": edges}


def _run_op(tr, command, inp, solvers):
    if command == "solve":
        return _solve(tr, inp)
    if command == "rect":
        return _rect(tr, inp)
    if command == "cube":
        return _cube(tr, inp)
    return _verify(tr, inp, solvers)


def _check(command, inp, result) -> str | None:
    exp = inp.expected
    if command == "solve":
        res, _ = result
        if res.side != exp["side"]:
            return f"freq_square side {res.side} != reference {exp['side']}"
        if res.cells_visited != inp.cells:
            return f"cells_visited {res.cells_visited} != rows*cols {inp.cells}"
    elif command == "rect":
        if result.area != exp["area"] or result.height * result.width != result.area:
            return f"{result} != reference area {exp['area']}"
    elif command == "cube":
        if result.side != exp["cube_side"]:
            return f"max_cube side {result.side} != reference {exp['cube_side']}"
    else:
        for name, report in result.items():
            if not report.clean or report.cases_run != exp["cases"][name]:
                return f"{name}: clean={report.clean} cases={report.cases_run}"
    return None


def _probe_validate(tr, inp):
    m = parse_matrix(inp.path.read_text(encoding="ascii"))
    with tr.operation(f"validate:{inp.label}"):
        with tr.span("grid.validate"):
            BinaryMatrix(m.rows, m.cols, m.cells)


def _probe_sweep(tr, inp):
    """One depth sweep with the answer's side, as max_cube's last probe does."""
    v = parse_volume(inp.path.read_text(encoding="ascii"))
    side = max(inp.expected["cube_side"], 1)
    f = DepthFreqMatrix(v.rows, v.cols)
    with tr.operation(f"sweep:{inp.label}"):
        for d in range(v.depth):
            with tr.span("cubes.sweep"):
                with tr.span("grid.layer"):
                    layer = v.layer(d)
                depth_freq_update(f, layer)
            with tr.span("cubes.exists"):
                exists_cube_at_depth(f, side)


def traced_run(command: str, inputs_by_command: dict, setups: dict,
               run_cli, run_control) -> dict:
    """Run every pipeline traced, REPS times, plus `command`'s matched samples.

    For each input of the traced workload `command`, one repetition runs, back
    to back: `python -c pass`, `python -c "import squarelab.cli"`, the CLI
    (`run_cli(i)` returns its wall ms), the traced op and the same op untraced
    (in alternating order).  Host speed drifts over seconds, so only samples
    taken together give a usable difference (`cli.residual_ms`) or ratio
    (`trace.overhead_ratio`).  Returns metrics, the tracer, failures, detail.
    """
    tr = Tracer()
    null = NullTracer()
    traced_solvers = _traced_solvers(tr)
    ops: dict[tuple[str, int], list[int]] = {}   # (kind, input) -> op ids
    results: dict[tuple[str, int], object] = {}
    failures: list[str] = []
    matched: list[dict] = []   # per traced-workload op: wall, controls, op id

    def timed_op(tracer, cmd, inp, solvers):
        start = time.perf_counter_ns()
        with tracer.operation(f"{cmd}:{inp.label}"):
            result = _run_op(tracer, cmd, inp, solvers)
        return result, time.perf_counter_ns() - start

    for rep in range(REPS):
        for cmd, inputs in inputs_by_command.items():
            for i, inp in enumerate(inputs):
                sample = {}
                if cmd == command:
                    sample = {"input": i, "interp_ms": run_control("pass"),
                              "import_ms": run_control("import squarelab.cli"),
                              "wall_ms": run_cli(i)}
                    if rep % 2:
                        sample["untraced_ns"] = timed_op(null, cmd, inp, DEFAULT_SOLVERS)[1]
                result, traced_ns = timed_op(tr, cmd, inp, traced_solvers)
                ops.setdefault((cmd, i), []).append(tr.op)
                results[(cmd, i)] = result
                error = _check(cmd, inp, result)
                if error:
                    failures.append(f"traced {cmd} {inp.label}: {error}")
                if cmd == command:
                    if not rep % 2:
                        sample["untraced_ns"] = timed_op(null, cmd, inp, DEFAULT_SOLVERS)[1]
                    matched.append({**sample, "op": tr.op, "traced_ns": traced_ns})
        for i, inp in enumerate(inputs_by_command["solve"]):
            _probe_validate(tr, inp)
            ops.setdefault(("validate", i), []).append(tr.op)
        for i, inp in enumerate(inputs_by_command["cube"]):
            _probe_sweep(tr, inp)
            ops.setdefault(("sweep", i), []).append(tr.op)

    table = per_op(tr.spans)

    def ms(kind, name, field=1):
        """ms per invocation: per input, the median over repetitions of the
        span's total (field 1) or self (field 2) time; mean over inputs."""
        per_input = [statistics.median(table[op].get(name, (0, 0, 0))[field]
                                       for op in op_ids)
                     for (k, _), op_ids in ops.items() if k == kind]
        return statistics.fmean(per_input) / 1e6

    for s in matched:
        s["layer_ms"] = sum(table[s["op"]].get(name, (0, 0, 0))[1]
                            for name in CLI_LAYER_SPANS[command]) / 1e6
        # the import sample includes interpreter start
        s["residual_ms"] = s["wall_ms"] - s["import_ms"] - s["layer_ms"]
    n_inputs = len(inputs_by_command[command])
    residual_ms = statistics.fmean(
        statistics.median(s["residual_ms"] for s in matched if s["input"] == i)
        for i in range(n_inputs))
    interp_ms = statistics.median(s["interp_ms"] for s in matched)
    import_ms = statistics.median(s["import_ms"] for s in matched) - interp_ms
    overhead = statistics.median(s["traced_ns"] / s["untraced_ns"] for s in matched)

    matrices = inputs_by_command["solve"]
    volumes = inputs_by_command["cube"]
    verifies = inputs_by_command["verify"]
    matrix_cells = sum(inp.cells for inp in matrices)
    volume_cells = sum(inp.cells for inp in volumes)

    freq_results = [results[("solve", i)] for i in range(len(matrices))]
    cells_visited = sum(r.cells_visited for r, _ in freq_results)  # _check: == cells
    cube_results = [results[("cube", i)] for i in range(len(volumes))]
    volume_visited = sum(r.volume_visited for r in cube_results)
    verify_cases = sum(rep.cases_run for i in range(len(verifies))
                       for rep in results[("verify", i)].values())

    # edge_case_suite takes no solvers= and calls freq_square and dp_full
    # itself, so its solver time is not in verify.solver.* and its self time
    # is not campaign overhead alone: verify.self_ms leaves it out
    campaigns = ("verify.exhaustive", "verify.random")
    solver_names = [n for n, _ in DEFAULT_SOLVERS]
    freq_ms = ms("solve", "squares.freq")
    rect_ms = ms("rect", "histogram.rect")
    per_cell = len(matrices) * 1e6 / matrix_cells  # ms per input -> ns per cell

    metrics = {
        "cli.interp_ms": (interp_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.residual_ms": (residual_ms, "ms"),
        "grid.parse_ms": (ms("solve", "grid.parse"), "ms"),
        "grid.parse_volume_ms": (ms("cube", "grid.parse_volume"), "ms"),
        "grid.validate_ms": (ms("validate", "grid.validate"), "ms"),
        "grid.layer_ms": (ms("sweep", "grid.layer"), "ms"),
        "grid.generate_ms": (sum(statistics.median(s.generate_ms)
                                 for s in setups.values() if s.generate_ms), "ms"),
        "grid.serialize_ms": (sum(statistics.median(s.serialize_ms)
                                  for s in setups.values() if s.serialize_ms), "ms"),
        "grid.input_bytes": (sum(inp.nbytes for inp in matrices + volumes), "bytes"),
        "squares.freq_ms": (freq_ms, "ms"),
        "squares.freq_ns_per_cell": (freq_ms * per_cell, "ns"),
        "squares.cells_visited": (cells_visited, "count"),
        "squares.aux_peak_elements": (max(a.peak_elements for _, a in freq_results), "count"),
        "histogram.rect_ms": (rect_ms, "ms"),
        "histogram.ns_per_cell": (rect_ms * per_cell, "ns"),
        "cubes.max_cube_ms": (ms("cube", "cubes.max_cube"), "ms"),
        "cubes.sweep_ms": (ms("sweep", "cubes.sweep"), "ms"),
        "cubes.exists_ms": (ms("sweep", "cubes.exists"), "ms"),
        "cubes.volume_visited": (volume_visited, "count"),
        "cubes.visit_ratio": (volume_visited / volume_cells, "ratio"),
        "verify.exhaustive_ms": (ms("verify", "verify.exhaustive"), "ms"),
        "verify.random_ms": (ms("verify", "verify.random"), "ms"),
        "verify.edges_ms": (ms("verify", "verify.edges"), "ms"),
        **{f"verify.solver.{n}_ms": (ms("verify", f"verify.solver.{n}"), "ms")
           for n in solver_names},
        "verify.self_ms": (sum(ms("verify", c, field=2) for c in campaigns), "ms"),
        "verify.cases": (verify_cases, "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    detail = {
        "reps": REPS,
        "matched_samples": matched,
        "visit_ratio_per_volume": [r.volume_visited / inp.cells
                                   for r, inp in zip(cube_results, volumes)],
    }
    return {"metrics": metrics, "tracer": tr, "failures": failures, "detail": detail}
