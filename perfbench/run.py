"""squarelab benchmark: CLI wall time per workload, per-layer times when traced.

    python3 perfbench/run.py --workload solve_large --seed 0 --seconds 15 --trace 0

One client runs `python -m squarelab ...` as a closed loop, one subprocess at
a time, round-robin over the workload's generated inputs, from a scratch
directory under `.perfbench/`.  Every output is checked against a reference
computed at set-up.  With `--trace 1` the run also traces the in-process
pipelines and reports per-layer metrics instead of end-to-end ones.

The last line of stdout is one JSON object (correct, attempted, failed,
metrics); the full record with raw samples goes to `.perfbench/results/`.
Run it from a source checkout: it imports and runs the package from `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Set-up runs once before the first invocation and again between rounds, one
# repetition every --seconds / SETUP_REPS, so that its median samples the
# host over the whole run, as the invocations do.
SETUP_REPS = 8
# Every run measures whole rounds, for at least --seconds and MIN_OPS
# invocations, so that the p75 tail always has ten samples beyond it.
MIN_OPS = 40
TAIL_PERCENTILE = 75
MAX_MEASURE_S = 120       # keeps a slowed-down run inside its time limit
OP_TIMEOUT_S = 60

# Host speed.  On the shared 2-vCPU VM of the baseline (README.md, "This host
# is noisy") a fixed pure-Python loop ran at one of two speeds about 1.8x
# apart, switching every few ms, and the share of slow time changed from
# minute to minute, moving every timing of a run together.
# After each invocation the run times a fixed DP loop over CAL_SIZE^2 cells,
# and the timing metrics are scaled by CAL_REF_MS / (the run's mean loop
# time): they read as at the speed at which the loop takes CAL_REF_MS.  The
# mean, because the loop's times are bimodal and a median jumps between modes.
CAL_SIZE = 350
CAL_REF_MS = 40.0


def calibrate() -> float:
    """Wall ms of the fixed calibration loop, which shares no code with the
    package: the host's speed right now."""
    start = time.perf_counter_ns()
    prev = [0] * CAL_SIZE
    for _ in range(CAL_SIZE):
        cur = [0] * CAL_SIZE
        for j in range(1, CAL_SIZE):
            cur[j] = min(prev[j], cur[j - 1], prev[j - 1]) + 1
        prev = cur
    return (time.perf_counter_ns() - start) / 1e6


def _describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "samples": values}


class Spawner:
    """Client of spawn.py, which starts every measured child (see there why)."""

    def __init__(self, env: dict):
        self.env = env
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, args: list[str], cwd: Path) -> dict:
        request = {"args": args, "cwd": str(cwd), "env": self.env,
                   "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawn.py exited early")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class CLI:
    """Runs and checks a workload's CLI invocations, keeping every record."""

    def __init__(self, spawner, command, check, inputs, workdir):
        self.spawner, self.command, self.check = spawner, command, check
        self.inputs, self.workdir = inputs, workdir
        self.records: list[dict] = []

    def run(self, i: int, warmup: bool = False) -> float:
        inp = self.inputs[i]
        rec = self.spawner.run(["-m", "squarelab", self.command, *inp.argv], self.workdir)
        if rec["timed_out"]:
            error = f"timed out after {OP_TIMEOUT_S}s"
        elif rec["exit"] != 0:
            error = f"exit code {rec['exit']}"
        else:
            error = self.check(self.command, inp, rec["stdout"])
        self.records.append({"input": i, "warmup": warmup, "wall_ms": rec["wall_ms"],
                             "cpu_ms": rec["cpu_ms"], "rss_mb": rec["rss_mb"],
                             "error": error, "cal_ms": calibrate()})
        return rec["wall_ms"]

    def control(self, code: str) -> float:
        """Wall ms of `python -c code`: interpreter start and import controls."""
        return self.spawner.run(["-c", code], self.workdir)["wall_ms"]

    def warm_up(self) -> None:
        for i in range(len(self.inputs)):
            self.run(i, warmup=True)

    def measure(self, seconds: float, min_ops: int, setup_again) -> float:
        """Whole rounds until `seconds` and `min_ops` are both reached, with
        `setup_again()` between rounds every `seconds / SETUP_REPS`."""
        start = time.monotonic()
        interval = seconds / SETUP_REPS
        next_setup = interval
        measured = 0
        while True:
            for i in range(len(self.inputs)):
                self.run(i)
            measured += len(self.inputs)
            elapsed = time.monotonic() - start
            if elapsed >= next_setup:
                setup_again()
                next_setup += interval
            if (elapsed >= seconds and measured >= min_ops) or elapsed >= MAX_MEASURE_S:
                return elapsed


def end_to_end(inputs, records, setup_seconds):
    """The inputs of a workload differ in cost, so a percentile of the mixed
    samples would sit at a boundary between inputs and jump between runs.
    `wall_ms_p50` is the mean of the per-input medians; `wall_ms_tail` takes
    the percentile of each wall time relative to its input's median, and
    scales it by that mean.  Times and rates are scaled to the reference host
    speed (see CAL_REF_MS); the summary keeps them as measured."""
    timed = [r for r in records if not r["warmup"]]
    walls = [r["wall_ms"] for r in timed]
    per_input = [statistics.median(r["wall_ms"] for r in timed if r["input"] == i)
                 for i in range(len(inputs))]
    relative = [r["wall_ms"] / per_input[r["input"]] for r in timed]
    tail_ratio = statistics.quantiles(relative, n=100)[TAIL_PERCENTILE - 1]
    mean_p50 = statistics.fmean(per_input)
    cal_ms = statistics.fmean(r["cal_ms"] for r in timed)
    scale = CAL_REF_MS / cal_ms
    cells = sum(inputs[r["input"]].cells for r in timed)
    failed = sum(1 for r in records if r["error"])
    measured = {
        "wall_ms_p50": mean_p50,
        "wall_ms_tail": tail_ratio * mean_p50,
        "cells_per_s": cells / (sum(walls) / 1e3),
        "setup_s": statistics.median(setup_seconds),
    }
    metrics = {
        "wall_ms_p50": (measured["wall_ms_p50"] * scale, "ms"),
        "wall_ms_tail": (measured["wall_ms_tail"] * scale, "ms"),
        "cells_per_s": (measured["cells_per_s"] / scale, "1/s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in timed), "MB"),
        "setup_s": (measured["setup_s"] * scale, "s"),
    }
    summary = {
        "wall_ms": _describe(walls),
        "wall_ms_per_input": per_input,
        "tail": {"percentile": TAIL_PERCENTILE, "samples": len(walls),
                 "beyond": sum(1 for x in relative if x > tail_ratio),
                 "ratio_to_p50": tail_ratio},
        "error_rate": failed / len(records),
        "calibration": {"ref_ms": CAL_REF_MS, "mean_ms": cal_ms, "scale": scale,
                        "ms": _describe([r["cal_ms"] for r in timed])},
        "as_measured": measured,
    }
    return metrics, summary


def stamp() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, env=env, timeout=30,
                                  capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    revision = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if revision else None
    return {
        "git_revision": revision or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def _print_table(workload, seed, metrics, summary, attempted, failed, trace):
    print(f"# {workload} seed={seed} trace={trace}: "
          f"{attempted} invocations, {failed} failed")
    for name, (value, unit) in metrics.items():
        note = ""
        if summary and name in summary["as_measured"]:
            note = f"  (as measured {summary['as_measured'][name]:.6g})"
        if name == "wall_ms_tail":
            t = summary["tail"]
            note += f"  (p{t['percentile']}, {t['samples']} samples, {t['beyond']} beyond)"
        print(f"  {name:<28} {value:>14.6g} {unit}{note}")
    if not trace:
        print(f"  {'error_rate':<28} {summary['error_rate']:>14.6g} ratio"
              f"  ({failed}/{attempted})")
        cal = summary["calibration"]
        print(f"  times scaled by {cal['scale']:.4g}: calibration loop "
              f"{cal['mean_ms']:.4g} ms mean, reference {cal['ref_ms']:g} ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "squarelab" / "__init__.py").is_file():
        print(f"perfbench: no squarelab package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawner = Spawner(env)  # before any input exists, so it stays small
    try:
        return _run(args, spawner)
    finally:
        spawner.close()


def _run(args, spawner) -> int:
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    started = time.time()
    for sub in ("work", "results", "traces"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT / "work"))
    try:
        families = ("matrix", "volume", "verify") if args.trace else (workload.family,)
        # a traced run reports no setup_s, only grid's generate and serialize
        reps = SETUP_REPS if args.trace else 1
        setups = {f: wl.setup(f, args.seed, workdir, reps) for f in families}
        command_families = {w.command: w.family for w in wl.WORKLOADS.values()}
        commands = command_families if args.trace else {workload.command: workload.family}
        for command, family in commands.items():
            wl.attach_references(command, setups[family])
        inputs = setups[workload.family].inputs
        cli = CLI(spawner, workload.command, wl.check_output, inputs, workdir)
        cli.warm_up()
        result_stem = f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
        record = {
            "workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "started_at": started,
            "stamp": stamp(),
            "inputs": [{"label": i.label, "argv": i.argv, "shape": i.shape,
                        "density": i.density, "gen_seed": i.gen_seed,
                        "cells": i.cells, "bytes": i.nbytes} for i in inputs],
        }
        trace_failures = []
        if args.trace:
            import layers
            from spans import by_name

            inputs_by_command = {c: setups[f].inputs for c, f in command_families.items()}
            traced = layers.traced_run(workload.command, inputs_by_command, setups,
                                       cli.run, cli.control)
            trace_failures = traced["failures"]
            metrics, summary = traced["metrics"], None
            spans_path = OUT / "traces" / f"{result_stem}.spans.json"
            traced["tracer"].write(spans_path)
            record["trace_detail"] = {
                **traced["detail"],
                "spans_file": str(spans_path.relative_to(ROOT)),
                "span_summary": by_name(traced["tracer"].spans),
            }
        else:
            setup_seconds = setups[workload.family].seconds

            def setup_again():
                setup_seconds.extend(wl.setup(workload.family, args.seed, workdir, 1).seconds)

            record["measured_s"] = cli.measure(args.seconds, MIN_OPS, setup_again)
            metrics, summary = end_to_end(inputs, cli.records, setup_seconds)
            record["summary"] = summary
        record["setup"] = {"reps": len(setups[workload.family].seconds),
                           "seconds": _describe(setups[workload.family].seconds)}
        records = cli.records
        failures = [f"{inputs[r['input']].label}: {r['error']}" for r in records if r["error"]]
        attempted, failed = len(records), len(failures)
        failures += trace_failures
        record["invocations"] = records
        record["failures"] = failures

        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        record["result"] = result
        record["finished_at"] = time.time()
        (OUT / "results" / f"{result_stem}.json").write_text(json.dumps(record, indent=1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if declared != set(result["metrics"]):
        print(f"perfbench: metrics {sorted(result['metrics'])} do not match "
              f"BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 3
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    _print_table(workload.name, args.seed, metrics, summary, attempted, failed, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
