"""Compare benchmark results of a parent and a change, workload by workload.

    # run ten pairs on every workload, alternating which side goes first,
    # then compare
    python3 perfbench/compare.py run --parent CHECKOUT --change CHECKOUT \\
        --out DIR [--seed 1000]
    # compare result records already collected (files or directories)
    python3 perfbench/compare.py verdict --parent PATH... --change PATH...

A result record is a JSON object with `workload`, `seed`, `trace` and
`result` (the line run.py prints last); run.py's files under
`.perfbench/results/` and the files `run` writes both qualify.  Runs are
paired by workload and seed.  One verdict per workload and end-to-end
metric, with the bounds and directions of BENCHMARK.json:

- better: the change wins at least 9/10 of at least 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile spread;
- worse: the change's median is worse than the parent's by more than the
  bound, and the parent's spread is within the bound;
- unresolved: the parent's spread is wider than the bound (unless every
  change run beats every parent run), or a gain is shown on fewer than 10
  pairs;
- unchanged: none of the above.

Failures are compared as error rates: any more failed operations than the
parent's make the change's error_rate worse.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def load_records(paths: list[str]) -> list[dict]:
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    records = []
    for f in files:
        rec = json.loads(f.read_text())
        if isinstance(rec, dict) and "result" in rec and rec.get("trace") == 0:
            records.append(rec)
    return records


def _pairs(parent: list[dict], change: list[dict], workload: str):
    """(parent, change) result pairs for one workload, matched by seed."""
    by_seed: dict[int, list[dict]] = {}
    for rec in parent:
        if rec["workload"] == workload:
            by_seed.setdefault(rec["seed"], []).append(rec["result"])
    pairs = []
    for rec in change:
        if rec["workload"] == workload and by_seed.get(rec["seed"]):
            pairs.append((by_seed[rec["seed"]].pop(0), rec["result"]))
    return pairs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One verdict for paired samples of one metric (see module docstring)."""
    sign = 1 if better == "higher" else -1
    n = len(parent)
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    gain = sign * (cm - pm)
    spread = (p3 - p1) / pm
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if wins >= WIN_SHARE * n and gain > p3 - p1:
        word = "better" if n >= MIN_PAIRS else "unresolved"
    elif spread > bound and not all_better:
        word = "unresolved"
    elif -gain / pm > bound:
        word = "worse"
    else:
        word = "unchanged"
    return {"verdict": word, "pairs": n, "wins": wins, "parent": (p1, pm, p3),
            "change": (c1, cm, c3), "delta": (cm - pm) / pm, "spread": spread}


def compare(parent_records: list[dict], change_records: list[dict], spec: dict) -> list[dict]:
    rows = []
    for w in spec["workloads"]:
        pairs = _pairs(parent_records, change_records, w["name"])
        if not pairs:
            rows.append({"workload": w["name"], "metric": "-", "verdict": "no pairs"})
            continue
        for m in spec["end_to_end"]:
            p = [a["metrics"][m["name"]]["value"] for a, _ in pairs]
            c = [b["metrics"][m["name"]]["value"] for _, b in pairs]
            rows.append({"workload": w["name"], "metric": m["name"], "unit": m["unit"],
                         **verdict(p, c, m["better"], m["bound"])})
        failed = [sum(r["failed"] for r in side) for side in zip(*pairs)]
        attempted = [sum(r["attempted"] for r in side) for side in zip(*pairs)]
        rates = [f / a for f, a in zip(failed, attempted)]
        rows.append({"workload": w["name"], "metric": "error_rate", "unit": "ratio",
                     "verdict": "worse" if failed[1] > failed[0] else "unchanged",
                     "pairs": len(pairs), "rates": rates, "failed": failed,
                     "attempted": attempted})
    return rows


def render(rows: list[dict]) -> str:
    out = [f"{'workload':<14} {'metric':<14} {'parent median [q1, q3]':>34} "
           f"{'change median [q1, q3]':>34} {'delta':>8} {'wins':>7}  verdict"]
    for r in rows:
        if "parent" in r:
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            out.append(f"{r['workload']:<14} {r['metric']:<14} {fmt(r['parent']):>34} "
                       f"{fmt(r['change']):>34} {r['delta']:>+8.2%} "
                       f"{r['wins']:>3}/{r['pairs']:<3}  {r['verdict']} {r['unit']}")
        elif "rates" in r:
            out.append(f"{r['workload']:<14} {r['metric']:<14} "
                       f"{r['rates'][0]:>34.3g} {r['rates'][1]:>34.3g} "
                       f"{'':>8} {'':>7}  {r['verdict']} "
                       f"({r['failed'][0]}/{r['attempted'][0]} vs "
                       f"{r['failed'][1]}/{r['attempted'][1]} failed)")
        else:
            out.append(f"{r['workload']:<14} {r['metric']:<14} {r['verdict']}")
    return "\n".join(out) + "\n"


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(directory.rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(directory)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def run_pairs(parent: Path, change: Path, out: Path, workloads: list[str],
              seed: int, seconds: int) -> None:
    """Run MIN_PAIRS pairs in both checkouts, alternating which side goes first."""
    if _tree_digest(parent / "perfbench") != _tree_digest(change / "perfbench"):
        raise SystemExit("the two checkouts must hold identical benchmark code")
    for side in ("parent", "change"):
        (out / side).mkdir(parents=True, exist_ok=True)
    checkouts = {"parent": parent, "change": change}
    for k in range(MIN_PAIRS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed + k), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=checkouts[side], capture_output=True,
                                      text=True, timeout=600)
                if proc.returncode != 0:
                    raise SystemExit(f"{side} {workload} seed {seed + k} failed:\n"
                                     f"{proc.stderr}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                record = {"workload": workload, "seed": seed + k, "trace": 0,
                          "pair": k, "order": order.index(side), "result": result}
                path = out / side / f"{workload}-seed{seed + k}.json"
                path.write_text(json.dumps(record))
                print(f"pair {k} {side:<6} {workload:<13} "
                      f"correct={result['correct']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run", help="run alternating pairs, then compare")
    p_run.add_argument("--parent", type=Path, required=True, help="parent checkout")
    p_run.add_argument("--change", type=Path, required=True, help="change checkout")
    p_run.add_argument("--out", type=Path, required=True, help="directory for records")
    p_run.add_argument("--seed", type=int, default=1000,
                       help="first seed; pair k uses seed+k on both sides")
    p_verdict = sub.add_parser("verdict", help="compare collected records")
    p_verdict.add_argument("--parent", nargs="+", required=True)
    p_verdict.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.mode == "run":
        workloads = [w["name"] for w in spec["workloads"]]
        run_pairs(args.parent.resolve(), args.change.resolve(), args.out, workloads,
                  args.seed, spec["run_seconds"])
        parent_paths, change_paths = [str(args.out / "parent")], [str(args.out / "change")]
    else:
        parent_paths, change_paths = args.parent, args.change
    rows = compare(load_records(parent_paths), load_records(change_paths), spec)
    sys.stdout.write(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
