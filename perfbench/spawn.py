"""Runs benchmark child processes on request, one at a time.

Linux carries a process's peak RSS across exec, and a child started with
vfork or posix_spawn shares its parent's memory until then, so the peak RSS
that wait4 reports for a child is at least its parent's peak.  The benchmark
holds large generated inputs, so it starts this small process first and lets
it start every timed child: each child's reported peak is then its own.

Protocol: one JSON request per stdin line, {"args": [...], "cwd": ..., "env":
{...}, "timeout": s}; one JSON reply per stdout line with wall_ms, cpu_ms,
rss_mb, exit, timed_out and the child's stdout.  End of input ends the process.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path


def invoke(args, cwd, env, timeout):
    """Run `sys.executable *args` to completion; wall time and peak RSS via wait4."""
    cwd = Path(cwd)
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    timed_out = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter_ns()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def kill():
            timed_out.append(True)
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_ns = time.perf_counter_ns() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_ms": wall_ns / 1e6,
        "cpu_ms": (usage.ru_utime + usage.ru_stime) * 1e3,
        "rss_mb": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
        "timed_out": bool(timed_out),
        "stdout": out_path.read_text(encoding="ascii", errors="replace"),
    }


def serve():
    for line in sys.stdin:
        req = json.loads(line)
        reply = invoke(req["args"], req["cwd"], req["env"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
