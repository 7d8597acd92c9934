"""The benchmark's own self-check.

    python3 perfbench/selfcheck.py

Checks that the same seed generates identical inputs and another seed
different ones; that a short untraced and a short traced run of every
workload end with no failed op and, traced, with bit-identical brackets
(the untraced runs print every end-to-end metric with its unit);
and that run.py refuses to produce a result in a copy of the benchmark
that has no mdlab source tree next to it.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402


def run(cwd: str, workload: str, trace: int, seconds: int = 3):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    failures = []
    for w in inputs.WORKLOADS:
        a, b, c = (inputs.digest(inputs.make_inputs(w, seed)) for seed in (1, 1, 2))
        if a != b:
            failures.append(f"{w}: seed 1 generated two different inputs")
        if a == c:
            failures.append(f"{w}: seeds 1 and 2 generated the same inputs")

    for w in inputs.WORKLOADS:
        for trace in (0, 1):
            out = run(ROOT, w, trace)
            if out.returncode != 0:
                failures.append(f"{w} trace={trace}: exit {out.returncode}: {out.stderr[-500:]}")
                continue
            result = json.loads(out.stdout.splitlines()[-1])
            m = result["metrics"]
            if result["failed"] or not result["correct"]:
                failures.append(f"{w} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} ops failed: {out.stderr[-500:]}")
            if trace and (m["trace.brackets_identical"]["value"]
                          != m["trace.brackets_compared"]["value"]):
                failures.append(f"{w}: traced and untraced brackets differ")
            print(f"{w} trace={trace}: {result['attempted']} ops attempted, "
                  f"{result['failed']} failed")
            if not trace:
                for line in out.stdout.splitlines():
                    if not line.startswith("{"):
                        print("    " + line)

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = run(bare, inputs.WORKLOADS[0], 0)
    if out.returncode == 0 or '"correct"' in out.stdout:
        failures.append("run.py produced a result without an mdlab source tree")
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print(f"FAIL {f}")
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
