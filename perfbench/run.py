"""mdlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload z-window --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload itself runs in a fresh
worker process (worker.py).  Set-up time is measured from outside, from
process start until the worker reports ready, on SETUP_SAMPLES processes
(the extra ones exit after set-up), and the median is reported.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it list every metric with
its unit, the tail percentile and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from inputs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
DEADLINE_S = 175.0


def spawn(cmd: list[str], timeout: float) -> tuple[int, float | None, str | None]:
    """Run a worker; return (exit code, seconds until ready, last stdout line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    ready = last = None
    try:
        for line in proc.stdout:
            if ready is None and line.startswith('{"ready"'):
                ready = time.perf_counter() - t0
            last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return code, ready, last


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mdlab", "__init__.py")):
        print(f"error: no mdlab source tree under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            code, ready, _ = spawn(cmd + ["--setup-only"], DEADLINE_S - (time.perf_counter() - start))
            if code != 0 or ready is None:
                print(f"error: set-up process exited with code {code}", file=sys.stderr)
                return 1
            setups.append(ready)
    code, ready, last = spawn(cmd, DEADLINE_S - (time.perf_counter() - start))
    if code != 0 or ready is None or last is None:
        print(f"error: workload process exited with code {code}", file=sys.stderr)
        return 1
    record = json.loads(last)
    metrics, details = record["metrics"], record["details"]
    if not args.trace:
        setups.append(ready)
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
        details["setup_samples_s"] = setups

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    if "tail" in details:
        t = details["tail"]
        print(f"op_tail_s is p{t['percentile']:.1f}: {t['beyond']} of {t['samples']} ops beyond it")
    print(f"failed_ratio {details['failed_ratio']:.6g} "
          f"({details['failed']} of {details['attempted']} attempted ops)")
    details.pop("latencies_s", None)       # kept in the run record under .bench_out/
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": details["failed"] == 0, "attempted": details["attempted"],
                      "failed": details["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
