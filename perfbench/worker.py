"""One workload process: set up, run the timed phase, check, report.

Started by run.py.  Prints {"ready": true} when set-up is done, so run.py can
time set-up from outside, and its result as one JSON object on the last line.
With --trace 1 the run is split in two halves of equal length: an untraced
half, then a traced half with fresh set-up; both must give bit-identical
brackets, and the difference in ops per second is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def import_mdlab() -> None:
    """Import mdlab from this checkout's source tree and nowhere else."""
    sys.path.insert(0, SRC)
    import mdlab
    if not os.path.abspath(mdlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"mdlab was imported from {mdlab.__file__}, not from {SRC}")


class Phase:
    """Ops of one timed phase: latencies, first bracket per pool item, failures."""

    def __init__(self, workload, seconds: float, tracer=None):
        n = len(workload.pool)
        self.latencies: list[float] = []
        self.rows: list = [None] * n
        self.failed = 0
        self.problems: list[str] = []
        start = time.perf_counter()
        deadline = start + seconds
        i = 0
        while True:
            k = i % n
            scope = tracer.span("bench.op", op=i) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with scope:
                    br, problems = workload.op(k)
            except Exception:  # an op that raises is a failed op; the run goes on
                br, problems = None, [traceback.format_exc(limit=4)]
            t1 = time.perf_counter()
            self.latencies.append(t1 - t0)
            if br is not None:
                if self.rows[k] is None:
                    self.rows[k] = br
                elif bits(self.rows[k]) != bits(br):
                    problems.append(f"{br.phi_id}: bracket changed between repeats")
            if problems:
                self.failed += 1
                self.problems.extend(problems)
            i += 1
            if t1 >= deadline and i >= n:      # at least one full pass over the pool
                break
        self.elapsed = time.perf_counter() - start
        self.ops = i

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.elapsed

    def indexed_rows(self):
        return [(k, br) for k, br in enumerate(self.rows) if br is not None]


def bits(br):
    return float(br.lower).hex(), float(br.upper).hex()


def close(workload, phase: Phase, tag: str) -> tuple[list[str], int]:
    """The closing report step: one more attempted op, not timed as an op."""
    try:
        return workload.close(os.path.join(OUT, tag), phase.indexed_rows())
    except Exception:
        return [traceback.format_exc(limit=4)], 0


def tail(latencies: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 11:
        return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n,
                "beyond": 10, "samples": n}
    return {"value": ordered[-1], "percentile": 100.0, "beyond": 0, "samples": n}


def timed_run(workload, seconds: float, tag: str) -> tuple[dict, dict]:
    phase = Phase(workload, seconds)
    close_problems, _ = close(workload, phase, tag)
    attempted = phase.ops + 1
    failed = phase.failed + (1 if close_problems else 0)
    widths = [br.upper - br.lower for br in phase.rows
              if br is not None and math.isfinite(br.upper)]
    t = tail(phase.latencies)
    metrics = {
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_p50_s": (statistics.median(phase.latencies), "s"),
        "op_tail_s": (t["value"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "bracket_width_mean": (statistics.fmean(widths) if widths else 0.0, "norm"),
    }
    details = {"ops": phase.ops, "elapsed_s": phase.elapsed, "tail": t,
               "latencies_s": phase.latencies,
               "failed_ratio": failed / attempted, "attempted": attempted,
               "failed": failed, "problems": (phase.problems + close_problems)[:10]}
    return metrics, details


def traced_run(workload_cls, inputs, cfg, workload, seconds: float, tag: str):
    from tracing import Tracer

    untraced = Phase(workload, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup", op="setup"):
            fresh = workload_cls(inputs, cfg)
        traced = Phase(fresh, seconds / 2, tracer)
        with tracer.span("bench.close", op="close"):
            close_problems, nbytes = close(fresh, traced, tag)
            tracer.add("cli.write_bytes", nbytes)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(OUT, f"{tag}-spans.jsonl"))

    compared = mismatched = 0
    problems = untraced.problems + traced.problems + close_problems
    for a, b in zip(untraced.rows, traced.rows):
        if a is not None and b is not None:
            compared += 1
            if bits(a) != bits(b):
                mismatched += 1
                problems.append(f"{a.phi_id}: traced bracket {bits(b)} != untraced {bits(a)}")
    attempted = untraced.ops + traced.ops + 1
    failed = untraced.failed + traced.failed + (1 if close_problems else 0) + mismatched
    metrics = tracer.metrics()
    metrics.update({
        "trace.untraced_ops_per_s": (untraced.ops_per_s, "1/s"),
        "trace.traced_ops_per_s": (traced.ops_per_s, "1/s"),
        "trace.overhead_ops_per_s": (traced.ops_per_s - untraced.ops_per_s, "1/s"),
        "trace.brackets_compared": (compared, "count"),
        "trace.brackets_identical": (compared - mismatched, "count"),
    })
    details = {"ops_untraced": untraced.ops, "ops_traced": traced.ops,
               "attempted": attempted, "failed": failed,
               "failed_ratio": failed / attempted, "problems": problems[:10]}
    return metrics, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_mdlab()
    from mdlab.config import resolve_config

    import inputs as bench_inputs
    import workloads
    from machine import machine_info

    cfg = resolve_config(env={})           # library defaults, whatever MDLAB_* says
    inputs = bench_inputs.make_inputs(args.workload, args.seed)
    workload_cls = workloads.WORKLOADS[args.workload]
    workload = workload_cls(inputs, cfg)
    print(json.dumps({"ready": True}), flush=True)
    if args.setup_only:
        return 0

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, details = traced_run(workload_cls, inputs, cfg, workload, args.seconds, tag)
    else:
        metrics, details = timed_run(workload, args.seconds, tag)
    details.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "inputs_digest": bench_inputs.digest(inputs), "machine": machine_info()})
    record = {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "details": details}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in details["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
