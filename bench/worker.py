"""Benchmark worker: one fresh interpreter per set-up or measured pass.

    python bench/worker.py setup --workload W --seed N
        import anonsim, build the workload's inputs, print "ready", exit.
    python bench/worker.py run --workload W --seed N --seconds S --trace 0|1
        build the inputs, run the timed pass, check every output, and print
        one JSON line with the counts, the metrics and run information.

run.py starts these one at a time and times the set-up from outside.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import checks
import workloads
from workloads import ROOT, SRC

sys.path.insert(0, SRC)


def import_anonsim(trace: bool) -> dict:
    """Import anonsim from this checkout; with trace, time each import."""
    startup = {}
    if trace:
        import tracing

        startup = tracing.time_imports()
    import anonsim

    if not os.path.abspath(anonsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"anonsim imported from {anonsim.__file__}, not from {SRC}")
    return startup


def timed_pass(ops: list, rounds: int, seconds: float, first_seq: int):
    """Whole rounds until both `rounds` rounds and `seconds` have passed."""
    latencies, outputs = [], []
    seq = first_seq
    done = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.run(seq)
            except Exception as exc:  # a crash is a failed operation
                out = exc
            latencies.append(time.perf_counter() - t0)
            outputs.append((op, out))
            seq += 1
        done += 1
        if done >= rounds and time.perf_counter() - start >= seconds:
            break
    return latencies, outputs, time.perf_counter() - start, done


def judge(outputs: list) -> tuple[int, list, list]:
    """Count failed operations; return (failed, unexpected, expected) reasons."""
    failed, unexpected, expected = 0, [], []
    for op, out in outputs:
        if isinstance(out, Exception):
            reason = f"crashed: {type(out).__name__}: {out}"
        else:
            try:
                reason = op.check(out)
            except Exception as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is None:
            continue
        failed += 1
        (expected if op.known_fault else unexpected).append(f"{op.kind}: {reason}")
    return failed, unexpected, expected


def percentile(sorted_values: list, frac) -> tuple[float, int]:
    """Nearest-rank quantile `frac` (a Fraction) and the number of samples above it."""
    rank = min(max(1, math.ceil(len(sorted_values) * frac)), len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


def replay(outputs: list, ops_per_round: int) -> list:
    """Every round re-runs each operation with the same seed; its bytes must not change."""
    problems = []
    for i in range(ops_per_round):
        first = None
        for op, out in outputs[i::ops_per_round]:
            try:
                data = None if isinstance(out, Exception) else op.output_bytes(out)
            except Exception:  # judge() already counts an unreadable output
                data = None
            if data is None:
                continue
            if first is None:
                first = data
            elif problem := checks.check_replay(first, data):
                problems.append(f"{op.kind}: {problem}")
                break
    return problems


def versions() -> dict:
    import networkx
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
    }


def trace_snapshots(workload, outputs, tracer) -> list:
    if workload.in_process:
        return [tracer.snapshot()]
    snaps = []
    for _, out in outputs:
        if isinstance(out, Exception):
            continue
        path = os.path.join(out["outdir"], "trace.stats")
        with open(path, encoding="utf-8") as fh:
            snaps.append(json.load(fh))
    return snaps


def run(args, ctx: workloads.Context) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    startup = import_anonsim(args.trace == 1)
    ops = workload.build(args.seed, ctx)
    rounds = workload.min_rounds(len(ops))
    info = {"workload": workload.name, "seed": args.seed, **versions()}

    if args.trace == 0:
        latencies, outputs, elapsed, done = timed_pass(ops, rounds, args.seconds, 0)
        if workload.in_process:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ordered = sorted(latencies)
        tail_frac = workload.tail_fraction(len(ops))
        tail, beyond = percentile(ordered, tail_frac)
        metrics = {
            "ops_per_s": (len(latencies) / elapsed, "1/s"),
            "op_s_p50": (statistics.median(ordered), "s"),
            "op_s_tail": (tail, "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
        info.update(tail_percentile=float(100 * tail_frac), samples=len(ordered),
                    samples_beyond_tail=beyond, rounds=done, elapsed_s=elapsed,
                    kind_p50_s={op.kind: statistics.median(latencies[i::len(ops)])
                                for i, op in enumerate(ops)})
    else:
        import tracing

        # Fixed rounds, so that two traced runs with one seed count the same.
        _, _, plain_s, _ = timed_pass(ops, rounds, 0.0, 0)
        tracer = tracing.Tracer()
        if workload.in_process:
            tracer.install()
        ctx.traced = True
        _, outputs, traced_s, done = timed_pass(ops, rounds, 0.0, len(ops) * rounds)
        snaps = trace_snapshots(workload, outputs, tracer)
        if not workload.in_process:
            startup = {
                name: statistics.median(s["startup"][name] for s in snaps)
                for name in snaps[0]["startup"]
            }
        metrics = tracing.layer_metrics(snaps, startup, traced_s - plain_s)
        info.update(rounds=done, untraced_s=plain_s, traced_s=traced_s)

    failed, unexpected, expected = judge(outputs)
    unexpected += replay(outputs, len(ops))
    info.update(unexpected_failures=unexpected[:10], known_failures=sorted(set(expected)))
    return {
        "correct": not unexpected,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    temp_root = os.path.join(ROOT, "bench", ".tmp")
    os.makedirs(temp_root, exist_ok=True)
    ctx = workloads.Context(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=temp_root))
    try:
        if args.mode == "setup":
            import_anonsim(False)
            workloads.WORKLOADS[args.workload].build(args.seed, ctx)
            print("ready", flush=True)
            return 0
        result = run(args, ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
