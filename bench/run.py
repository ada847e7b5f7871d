"""anonsim benchmark command.

One run:

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

times the set-up of fresh interpreters, starts one worker for the timed
pass, and prints run information followed, as its last line, by
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Every process it starts runs alone, one after another.

Stability mode:

    python3 bench/run.py --stability

runs two interleaved sets of ten runs of every workload of the same
code, seeds 1..10 and 11..20, each run for BENCHMARK.json's
run_seconds, and prints per workload and end-to-end metric each set's
median and quartiles and whether the two sets agree within the bound
that BENCHMARK.json fixes.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_REPEATS = 9
RUN_DEADLINE_S = 170.0
STABILITY_RUNS = 10


class BenchError(Exception):
    """The benchmark could not produce a result."""


def commit() -> str:
    """The checkout's commit, or "unknown" when it is not a git repository."""
    cmd = ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_layout() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "anonsim", "__init__.py")):
        raise BenchError(f"no anonsim sources under {os.path.join(ROOT, 'src')}")


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def time_setup(workload: str, seed: int, deadline: float) -> float:
    """Wall time from starting a fresh interpreter until its inputs are built."""
    cmd = [sys.executable, WORKER, "setup", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=_child_env(), text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.communicate(timeout=_remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up process failed (exit {proc.returncode})")
    return ready - start


def run_worker(args, deadline: float) -> dict:
    cmd = [
        sys.executable, WORKER, "run", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=_child_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run's time limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def one_run(args) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    check_layout()
    setups = []
    if args.trace == 0:
        setups = [time_setup(args.workload, args.seed, deadline) for _ in range(SETUP_REPEATS)]
    result = run_worker(args, deadline)
    info = dict(result.pop("info"), commit=commit(), seconds=args.seconds, trace=args.trace)
    if setups:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        info["setup_samples_s"] = setups
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=2, sort_keys=True)
    print("info: " + json.dumps(info, sort_keys=True))
    if args.trace == 0:
        print(f"tail: p{info['tail_percentile']:g} of {info['samples']} operations "
              f"({info['samples_beyond_tail']} beyond it)")
    for reason in info["unexpected_failures"]:
        print(f"failed: {reason}")
    for reason in info["known_failures"]:
        print(f"failed (known fault): {reason}")
    return result


# ---- stability mode ---------------------------------------------------------


def change(metric: dict, first: float, second: float) -> float:
    """How much worse the second median is than the first, as a share (negative: better)."""
    share = (second - first) / first
    return share if metric["better"] == "lower" else -share


def stability_runs(spec: dict) -> list:
    """Two sets of STABILITY_RUNS runs per workload, seeds 1..2 STABILITY_RUNS.

    The sets are interleaved, run i of one set next to run i of the other,
    and the set that goes first alternates, so that a drift in the
    machine's speed falls on both sets alike.
    """
    names = [w["name"] for w in spec["workloads"]]
    sets = [{name: [] for name in names} for _ in range(2)]
    for i in range(STABILITY_RUNS):
        for name in names:
            for set_index in ((0, 1) if i % 2 == 0 else (1, 0)):
                seed = 1 + set_index * STABILITY_RUNS + i
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
                out = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                                     text=True, timeout=RUN_DEADLINE_S + 10)
                if out.returncode != 0:
                    sys.stderr.write(out.stderr)
                    raise BenchError(f"{name} seed {seed} failed")
                result = json.loads(out.stdout.strip().splitlines()[-1])
                sets[set_index][name].append(result)
                print(f"set {set_index + 1} {name} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
    return sets


def stability() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sets = stability_runs(spec)
    report, all_agree = [], True
    for name in sets[0]:
        shares = [{r["failed"] / r["attempted"] for r in s[name]} for s in sets]
        shares_agree = len(shares[0] | shares[1]) == 1
        all_agree &= shares_agree and all(r["correct"] for s in sets for r in s[name])
        print(f"\n{name}: failed share {sorted(shares[0])} vs {sorted(shares[1])} "
              f"{'agree' if shares_agree else 'DIFFER'}")
        for metric in spec["end_to_end"]:
            row = {"workload": name, "metric": metric["name"], "bound": metric["bound"]}
            for label, s in zip(("first", "second"), sets):
                values = [r["metrics"][metric["name"]]["value"] for r in s[name]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                row[label] = {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med}
            row["change"] = change(metric, row["first"]["median"], row["second"]["median"])
            # Only setup_s's medians are held to the bound; its spread over
            # seeds follows the machine's drift (see README) and is reported.
            spread_ok = metric["name"] == "setup_s" or all(
                row[label]["spread"] <= metric["bound"] for label in ("first", "second")
            )
            row["agree"] = spread_ok and abs(row["change"]) <= metric["bound"]
            all_agree &= row["agree"]
            report.append(row)
            print(f"  {metric['name']:12s} "
                  + "  ".join(f"{label}: {row[label]['median']:.6g} "
                              f"[{row[label]['q1']:.6g}, {row[label]['q3']:.6g}] "
                              f"spread {row[label]['spread']:.3f}"
                              for label in ("first", "second"))
                  + f"  worse by {row['change']:+.3f} (bound {metric['bound']})"
                  + ("  ok" if row["agree"] else "  NOT OK"))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "stability.json"), "w", encoding="utf-8") as fh:
        json.dump({"seconds": spec["run_seconds"], "runs_per_set": STABILITY_RUNS,
                   "rows": report}, fh, indent=2)
    print("\nall within bounds" if all_agree else "\nNOT all within bounds")
    return 0 if all_agree else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stability", action="store_true", help="two sets of runs; compare")
    args = parser.parse_args(argv)
    try:
        if args.stability:
            return stability()
        if args.workload is None:
            parser.error("--workload is required")
        result = one_run(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
