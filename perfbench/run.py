#!/usr/bin/env python3
"""The repository benchmark: end-to-end metrics per workload, and a traced run
for per-layer metrics.

    python3 perfbench/run.py                      # all workloads, end to end
    python3 perfbench/run.py --trace 1            # all workloads, per layer
    python3 perfbench/run.py --workload kv-write-1kib --seed 7 --seconds 18 --trace 0
    python3 perfbench/run.py --seed 20261017      # the held-out seed

Run it from the repository root. It builds `perfbench/` (its own Cargo
workspace) into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs the
measuring program one single-threaded process per phase:

1. `check`: the workload's runs under the fuzz crate's standard invariant
   checkers, which must find no violation; gives the virtual-time metrics.
2. `time` (trace 0, split over two processes): set-up timing, then
   untraced repeats of the first checked run for `--seconds` seconds in all;
   gives the host metrics, each the
   median over its repeats of host time scaled to a reference speed, which
   a reference kernel measures between slices of every repeat.
3. `trace` (trace 1): one untraced and one traced run plus layer kernels;
   gives the per-layer metrics and the tracing overhead.

Every timed and traced run's output fingerprint and deterministic counters
must equal those of the checked run of the same seed. Any violation or
mismatch prints the result with "correct": false and exits 1. The last stdout
line of a single-workload run is one JSON object: correct, attempted,
failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["e0-hotstuff-4x7", "kv-write-1kib", "geo-churn-broker"]

# Processes the timed repeats of one run are split over: the repeats of one
# process agree more closely with each other than with another process's
# (memory layout differs from process to process), so a run pools several.
TIME_PARTS = 2

# The seed quoted by default. Seed 20261017 is held out: it was kept out of
# tuning, for confirming claims with `--seed 20261017`.
DEFAULT_SEED = 1

END_TO_END = {
    "setup_s": "s",
    "host_txn_per_s": "1/s",
    "cpu_us_per_txn": "us",
    "peak_rss_mb": "MB",
    "sim_write_tps": "1/s",
    "sim_write_p50_ms": "ms",
    "sim_write_p99_ms": "ms",
    "sim_read_p99_ms": "ms",
    "sim_max_gap_ms": "ms",
    "failed_frac": "ratio",
}

HERE = os.path.dirname(os.path.abspath(__file__))


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms") or ".stage_ms." in name:
        return "ms"
    if "_ns" in name or name.startswith("tob.ns."):
        return "ns"
    if "bytes" in name:
        return "B"
    return "count"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def phase(binary, name, workload, seed, *extra):
    cmd = [binary, name, "--workload", workload, "--seed", str(seed), *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail(f"{name} phase of {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_matches(check, label, fingerprints, events=None, completed=None):
    """Problems found comparing runs of sub-seed 0 with the checked run 0."""
    problems = []
    for i, fp in enumerate(fingerprints):
        if fp != check["fingerprints"][0]:
            problems.append(f"{label} {i}: fingerprint differs from the checked run's")
        if events is not None and events[i] != check["run_events"][0]:
            problems.append(f"{label} {i}: {events[i]} events != checked {check['run_events'][0]}")
        if completed is not None and completed[i] != check["run_completed"][0]:
            problems.append(f"{label} {i}: {completed[i]} txns != checked {check['run_completed'][0]}")
    return problems


def end_to_end(binary, workload, seed, seconds, check):
    parts = [phase(binary, "time", workload, seed, "--seconds", str(seconds / TIME_PARTS), "--part", str(i))
             for i in range(TIME_PARTS)]
    timed = {k: sum((p[k] for p in parts), []) for k in
             ("setup_s", "wall_s", "cpu_s", "raw_wall_s", "slowdown", "completed", "events", "fingerprints")}
    timed["peak_rss_mb"] = max(p["peak_rss_mb"] for p in parts)
    problems = check_matches(check, "timed repeat", timed["fingerprints"], timed["events"], timed["completed"])
    reps = len(timed["wall_s"])
    txns = timed["completed"][0]
    metrics = {
        "setup_s": statistics.median(timed["setup_s"]),
        "host_txn_per_s": txns / statistics.median(timed["wall_s"]),
        "cpu_us_per_txn": 1e6 * statistics.median(timed["cpu_s"]) / txns,
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    metrics.update({k: check[k] for k in END_TO_END if k.startswith("sim_") or k == "failed_frac"})
    runs = len(check["fingerprints"])
    raw_tps = txns / statistics.median(timed["raw_wall_s"])
    slowdown = statistics.median(timed["slowdown"])
    samples = {
        "setup_s": f"median of {reps} bursts of 16 deployments in {TIME_PARTS} processes, at reference speed",
        "host_txn_per_s": f"median of {reps} repeats of {txns:.0f} txns in {TIME_PARTS} processes, at reference speed"
                          f" (as measured: {raw_tps:.6g}; host slowdown {slowdown:.3g})",
        "cpu_us_per_txn": f"median of {reps} repeats of {txns:.0f} txns in {TIME_PARTS} processes, at reference speed",
        "peak_rss_mb": f"timed processes' VmHWM, sub-seeds 1-{TIME_PARTS}",
        "sim_write_tps": f"{check['writes']:.0f} writes over {runs} runs",
        "sim_write_p50_ms": f"n={check['writes']:.0f} writes over {runs} runs",
        "sim_write_p99_ms": f"n={check['writes']:.0f} writes over {runs} runs",
        "sim_read_p99_ms": f"n={check['reads']:.0f} reads over {runs} runs",
        "sim_max_gap_ms": f"longest of {runs} runs",
        "failed_frac": f"{check['attempted'] - check['completed']:.0f} of {check['attempted']:.0f} ops",
    }
    for name, unit in END_TO_END.items():
        print(f"{workload:18} {name:18} {metrics[name]:>14.6g} {unit:6} ({samples[name]})")
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}, problems


def per_layer(binary, workload, seed, check):
    traced = phase(binary, "trace", workload, seed)
    # A warm-up run, then untraced and traced runs alternating, all of sub-seed 0.
    problems = check_matches(check, "trace phase run", traced["fingerprints"])
    for name, value in traced["metrics"].items():
        note = f"n/a: {traced['na'][name]}" if name in traced["na"] else ""
        print(f"{workload:18} {name:40} {value:>14.6g} {layer_unit(name):6} {note}")
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in traced["metrics"].items()}, problems


def run_workload(binary, workload, seed, seconds, trace):
    check = phase(binary, "check", workload, seed)
    problems = []
    if check["violations"] != 0:
        problems.append(f"{check['violations']:.0f} checker violations")
    if trace:
        metrics, more = per_layer(binary, workload, seed, check)
    else:
        metrics, more = end_to_end(binary, workload, seed, seconds, check)
    problems += more
    for p in problems:
        print(f"{workload}: INCORRECT: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": int(check["attempted"]),
        "failed": int(check["failed"]),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all, in order)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    binary = build()
    results = [run_workload(binary, w, args.seed, args.seconds, args.trace)
               for w in ([args.workload] if args.workload else WORKLOADS)]
    if args.workload:
        print(json.dumps(results[0]))
    if not all(r["correct"] for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
