"""Benchmark of markovnorm: slope queries, certified real norms, CLI scans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload slopes|norm-real|scan --seed N \\
        --seconds S --trace 0|1

Set-up is timed over several fresh interpreters, each importing
markovnorm from src/ (and forking the norm-real helper) and nothing of the
harness; the median is setup_s.  The workload then runs for S seconds in one more fresh
interpreter, so the markov_of_slope cache starts cold.  With --trace 1 the
run is made twice, untraced and then traced, and the per-layer metrics
come with the tracing overhead (traced minus untraced) of every end-to-end
metric.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is the full report: input properties, failure share and
examples, per-stratum outcomes and the sample counts behind each
percentile.  Outputs go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("slopes", "norm-real", "scan")
SETUP_SAMPLES = 9
SUBCOMMANDS = ("verify", "frobenius", "count", "tree", "ball", "theorem1")

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
]

# name, unit, better, key in the worker's layer totals (see spans.fold)
PER_LAYER = [
    ("triples.enumerate_tree.busy_s", "s", "lower", None),
    ("triples.enumerate_tree.nodes", "count", "lower", "triples.enumerate_tree.size"),
    ("indexing.markov_of_slope.calls", "count", "lower", None),
    ("indexing.markov_of_slope.busy_s", "s", "lower", None),
    ("indexing.markov_of_slope.cache_hits", "count", "higher", None),
    ("indexing.markov_of_slope.cache_misses", "count", "lower", None),
    ("indexing.markov_of_slope_via_trace.calls", "count", "lower", None),
    ("indexing.markov_of_slope_via_trace.busy_s", "s", "lower", None),
    ("indexing.markov_table.busy_s", "s", "lower", None),
    ("indexing.markov_table.entries", "count", "lower", "indexing.markov_table.size"),
    ("intervals.calls", "count", "lower", None),
    ("intervals.busy_s", "s", "lower", None),
    ("intervals.iv_ln_int.calls", "count", "lower", None),
    ("intervals.iv_ln_int.max_input_bits", "bits", "lower", "intervals.iv_ln_int.size_max"),
    ("intervals.iv_acosh_half_int.busy_s", "s", "lower", None),
    ("intervals.iv_acosh_half_int.max_input_bits", "bits", "lower",
     "intervals.iv_acosh_half_int.size_max"),
    ("intervals.iv_acosh_of_logtrace.calls", "count", "lower", None),
    ("norm.norm_real.calls", "count", "lower", None),
    ("norm.norm_real.busy_s", "s", "lower", None),
    ("norm.norm_real.self_s", "s", "lower", None),
    ("norm.norm_real.accuracy_limit", "count", "lower",
     "norm.norm_real.raised.AccuracyLimitError"),
    ("norm.norm_real.deadline_miss", "count", "lower", None),
    ("norm.norm_real.exact_shortcut", "count", "lower",
     "norm.norm_real>indexing.markov_of_slope"),
    ("norm.worker_restart_s", "s", "lower", None),
    ("norm.stable_norm_interval.busy_s", "s", "lower", None),
    ("norm.ball_boundary_sample.busy_s", "s", "lower", None),
    ("norm.stable_norm.calls", "count", "lower", None),
    ("conjectures.verify_family.busy_s", "s", "lower", None),
    ("conjectures.verify_family.self_s", "s", "lower", None),
    ("conjectures.verify_family.cases", "count", "lower", "conjectures.verify_family.size"),
    ("conjectures.frobenius_scan.busy_s", "s", "lower", None),
    ("conjectures.markov_numbers_up_to.busy_s", "s", "lower", None),
    ("conjectures.verify_theorem1_random.busy_s", "s", "lower", None),
    ("conjectures.verify_theorem1_random.self_s", "s", "lower", None),
    ("conjectures.verify_theorem1_random.violations", "count", "lower",
     "conjectures.verify_theorem1_random.size"),
    ("counting.count_triples.busy_s", "s", "lower", None),
    ("counting.count_lattice.busy_s", "s", "lower", None),
    ("counting.fit_constant.busy_s", "s", "lower", None),
    *[(f"cli.{sub}.{m}", unit, "lower", None) for sub in SUBCOMMANDS
      for m, unit in (("wall_s", "s"), ("self_s", "s"), ("output_bytes", "bytes"))],
    *[(f"overhead.{name}", unit, "higher" if better == "higher" else "lower", None)
      for name, unit, better in END_TO_END],
]


class BenchError(Exception):
    pass


def _worker_cmd(args, probe: bool, trace: int):
    cmd = [sys.executable, WORKER, args.workload, str(args.seed), str(args.seconds),
           str(trace), OUT_DIR]
    return cmd + ["probe"] if probe else cmd


def _start(cmd):
    """Start a worker; return it and its set-up time (until it says ready)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    began = perf_counter()
    # Its own session, so that a stuck worker and its helper die together.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    line = proc.stdout.readline()
    setup = perf_counter() - began
    if line.strip() != "ready":
        _finish(proc, 10)
        raise BenchError(f"worker failed to start: {line!r}")
    return proc, setup


def _finish(proc, timeout: float) -> str:
    """The worker's remaining output; killed with its helper at the timeout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
        return out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker still running after {timeout} s") from None


def measure(args, trace: int) -> dict:
    """Set-up samples, then one run of the workload; the worker's summary."""
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = _start(_worker_cmd(args, True, trace))
        _finish(proc, 60)
        setups.append(setup)
    proc, setup = _start(_worker_cmd(args, False, trace))
    setups.append(setup)
    out = _finish(proc, args.seconds + 100)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    summary = json.loads(out.strip().splitlines()[-1])
    summary["metrics"]["setup_s"] = statistics.median(setups)
    summary["setup_samples_s"] = setups
    return summary


def per_layer(traced: dict, untraced: dict) -> dict:
    layer = dict(traced["layer"])
    for sub in SUBCOMMANDS:  # subcommand wall times come from the untraced run
        layer[f"cli.{sub}.wall_s"] = untraced["layer"].get(f"cli.{sub}.wall_s", 0)
    for name, _, _ in END_TO_END:
        layer[f"overhead.{name}"] = traced["metrics"][name] - untraced["metrics"][name]
    return {name: layer.get(key or name, 0) for name, _, _, key in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "markovnorm", "__init__.py")):
        print(f"perfbench: no markovnorm sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        untraced = measure(args, 0)
        traced = measure(args, 1) if args.trace else None
    except (BenchError, json.JSONDecodeError) as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 1

    run = traced or untraced
    if traced:
        values = per_layer(traced, untraced)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        values = untraced["metrics"]
        units = {name: unit for name, unit, _ in END_TO_END}
    report = {k: v for k, v in run.items() if k not in ("metrics", "layer")}
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, fail_share=run["failed"] / run["attempted"],
                  end_to_end=run["metrics"])
    if traced:
        report["untraced_end_to_end"] = untraced["metrics"]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": run["wrong"] == 0 and (not traced or untraced["wrong"] == 0),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
