"""The workload loops of one benchmark run.

worker.py imports this module only after it has reported ready, so none of
it counts as set-up.  All workloads are closed loops with a single caller:
the next operation starts when the previous one has answered.

The host's speed drifts by tens of percent from second to second, and
that noise only ever adds time.  So each run draws a fixed set of
operations from the seed and replays the set until the time is up, each
pass from a cold markov_of_slope cache; an operation's latency is the
fastest of its passes.  A norm_real call killed at the deadline is not
replayed: it stays failed, with the time waited as its latency.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import resource
import statistics
from collections import Counter
from time import perf_counter

import markovnorm

import checks
import workloads
from guard import CACHED


class Tally:
    """Per-operation best latency, failures and cache counters of a run."""

    def __init__(self, operations: int):
        self.best_s = [float("inf")] * operations
        self.executions = 0
        self.failed_ops: set[int] = set()
        self.killed: set[int] = set()
        self.wrong = 0
        self.reasons: list[str] = []
        self.cache = {"hits": 0, "misses": 0}
        self.layer: dict = {}

    def record(self, op: int, seconds: float, failure: str | None = None,
               wrong: bool = False, killed: bool = False):
        """One execution of operation ``op``; ``failure`` says why it failed,
        ``wrong`` whether that was a wrong answer or an undocumented error,
        ``killed`` whether it was stopped at the deadline without answering."""
        self.executions += 1
        self.best_s[op] = min(self.best_s[op], seconds)
        if killed:
            self.killed.add(op)
        if failure is not None:
            self.wrong += wrong
            if op not in self.failed_ops and len(self.reasons) < 5:
                self.reasons.append(failure)
            self.failed_ops.add(op)

    def cache_delta(self, hits: int, misses: int):
        self.cache["hits"] += hits
        self.cache["misses"] += misses

    def summary(self, peak_rss_kb: int) -> dict:
        """Metrics over every operation's best latency, and the per-layer
        counts of the first pass.  ops_per_s is the operations that
        succeeded over their own time: a failed call, killed or raising,
        shows in ``failed`` and in the p99, not in the throughput."""
        lat = [s * 1e3 for s in self.best_s]
        succeeded = len(lat) - len(self.failed_ops)
        succeeded_ms = sum(v for i, v in enumerate(lat) if i not in self.failed_ops)
        # Inclusive: on scan's six commands the default method would
        # extrapolate past the slowest one.
        p99 = statistics.quantiles(lat, n=100, method="inclusive")[98]
        return {
            "attempted": len(lat),
            "failed": len(self.failed_ops),
            "killed": len(self.killed),
            "wrong": self.wrong,
            "failure_examples": self.reasons,
            "executions": self.executions,
            "beyond_p99": sum(v > p99 for v in lat),
            "layer": self.layer,
            "metrics": {
                "peak_rss_mb": peak_rss_kb / 1024,
                "ops_per_s": succeeded / (succeeded_ms / 1e3) if succeeded else 0.0,
                "latency_p50_ms": statistics.median(lat),
                "latency_p99_ms": p99,
            },
        }

    def by_group(self, groups: list) -> dict:
        """Operations, failures and best latencies per group label, so a
        reader can weigh the groups differently from the workload's mix."""
        out = {}
        for group in sorted(set(groups), key=str):
            ops = [i for i, g in enumerate(groups) if g == group]
            lat = [self.best_s[i] * 1e3 for i in ops]
            out[str(group)] = {
                "operations": len(ops),
                "failed": sum(i in self.failed_ops for i in ops),
                "killed": sum(i in self.killed for i in ops),
                "latency_p50_ms": statistics.median(lat),
                "latency_max_ms": max(lat),
                "latency_sum_ms": sum(lat),
            }
        return out

    def first_pass(self, tracer):
        """Per-layer counts so far: taken once the first pass is done, so
        they describe one pass over the operations."""
        layer = {}
        if tracer is not None:
            tracer.flush()
            layer.update(tracer.totals)
        layer["indexing.markov_of_slope.cache_hits"] = self.cache["hits"]
        layer["indexing.markov_of_slope.cache_misses"] = self.cache["misses"]
        self.layer = layer


# The CPUs this process may use, before any pinning.
CPUS = sorted(os.sched_getaffinity(0))


def replayed(ops: list, seconds: float, reset, first_pass_done, skip=lambda i: False):
    """Yield (index, op) for every op, then again pass after pass until
    ``seconds`` have gone by, leaving out ops for which ``skip(index)``.
    ``reset()`` runs before every pass, ``first_pass_done()`` after the
    first.

    One CPU can stay slow for tens of seconds while another is fast, so
    each later pass runs pinned to the next CPU in turn: an operation's
    best pass has then had every CPU to choose from.  The README records
    the paired runs that showed this narrows the spreads.
    """
    end = perf_counter() + seconds
    reset()
    yield from enumerate(ops)
    first_pass_done()
    for n in itertools.count(1):
        if perf_counter() >= end:
            return
        os.sched_setaffinity(0, {CPUS[n % len(CPUS)]})
        reset()
        for i, op in enumerate(ops):
            if not skip(i):
                yield i, op
            if perf_counter() >= end:
                return


def run_slopes(seed: int, seconds: float, tracer):
    markov_of_slope = markovnorm.markov_of_slope
    via_trace = markovnorm.markov_of_slope_via_trace
    stable_norm_interval = markovnorm.stable_norm_interval
    queries = list(itertools.islice(workloads.slope_queries(seed), workloads.SLOPE_OPS))
    tally, stats = Tally(len(queries)), workloads.InputStats()
    for p, q, kind in queries:
        a = workloads.largest_partial_quotient(p, q)
        stats.add(kind, *(["large_partial_quotient"] if a >= 16 and 4 * a >= q else []))
        stats.high("max_q", q)
    for i, (p, q, kind) in replayed(queries, seconds, CACHED.cache_clear,
                                    lambda: tally.first_pass(tracer)):
        # The cache counters are read around the first lookup only: the
        # later calls of the operation look the same slope up again, and
        # only hits between queries are the cache's doing.
        before = CACHED.cache_info()
        start = perf_counter()
        try:
            m = markov_of_slope(p, q)
            paused = perf_counter()
            after = CACHED.cache_info()
            resumed = perf_counter()
            m_trace = via_trace(p, q)
            enc = stable_norm_interval((q, p))
        except Exception as ex:  # any raise is a failed operation
            tally.record(i, perf_counter() - start, f"{p}/{q}: {ex!r}", wrong=True)
            continue
        elapsed = perf_counter() - start - (resumed - paused)
        if tracer is not None:
            tracer.flush()
        tally.cache_delta(after.hits - before.hits, after.misses - before.misses)
        reason = checks.check_slope(m, m_trace, enc)
        tally.record(i, elapsed, reason and f"{p}/{q}: {reason}", wrong=True)
        stats.high("max_markov_bits", m.bit_length())
    summary = tally.summary(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    summary["groups"] = tally.by_group([kind for _, _, kind in queries])
    return summary, stats


def run_norm_real(seed: int, seconds: float, tracer, guard):
    points = list(itertools.islice(workloads.norm_points(seed), workloads.NORM_OPS))
    tally, stats = Tally(len(points)), workloads.InputStats()
    for x, y, tol, stratum, exact in points:
        stats.add(f"stratum{stratum}", *(["exact_direction"] if exact else []))
        stats.high("max_direction_bits", workloads.direction_bits(x, y))
    # Reference enclosures for the exact directions, computed untraced.
    # The helper empties its own cache whenever it starts, so the lookups
    # made here never reach it; emptying this process's copy as well keeps
    # them out of the memory that helpers forked later start with.
    with tracer.muted() if tracer is not None else contextlib.nullcontext():
        refs = {i: (exact[0], tuple(markovnorm.stable_norm_interval(exact[2:0:-1])))
                for i, (*_, exact) in enumerate(points) if exact is not None}
    CACHED.cache_clear()
    outcome: dict[int, str] = {}  # first outcome of each point
    for i, (x, y, tol, stratum, exact) in replayed(points, seconds, guard.new_pass,
                                                   lambda: tally.first_pass(tracer),
                                                   tally.killed.__contains__):
        status, value, elapsed, hits, misses, taken = guard.call(x, y, tol)
        outcome.setdefault(i, f"stratum{stratum}.{status}")
        tally.cache_delta(hits, misses)
        if taken is not None:
            tracer.absorb(*taken)
        where = f"stratum {stratum} ({x!r}, {y!r}) tol {tol!r}"
        if status == "ok":
            reason = checks.check_norm(value, tol, refs.get(i))
            tally.record(i, elapsed, reason and f"{where}: {reason}", wrong=True)
        elif status == "error":
            tally.record(i, elapsed, f"{where}: {value}", wrong=True)
        else:  # the documented AccuracyLimitError, or the deadline
            tally.record(i, elapsed, f"{where}: {status}", killed=status == "deadline")
    guard.close()
    summary = tally.summary(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    summary["outcomes"] = dict(sorted(Counter(outcome.values()).items()))
    summary["groups"] = tally.by_group([f"stratum{s}" for _, _, _, s, _ in points])
    summary["layer"].update({"norm.norm_real.deadline_miss": len(tally.killed),
                             "norm.worker_restart_s": guard.restart_s})
    return summary, stats


def run_scan(seed: int, seconds: float, tracer, out_dir: str):
    from markovnorm.cli import main

    commands = workloads.scan_commands(seed)
    out = os.path.join(out_dir, f"scan-{os.getpid()}.out")
    tally, stats = Tally(len(commands)), workloads.InputStats()
    for label, _, _ in commands:
        stats.add(label)
    sizes: dict[str, int] = {}
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        for i, (label, argv, expect) in replayed(commands, seconds, lambda: None,
                                                 lambda: tally.first_pass(tracer)):
            # Each invocation starts cold, as a fresh CLI process would; its
            # cache hits are lookups repeated within the one command.
            CACHED.cache_clear()
            start = perf_counter()
            try:
                with span(f"cli.{label}"):
                    code = main(argv + ["--out", out])
            except Exception as ex:
                tally.record(i, perf_counter() - start, f"{label}: {ex!r}", wrong=True)
                continue
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.flush()
            info = CACHED.cache_info()
            tally.cache_delta(info.hits, info.misses)
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            sizes[label] = len(text.encode())
            reason = f"exit code {code}" if code != 0 else checks.check_cli(label, text, expect)
            tally.record(i, elapsed, reason and f"{label}: {reason}", wrong=True)
    os.remove(out)
    summary = tally.summary(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for i, (label, _, _) in enumerate(commands):
        summary["layer"][f"cli.{label}.output_bytes"] = sizes.get(label, 0)
        summary["layer"][f"cli.{label}.wall_s"] = tally.best_s[i]
    return summary, stats


def run(workload: str, seed: int, seconds: float, tracer, guard, out_dir: str):
    """Run one workload and print its summary as one JSON line."""
    if workload == "slopes":
        summary, stats = run_slopes(seed, seconds, tracer)
    elif workload == "norm-real":
        summary, stats = run_norm_real(seed, seconds, tracer, guard)
    else:
        summary, stats = run_scan(seed, seconds, tracer, out_dir)
    summary["inputs"] = stats.report()
    if tracer is not None:
        tracer.write(os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl"))
    print(json.dumps(summary), flush=True)
