"""Tests of the benchmark's own code.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import unittest
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import guard  # noqa: E402
import loops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def take(stream, n):
    return list(itertools.islice(stream, n))


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for make in (workloads.slope_queries, workloads.norm_points):
            self.assertEqual(take(make(7), 500), take(make(7), 500))
            self.assertNotEqual(take(make(7), 500), take(make(8), 500))
        self.assertEqual(workloads.scan_commands(7), workloads.scan_commands(7))
        self.assertNotEqual(workloads.scan_commands(7), workloads.scan_commands(8))

    def test_shares_are_exact_per_block(self):
        strata = Counter(s for _, _, _, s, _ in take(workloads.norm_points(3), 1000))
        self.assertEqual(strata, {1: 800, 2: 100, 3: 30, 4: 70})
        kinds = Counter(k for *_, k in take(workloads.slope_queries(3), 1000))
        self.assertEqual(kinds["large_pq"], 200)
        self.assertEqual(kinds["generic"] + kinds["repeat"], 800)

    def test_slope_queries_are_reduced_fractions_in_range(self):
        for p, q, kind in take(workloads.slope_queries(5), 2000):
            self.assertTrue(0 < p < q <= workloads.SLOPE_MAX_Q)
            self.assertEqual(workloads.gcd(p, q), 1)
            if kind == "large_pq":
                self.assertGreaterEqual(4 * workloads.largest_partial_quotient(p, q), q - 3)

    def test_exact_points_are_scaled_symmetry_images(self):
        for x, y, tol, stratum, exact in take(workloads.norm_points(9), 2000):
            if stratum != 4:
                self.assertIsNone(exact)
                continue
            s, q, p = exact
            a, b = x / s, y / s
            self.assertEqual((a, b), (round(a), round(b)))
            # The orbit of (q, p) under rotation and swap has coordinates of
            # absolute values {q, p}, {p, q + p} or {q, q + p}.
            self.assertIn(sorted(map(abs, (a, b))),
                          (sorted([q, p]), sorted([p, q + p]), sorted([q, q + p])))

    def test_largest_partial_quotient(self):
        self.assertEqual(workloads.largest_partial_quotient(1, 100), 100)
        self.assertEqual(workloads.largest_partial_quotient(99, 100), 99)
        self.assertEqual(workloads.largest_partial_quotient(8, 13), 2)


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        S = spans.Span
        tree = [
            S("cli.verify", 0.0, 10.0, -1, None, None),
            S("conjectures.verify_family", 1.0, 7.0, 0, None, 5),
            S("indexing.markov_table", 2.0, 4.0, 1, None, 3),
            S("indexing.markov_table", 5.0, 6.0, 1, None, 4),
            S("conjectures.verify_family", 8.0, 9.5, 0, "AccuracyLimitError", None),
            S("conjectures.frobenius_scan", 8.5, 9.0, 4, None, None),
        ]
        t = spans.fold(tree)
        self.assertAlmostEqual(t["cli.verify.self_s"], 10.0 - 6.0 - 1.5)
        self.assertAlmostEqual(t["conjectures.verify_family.busy_s"], 7.5)
        self.assertAlmostEqual(t["conjectures.verify_family.self_s"], (6.0 - 3.0) + (1.5 - 0.5))
        self.assertAlmostEqual(t["indexing.markov_table.self_s"], 3.0)
        self.assertEqual(t["indexing.markov_table.size"], 7)
        self.assertEqual(t["indexing.markov_table.size_max"], 4)
        self.assertEqual(t["conjectures.verify_family.raised.AccuracyLimitError"], 1)
        # A layer is busy only outside its own spans: nested conjectures
        # spans are not counted twice.
        self.assertAlmostEqual(t["conjectures.busy_s"], 7.5)
        self.assertEqual(t["conjectures.calls"], 3)
        self.assertEqual(t["conjectures.verify_family>indexing.markov_table"], 1)

    def test_covered_merges_overlaps_and_clips(self):
        self.assertAlmostEqual(spans.covered([(0, 2), (1, 3), (5, 6), (-1, 0.5)], 0, 5.5), 3.5)
        self.assertEqual(spans.covered([], 0, 1), 0)

    def test_merge_adds_counts_and_keeps_maxima(self):
        into = {"a.calls": 1, "a.size_max": 9}
        spans.merge(into, {"a.calls": 2, "a.size_max": 4, "b.busy_s": 0.5})
        self.assertEqual(into, {"a.calls": 3, "a.size_max": 9, "b.busy_s": 0.5})

    def test_installed_tracer_nests_cli_conjectures_indexing(self):
        code = (
            "import json, sys, tempfile, os\n"
            "from spans import Tracer\n"
            "t = Tracer(); t.install()\n"
            "from markovnorm.cli import main\n"
            "out = os.path.join(tempfile.mkdtemp(), 'o.json')\n"
            "with t.span('cli.verify'):\n"
            "    main(['verify', 'numerator', '--max', '30', '--out', out])\n"
            "with t.span('cli.tree'):\n"
            "    main(['tree', '--depth', '3', '--out', out])\n"
            "print(json.dumps(t.take()[0]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        self.assertEqual(done.returncode, 0, done.stderr)
        t = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(t["cli.verify>conjectures.verify_family"], 1)
        self.assertEqual(t["conjectures.verify_family>indexing.markov_table"], 1)
        self.assertGreater(t["conjectures.verify_family.size"], 0)
        self.assertEqual(t["triples.enumerate_tree.size"], 15)
        self.assertLess(t["cli.verify.self_s"], t["cli.verify.busy_s"])


class Replays(unittest.TestCase):
    def test_first_pass_runs_every_op_once_even_without_time(self):
        events = []
        got = list(loops.replayed("abc", 0.0, lambda: events.append("reset"),
                                   lambda: events.append("done")))
        self.assertEqual(got, [(0, "a"), (1, "b"), (2, "c")])
        self.assertEqual(events, ["reset", "done"])

    def test_later_passes_leave_out_skipped_ops(self):
        cpus = os.sched_getaffinity(0)
        try:
            got = list(itertools.islice(
                loops.replayed("abc", 60.0, lambda: None, lambda: None, {1}.__contains__), 7))
        finally:
            os.sched_setaffinity(0, cpus)
        self.assertEqual([i for i, _ in got], [0, 1, 2, 0, 2, 0, 2])

    def test_best_latency_and_failed_operations(self):
        tally = loops.Tally(3)
        tally.record(0, 0.004)
        tally.record(1, 0.003, "accuracy limit")
        tally.record(0, 0.002)
        tally.record(1, 0.001)
        tally.record(2, 0.1, "deadline", killed=True)
        summary = tally.summary(2048)
        self.assertEqual((summary["attempted"], summary["failed"], summary["killed"],
                          summary["wrong"]), (3, 2, 1, 0))
        self.assertEqual(tally.best_s, [0.002, 0.001, 0.1])
        # The failed calls' time is left out of the throughput.
        self.assertAlmostEqual(summary["metrics"]["ops_per_s"], 1 / 0.002)
        self.assertEqual(summary["metrics"]["peak_rss_mb"], 2.0)
        groups = tally.by_group(["a", "a", "b"])
        self.assertEqual(groups["a"]["failed"], 1)
        self.assertEqual(groups["b"]["killed"], 1)


class DeadlineGuard(unittest.TestCase):
    def test_helper_starts_cold_and_restarts_cold(self):
        # (5, 2) has a small denominator, so norm_real makes exactly one
        # markov_of_slope lookup.  This process caches it first; a helper
        # forked from here must not inherit that.
        markovnorm = sys.modules["markovnorm"]
        markovnorm.norm_real(5.0, 2.0)
        helper = guard.Guard(None)
        try:
            def status_hits_misses():
                status, _, _, hits, misses, _ = helper.call(5.0, 2.0, 1e-9)
                return status, hits, misses

            self.assertEqual(status_hits_misses(), ("ok", 0, 1))
            self.assertEqual(status_hits_misses(), ("ok", 1, 0))
            helper.restart()
            self.assertEqual(status_hits_misses(), ("ok", 0, 1))
            helper.new_pass()
            self.assertEqual(status_hits_misses(), ("ok", 0, 1))
            self.assertGreater(helper.restart_s, 0)
        finally:
            helper.close()

    def test_set_up_loads_no_harness_module(self):
        code = ("import sys, guard\n"
                "print(sorted(set(sys.modules) & {'argparse', 'inspect', 'json', 'loops',\n"
                "    'multiprocessing', 'resource', 'spans', 'statistics', 'workloads'}))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertEqual(done.stdout.strip(), "[]")


class Checks(unittest.TestCase):
    def test_route_value_off_by_one_is_rejected(self):
        self.assertIsNone(checks.check_slope(29, 29, (4.46, 4.47)))
        self.assertIsNotNone(checks.check_slope(29, 30, (4.46, 4.47)))
        self.assertIsNotNone(checks.check_slope(29, 29, (4.47, 4.46)))

    def test_interval_wider_than_tol_is_rejected(self):
        self.assertIsNone(checks.check_norm((2.0, 2.0 + 5e-10), 1e-9))
        self.assertIsNotNone(checks.check_norm((2.0, 2.0 + 2e-9), 1e-9))

    def test_exact_direction_must_overlap_the_scaled_lattice_value(self):
        ref = (0.5, (4.0, 4.0 + 1e-12))
        self.assertIsNone(checks.check_norm((2.0 - 1e-10, 2.0 + 1e-10), 1e-9, ref))
        self.assertIsNotNone(checks.check_norm((2.1, 2.1 + 1e-10), 1e-9, ref))

    def test_tree_node_off_the_cubic_is_rejected(self):
        nodes = [{"path": "", "triple": ["1", "2", "5"]},
                 {"path": "L", "triple": ["1", "5", "13"]},
                 {"path": "R", "triple": ["2", "5", "29"]}]
        self.assertIsNone(checks.check_tree({"nodes": nodes}, 1))
        nodes[2]["triple"][2] = "30"
        self.assertIsNotNone(checks.check_tree({"nodes": nodes}, 1))
        self.assertIsNotNone(checks.check_tree({"nodes": nodes[:2]}, 1))

    def test_ball_point_count(self):
        self.assertEqual([checks.ball_point_count(q) for q in (1, 2, 3, 5, 10)],
                         [12, 24, 48, 120, 384])
        svg = '<polyline fill="none" points="{}"/>'
        self.assertIsNone(checks.check_ball_svg(svg.format(" ".join(["0,1"] * 13)), 1))
        self.assertIsNotNone(checks.check_ball_svg(svg.format(" ".join(["0,1"] * 12)), 1))

    def test_scan_documents(self):
        frob = {"duplicates": [], "valueCount": 3, "markovNumbers": ["1", "2", "5"]}
        self.assertIsNone(checks.check_frobenius(frob, 10))
        self.assertIsNotNone(checks.check_frobenius(dict(frob, valueCount=4), 10))
        self.assertIsNotNone(checks.check_frobenius(dict(frob, duplicates=["5"]), 10))
        count = {"points": [{"count": 7, "lattice": 7, "offset": 0}]}
        self.assertIsNone(checks.check_count(count, 1))
        self.assertIsNotNone(checks.check_count(
            {"points": [{"count": 7, "lattice": 8, "offset": 1}]}, 1))
        report = {"family": "numerator", "verified": True, "violations": [], "cases": 3}
        ok = {"verified": True, "reports": [report, dict(report, family="denominator"),
                                            dict(report, family="sum")]}
        self.assertIsNone(checks.check_verify(ok))
        ok["reports"][1] = dict(report, family="denominator", verified=False)
        self.assertIsNotNone(checks.check_verify(ok))


class BenchmarkJson(unittest.TestCase):
    def test_declared_metrics_are_the_ones_printed(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [(n, u, b) for n, u, b, _ in run.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
