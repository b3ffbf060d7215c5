"""End-to-end tests for the command line interface.

Commands run in process through main(argv); stdout payloads are parsed
back and compared against the library. A single subprocess test checks
the installed entry point wiring.
"""

import hashlib
import importlib.util
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import markovnorm.conjectures as conjectures
from markovnorm import (
    CheckResult,
    ball_boundary_sample,
    christoffel_word,
    enumerate_tree,
    markov_numbers_up_to,
    markov_of_slope_via_trace,
    mat_trace,
    stable_norm,
    verify_family,
    word_matrix,
)
import markovnorm.cli as cli
from markovnorm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_slope_basic(capsys):
    code, payload, _ = run_json(capsys, "slope", "1/2")
    assert code == 0
    assert payload["p"] == 1 and payload["q"] == 2
    assert payload["markov"] == "5"
    assert payload["trace"] == "15"
    assert payload["christoffelWord"] == "aab"
    assert payload["path"] == ""
    assert math.isclose(payload["stableNorm"], stable_norm((2, 1)), rel_tol=1e-15)


def test_slope_interior_path(capsys):
    code, payload, _ = run_json(capsys, "slope", "2/3")
    assert code == 0
    assert payload["markov"] == "29"
    assert payload["path"] == "R"
    assert payload["christoffelWord"] == "aabab"


def test_slope_boundary_labels(capsys):
    code, a, _ = run_json(capsys, "slope", "0/1")
    assert code == 0 and a["markov"] == "1" and a["christoffelWord"] == "a"
    code, b, _ = run_json(capsys, "slope", "1/1")
    assert code == 0 and b["markov"] == "2" and b["christoffelWord"] == "ab"


def test_slope_prints_big_markov_numbers_in_full(capsys):
    # m(7919/12345) has 7870 digits, past the default int-to-str limit of
    # Python 3.11+; main lifts the limit for the command and restores it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, payload, _ = run_json(capsys, "slope", "7919/12345")
    assert code == 0
    assert len(payload["markov"]) == 7870
    tail = markov_of_slope_via_trace(7919, 12345) % 10**20
    assert payload["markov"][-20:] == f"{tail:020d}"
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def _decimal(n: int) -> str:
    """str(n) in full, past the int-to-str digit limit of Python 3.11+."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_slope_trace_is_the_word_product_trace(capsys, monkeypatch):
    # The trace field against the letter-by-letter product of the Christoffel
    # word, at the boundary labels, both ends of every denominator up to 200,
    # random slopes and one whose numbers pass the int-to-str digit limit.
    rng = random.Random(11)
    slopes = [(0, 1), (1, 1), (7919, 12345)]
    slopes += [(p, q) for q in range(2, 201) for p in {1, q - 1}]
    while len(slopes) < 500:
        q = rng.randint(2, 200)
        p = rng.randint(1, q - 1)
        if math.gcd(p, q) == 1:
            slopes.append((p, q))
    for p, q in slopes:
        code, payload, _ = run_json(capsys, "slope", f"{p}/{q}")
        trace = mat_trace(word_matrix(christoffel_word(p, q)))
        assert code == 0 and payload["trace"] == _decimal(trace), (p, q)

    def forbidden(*args):
        raise AssertionError("a Christoffel matrix was built")

    # No whole Christoffel matrix is built for the trace.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "markovnorm" and hasattr(module, "christoffel_matrix"):
            monkeypatch.setattr(module, "christoffel_matrix", forbidden)
    code, payload, _ = run_json(capsys, "slope", "2/3")
    assert code == 0 and payload["trace"] == "87"


def test_slope_rejects_unreduced(capsys):
    code, out, err = run(capsys, "slope", "2/4")
    assert code == 2
    assert out == ""
    assert "2/4" in err


def test_verify_single_family(capsys):
    code, payload, _ = run_json(capsys, "verify", "numerator", "--max", "40")
    assert code == 0
    rep = verify_family("numerator", 40)
    assert payload["reports"][0]["family"] == "numerator"
    assert payload["reports"][0]["bound"] == "40"
    assert payload["reports"][0]["cases"] == rep.cases
    assert payload["reports"][0]["verified"] is True
    assert payload["verified"] is True


def test_verify_all_families(capsys):
    code, payload, _ = run_json(capsys, "verify", "all", "--max", "30")
    assert code == 0
    assert [r["family"] for r in payload["reports"]] == list(
        ("numerator", "denominator", "sum"))
    assert payload["verified"] is True


def test_verify_theorem1(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "theorem1", "--samples", "25", "--seed", "5")
    assert code == 0
    assert payload["reports"][0]["family"] == "theorem1"
    assert payload["reports"][0]["violations"] == []
    assert payload["verified"] is True


def test_verify_theorem1_fails_when_a_sample_is_not_certified(capsys, monkeypatch):
    monkeypatch.setattr(conjectures, "theorem1_check_real",
                        lambda q, p, i: CheckResult.INCONCLUSIVE)
    code, payload, _ = run_json(capsys, "verify", "theorem1", "--samples", "4")
    assert code == 1
    assert payload["verified"] is False
    assert payload["reports"][0]["verified"] is False
    assert len(payload["reports"][0]["violations"]) == 4


def test_verify_rejects_tiny_bound(capsys):
    code, out, err = run(capsys, "verify", "numerator", "--max", "1")
    assert code == 2 and "--max: 1 < 2" in err


def test_tree(capsys):
    code, payload, _ = run_json(capsys, "tree", "--depth", "2")
    assert code == 0
    assert payload["depth"] == 2
    nodes = payload["nodes"]
    assert len(nodes) == 7
    assert nodes[0] == {"path": "", "triple": ["1", "2", "5"]}
    assert [n["path"] for n in nodes] == ["", "L", "R", "LL", "LR", "RL", "RR"]
    assert nodes[-1]["triple"] == ["2", "29", "169"]


def _tree_payload(depth):
    return {"depth": depth, "nodes": [
        {"path": path, "triple": [str(v) for v in sorted(t)]}
        for path, t in enumerate_tree(depth)]}


@pytest.mark.parametrize("depth", range(10))
def test_tree_document_is_the_json_dump(capsys, depth):
    code, out, _ = run(capsys, "tree", "--depth", str(depth))
    assert code == 0
    assert out == json.dumps(_tree_payload(depth), indent=2, sort_keys=True) + "\n"


def test_norm_exact_and_float_agree(capsys):
    code, exact, _ = run_json(capsys, "norm", "--exact", "5", "3")
    assert code == 0
    code, approx, _ = run_json(capsys, "norm", "5.0", "3.0", "--tol", "1e-10")
    assert code == 0
    assert max(exact["lo"], approx["lo"]) <= min(exact["hi"], approx["hi"])
    assert approx["hi"] - approx["lo"] <= 1e-10


def test_norm_accuracy_limit_exit_code(capsys, deadline):
    with deadline(5):
        code, out, err = run(capsys, "norm", "1e300", "1.0")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "accuracy limit"
    assert payload["lo"] < payload["hi"]
    assert err.startswith("markovnorm: trace bound: ")


def test_norm_exact_refuses_huge_denominators(capsys, deadline):
    with deadline(5):
        code, out, err = run(
            capsys, "norm", "--exact", "123456789012345678901234567890", "3")
    assert code == 1
    assert json.loads(out) == {"error": "accuracy limit", "tol": 1e-9}
    assert err.startswith("markovnorm: reduced denominator ")
    assert "without --exact" in err and "Traceback" not in err


def test_accuracy_limit_from_any_subcommand_exits_1(capsys):
    witness = "1" + "0" * 400 + ",0"
    code, out, err = run(
        capsys, "ball", "--max-q", "2", "--format", "svg", "--witness", witness)
    assert code == 1 and out == ""
    assert err.startswith("markovnorm: norm exceeds float range\n")
    assert "Traceback" not in err


def test_norm_beyond_float_range(capsys):
    # stdout stays valid JSON: no Infinity bound is printed.
    code, out, err = run(capsys, "norm", "1.7e308", "1.7e308")
    assert code == 1
    assert "Infinity" not in out
    assert json.loads(out) == {"error": "accuracy limit", "tol": 1e-9}
    assert err.startswith("markovnorm: norm exceeds float range\n")


def test_norm_rejects_a_non_finite_tol(capsys):
    # The payload echoes --tol, and JSON has no Infinity or NaN.
    for argv in (["3", "2"], ["--exact", "3", "2"]):
        for tol in ("inf", "-inf", "nan"):
            code, out, err = run(capsys, "norm", *argv, f"--tol={tol}")
            assert code == 2 and out == ""
            assert err.startswith("markovnorm: error:")


def test_norm_tol_rule_writes_nothing(capsys, monkeypatch, tmp_path):
    # --tol is norm_real's width bound, finite and at least 1e-12, checked
    # before any norm and with --exact too, naming the flag.
    def forbidden(*args, **kwargs):
        raise AssertionError("a norm was computed")

    monkeypatch.setattr(cli, "norm_real", forbidden)
    monkeypatch.setattr(cli, "stable_norm_interval", forbidden)
    cases = [(["0.3", "0.7"], tol, message) for tol, message in (
        ("1e-13", "--tol: 1e-13 < 1e-12"),
        ("-1", "--tol: -1.0 < 1e-12"),
        ("inf", "--tol must be finite, got inf"),
        ("nan", "--tol must be finite, got nan"))]
    cases.append((["3", "2", "--exact"], "1e-13", "--tol: 1e-13 < 1e-12"))
    target = tmp_path / "norm.json"
    for point, tol, message in cases:
        for out_flag in ([], ["--out", str(target)]):
            code, out, err = run(capsys, "norm", *point, f"--tol={tol}", *out_flag)
            assert code == 2 and out == "" and message in err, (point, tol)
            assert not target.exists()


def test_norm_exact_beyond_float_range(capsys):
    code, out, err = run(capsys, "norm", "--exact", str(10**400), "0")
    assert code == 1
    assert json.loads(out) == {"error": "accuracy limit", "tol": 1e-9}


def test_norm_exact_requires_integers(capsys):
    code, out, err = run(capsys, "norm", "--exact", "2.5", "1.0")
    assert code == 2 and err


def test_count_with_lattice(capsys):
    code, payload, _ = run_json(
        capsys, "count", "100", "10000", "--lattice")
    points = payload["points"]
    assert code == 0
    assert [pt["count"] for pt in points] == [7, 21]
    assert all(pt["offset"] == 0 for pt in points)
    assert math.isclose(points[0]["cEstimate"], 7 / math.log(100) ** 2)


def test_frobenius_list(capsys):
    code, payload, _ = run_json(
        capsys, "frobenius", "--bound", "1000", "--list")
    assert code == 0
    assert payload["duplicates"] == []
    assert payload["valueCount"] == 13
    assert payload["markovNumbers"] == [str(m) for m in markov_numbers_up_to(1000)]


def test_frobenius_reports_a_value_the_walk_yields_twice(capsys, walk_repeats_29):
    code, payload, _ = run_json(
        capsys, "frobenius", "--bound", "1000", "--list")
    assert code == 1
    assert payload["duplicates"] == ["29"]
    assert payload["valueCount"] == 13
    assert payload["markovNumbers"].count("29") == 1


def _frobenius_payload(bound, listed):
    distinct, duplicates = conjectures._collect_by_value(bound)
    payload = {"bound": str(bound), "duplicates": [str(v) for v in duplicates],
               "valueCount": len(distinct)}
    if listed:
        payload["markovNumbers"] = [str(v) for v in distinct]
    return payload


@pytest.mark.parametrize("listed", [False, True], ids=["plain", "list"])
@pytest.mark.parametrize("bound", [1, 2, 5, 13, 1000, 10**40])
def test_frobenius_document_is_the_json_dump(capsys, bound, listed):
    argv = ["frobenius", "--bound", str(bound)] + ["--list"] * listed
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == cli._json(_frobenius_payload(bound, listed))


@pytest.mark.parametrize("listed", [False, True], ids=["plain", "list"])
def test_frobenius_document_with_a_duplicate_is_the_json_dump(
        capsys, walk_repeats_29, listed):
    argv = ["frobenius", "--bound", "1000"] + ["--list"] * listed
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == cli._json(_frobenius_payload(1000, listed))


@pytest.mark.parametrize("slice_size", [1, 2, 3, 7])
def test_documents_written_in_slices_are_the_whole_documents(
        capsys, monkeypatch, slice_size):
    # Slices split tree levels and the value list; the bytes do not change.
    monkeypatch.setattr(cli, "_SLICE", slice_size)
    for bound in (1, 5, 1000, 10**40):
        for listed in (False, True):
            argv = ["frobenius", "--bound", str(bound)] + ["--list"] * listed
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out == cli._json(_frobenius_payload(bound, listed)), argv
    for depth in range(10):
        code, out, _ = run(capsys, "tree", "--depth", str(depth))
        assert code == 0
        assert out == cli._json(_tree_payload(depth)), depth


@pytest.mark.parametrize("slice_size", [1, 2, 3, 7])
def test_frobenius_duplicate_document_in_slices_is_the_json_dump(
        capsys, monkeypatch, walk_repeats_29, slice_size):
    monkeypatch.setattr(cli, "_SLICE", slice_size)
    for listed in (False, True):
        code, out, _ = run(capsys, "frobenius", "--bound", "1000", *["--list"] * listed)
        assert code == 1
        assert out == cli._json(_frobenius_payload(1000, listed))


class _Recorder:
    """A sys.stdout stand-in that records each text it is given."""

    def __init__(self):
        self.texts = []

    def write(self, text):
        self.texts.append(text)
        return len(text)

    def writelines(self, texts):
        for text in texts:
            self.write(text)


def test_no_write_takes_more_than_one_slice(monkeypatch):
    # Each list entry of a frobenius document starts a line with '    "',
    # and each tree node holds one "path".
    recorder = _Recorder()
    writes = recorder.texts
    monkeypatch.setattr(sys, "stdout", recorder)
    monkeypatch.setattr(cli, "_SLICE", 3)
    for argv, mark, total in (
        (["frobenius", "--bound", str(10**40), "--list"], '\n    "',
         len(markov_numbers_up_to(10**40))),
        (["tree", "--depth", "6"], '"path"', 2**7 - 1),
    ):
        writes.clear()
        assert main(argv) == 0
        counts = [w.count(mark) for w in writes]
        assert sum(counts) == total and max(counts) == 3, argv


def test_ball_csv(capsys):
    code, out, _ = run(capsys, "ball", "--max-q", "1")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 12
    pts = [tuple(float(c) for c in row.split(",")) for row in rows]
    angles = [math.atan2(y, x) for x, y in pts]
    assert angles == sorted(angles)


@pytest.mark.parametrize("max_q", [1, 2, 3, 40])
def test_ball_documents_format_ball_boundary_sample(capsys, max_q):
    # Both documents are the library's floats formatted in order: repr per
    # CSV row, "%.10f" in the SVG polyline, which closes on its first point.
    # Compared as text, not by digest, since the floats come from libm; as
    # lists, so that a failure reports its first index without a long diff.
    pts = ball_boundary_sample(max_q)
    code, out, _ = run(capsys, "ball", "--max-q", str(max_q), "--format", "csv")
    assert code == 0
    assert out.splitlines(True) == [f"{x!r},{y!r}\n" for x, y in pts]
    coords = " ".join("%.10f,%.10f" % xy for xy in pts + pts[:1])
    for witness in ((), ("--witness", "7,3")):
        code, out, _ = run(
            capsys, "ball", "--max-q", str(max_q), "--format", "svg", *witness)
        assert code == 0
        assert re.findall(r' points="([^"]*)"', out) == [coords]
        assert out.count("<line") == (3 if witness else 0)


def test_ball_svg_witness(capsys):
    code, out, _ = run(
        capsys, "ball", "--max-q", "2", "--format", "svg", "--witness", "2,1")
    assert code == 0
    assert out.startswith("<svg")
    assert out.count("<line") == 3
    assert "polyline" in out


def test_ball_witness_requires_svg(capsys):
    code, out, err = run(capsys, "ball", "--max-q", "2", "--witness", "2,1")
    assert code == 2 and err


@pytest.mark.parametrize("argv", [
    ("--format", "csv", "--witness", "1,1"),
    ("--witness", "1,1"),
    ("--format", "svg", "--witness", "1,x"),
    ("--format", "svg", "--witness", "1,2,3"),
    ("--format", "svg", "--witness", "0,0"),
])
def test_ball_usage_errors_return_before_the_sample(capsys, monkeypatch, argv):
    def sample(max_q):
        raise AssertionError("the ball sample was built")

    monkeypatch.setattr(cli, "_ball_cone", sample)
    code, out, err = run(capsys, "ball", "--max-q", "400", *argv)
    assert code == 2 and out == "" and "--witness" in err


def test_ball_max_q_limit(capsys, monkeypatch):
    def sample(max_q):
        raise AssertionError("the ball sample was built")

    monkeypatch.setattr(cli, "_ball_cone", sample)
    for fmt in ("csv", "svg"):
        code, out, err = run(capsys, "ball", "--max-q", "513", "--format", fmt)
        assert code == 2 and out == ""
        assert "--max-q: 513 > 512" in err


def test_verify_max_limit_is_checked_before_any_table(capsys, monkeypatch, tmp_path):
    def table(max_bound):
        raise AssertionError("a Markov table was built")

    monkeypatch.setattr(cli, "markov_table", table)
    monkeypatch.setattr(conjectures, "markov_table", table)
    target = tmp_path / "verify.json"
    for family in ("all", "sum"):
        code, out, err = run(capsys, "verify", family, "--max", "1001",
                             "--out", str(target))
        assert code == 2 and out == ""
        assert "--max: 1001 > 1000" in err
        assert not target.exists()


def test_verify_max_limit_admits_its_own_value(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_VERIFY_MAX", 30)
    code, payload, _ = run_json(capsys, "verify", "all", "--max", "30")
    assert code == 0 and payload["verified"] is True
    code, out, err = run(capsys, "verify", "numerator", "--max", "31")
    assert code == 2 and out == "" and "--max: 31 > 30" in err
    # theorem1 takes no table, so --max does not apply to it
    code, payload, _ = run_json(capsys, "verify", "theorem1", "--samples", "2",
                                "--max", "31")
    assert code == 0 and payload["verified"] is True


def test_verify_max_limit_sits_above_every_size_in_use():
    # perfbench's scan workload, the README's example and the tests' largest
    # (the pinned verify-all-80) all run below the limit.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sizes = [int(v) for v in re.findall(r"verify \w+ --max (\d+)", readme)]
    sizes += [_scan_sizes()["verify_max"], 80]
    assert len(sizes) >= 3 and max(sizes) <= cli._VERIFY_MAX


def test_verify_samples_rule_writes_nothing(capsys, monkeypatch, tmp_path):
    def draw(*args, **kwargs):
        raise AssertionError("a theorem1 sample was drawn")

    monkeypatch.setattr(cli, "verify_theorem1_random", draw)
    limit = cli._SAMPLES_MAX
    target = tmp_path / "theorem1.json"
    cases = [(["--samples", str(limit + 1)], f"--samples: {limit + 1} > {limit}"),
             (["--samples", "0"], "--samples: 0 < 1")]
    for flags, message in cases:
        for out_flag in ([], ["--out", str(target)]):
            code, out, err = run(capsys, "verify", "theorem1", *flags, *out_flag)
            assert code == 2 and out == "" and message in err, flags
            assert not target.exists()
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_SAMPLES_MAX", 3)
    code, payload, _ = run_json(capsys, "verify", "theorem1", "--samples", "3")
    assert code == 0 and payload["reports"][0]["bound"] == "3"


def test_verify_samples_limit_sits_above_every_size_in_use():
    # perfbench's scan workload, the README's example and the tests' largest
    # (test_verify_theorem1's 25) all run below the limit.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sizes = [int(v) for v in re.findall(r"verify theorem1 --samples (\d+)", readme)]
    sizes += [_scan_sizes()["theorem1_samples"], 25]
    assert len(sizes) >= 3 and max(sizes) <= cli._SAMPLES_MAX


def _scan_sizes():
    """perfbench's SCAN_SIZES, read from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.SCAN_SIZES


def test_frobenius_bound_rules_write_nothing(capsys, monkeypatch, tmp_path):
    def walk(bound):
        raise AssertionError("the value walk was started")

    monkeypatch.setattr(cli, "_collect_by_value", walk)
    limit = cli._VALUE_MAX_EXP
    target = tmp_path / "frobenius.json"
    for bound, message in (
        ("0", "--bound: 0 < 1"),
        ("-3", "--bound: -3 < 1"),
        ("abc", "--bound expects a decimal integer, got 'abc'"),
        (str(10**limit + 1), f"--bound: {10**limit + 1} > 10**{limit}"),
    ):
        for out_flag in ([], ["--out", str(target)]):
            code, out, err = run(capsys, "frobenius", "--bound", bound, "--list",
                                 *out_flag)
            assert code == 2 and out == "" and message in err, bound
            assert not target.exists()


def test_frobenius_bound_limit_admits_its_own_value(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_VALUE_MAX_EXP", 3)
    code, payload, _ = run_json(capsys, "frobenius", "--bound", "1000")
    assert code == 0 and payload["valueCount"] == 13
    code, out, err = run(capsys, "frobenius", "--bound", "1001")
    assert code == 2 and out == "" and "--bound: 1001 > 10**3" in err


def test_frobenius_bound_limit_sits_above_every_size_in_use():
    # perfbench's scan workload, the README's example and the tests' largest
    # (the pinned frobenius-1e40) all run below the limit.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sizes = [int(v) for v in re.findall(r"frobenius --bound (\d+)\s", readme)]
    sizes += [10 ** _scan_sizes()["frobenius_bound_digits"], 10**40]
    assert len(sizes) >= 3 and max(sizes) <= 10 ** cli._VALUE_MAX_EXP


def test_ball_max_q_below_one_names_the_flag(capsys, monkeypatch, tmp_path):
    def sample(max_q):
        raise AssertionError("the ball sample was built")

    monkeypatch.setattr(cli, "_ball_cone", sample)
    target = tmp_path / "ball"
    for max_q in ("0", "-3"):
        code, out, err = run(capsys, "ball", "--max-q", max_q, "--out", str(target))
        assert code == 2 and out == ""
        assert f"--max-q: {max_q} < 1" in err
        assert not target.exists()


def test_ball_witness_denominator_limit(capsys, monkeypatch):
    # m(p/q) has about 1.4 q bits, so a witness past stable_norm_interval's
    # q <= 2**18 is a usage error, raised before any norm or sample.
    def forbidden(*args):
        raise AssertionError("the witness norm was computed")

    monkeypatch.setattr(cli, "stable_norm", forbidden)
    monkeypatch.setattr(cli, "_ball_cone", forbidden)
    code, out, err = run(
        capsys, "ball", "--max-q", "2", "--format", "svg", "--witness", "262145,1")
    assert code == 2 and out == ""
    assert "--witness" in err and "262145 > 262144" in err
    monkeypatch.undo()
    # (524288, 2) reduces to twice (2**18, 1), at the limit.
    code, out, _ = run(
        capsys, "ball", "--max-q", "2", "--format", "svg", "--witness", "524288,2")
    assert code == 0 and out.count("<line") == 3


def test_slope_denominator_limit_admits_its_own_value(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a Markov number was computed")

    monkeypatch.setattr(cli, "_EXACT_MAX_Q", 5)
    code, payload, _ = run_json(capsys, "slope", "2/5")
    assert code == 0 and payload["q"] == 5
    monkeypatch.setattr(cli, "markov_of_slope", forbidden)
    code, out, err = run(capsys, "slope", "1/6")
    assert code == 2 and out == "" and "fraction: denominator 6 > 5" in err


def test_count_bound_limit_admits_its_own_value(capsys, monkeypatch):
    def forbidden(schedule):
        raise AssertionError("the value walk was started")

    monkeypatch.setattr(cli, "_VALUE_MAX_EXP", 3)
    code, payload, _ = run_json(capsys, "count", "2", "1000")
    assert code == 0 and [pt["count"] for pt in payload["points"]] == [2, 13]
    monkeypatch.setattr(cli, "fit_constant", forbidden)
    for argv, message in ((["2", "1001"], "bounds: 1001 > 10**3"),
                          (["1", "100"], "bounds: 1 < 2")):
        code, out, err = run(capsys, "count", *argv)
        assert code == 2 and out == "" and message in err, argv


def test_slope_and_count_limits_sit_above_every_size_in_use():
    # The README's examples, perfbench's scan workload and the tests'
    # largest (slope 7919/12345, count 100 10000) all run below the limits.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    denominators = [int(q) for q in re.findall(r"slope\s+\d+/(\d+)", readme)]
    assert len(denominators) >= 2 and max(denominators + [12345]) <= cli._EXACT_MAX_Q
    bounds = [int(b) for args in re.findall(r"count ((?:\d+ )+)", readme)
              for b in args.split()]
    bounds += [10 ** max(_scan_sizes()["count_bound_digits"]), 10000]
    assert len(bounds) >= 3 and max(bounds) <= 10 ** cli._VALUE_MAX_EXP


_USAGE_ERRORS = {
    "slope": (["slope", "2/4"], "2/4"),
    "verify": (["verify", "all", "--max", "1"], "--max: 1 < 2"),
    "ball": (["ball", "--max-q", "0"], "--max-q: 0 < 1"),
    "tree": (["tree", "--depth", "-1"], "--depth: -1 < 0"),
    "norm": (["norm", "0", "0"], "nonzero"),
    "count": (["count", "5", "3"], "bounds must increase, got 3 after 5"),
    "frobenius": (["frobenius", "--bound", "0"], "--bound: 0 < 1"),
}


@pytest.mark.parametrize("name", list(_USAGE_ERRORS))
def test_usage_error_writes_nothing(capsys, tmp_path, name):
    # main opens stdout or --out only once the subcommand has returned.
    argv, message = _USAGE_ERRORS[name]
    target = tmp_path / "doc"
    for out_flag in ([], ["--out", str(target)]):
        code, out, err = run(capsys, *argv, *out_flag)
        assert code == 2 and out == "" and message in err, out_flag
        assert not target.exists()


def test_out_path_that_cannot_be_opened_is_a_usage_error(capsys, tmp_path, monkeypatch):
    # A missing directory, or a directory as the file, is refused before the
    # subcommand runs; an open that fails anyway is reported the same way.
    def forbidden(*args):
        raise AssertionError("the scan ran before --out was checked")

    monkeypatch.setattr(cli, "_collect_by_value", forbidden)
    for argv in (["tree", "--depth", "3"], ["frobenius", "--bound", "100"]):
        for target in (tmp_path / "missing" / "doc.json", tmp_path):
            code, out, err = run(capsys, *argv, "--out", str(target))
            assert code == 2 and out == "", (argv, target)
            message, wall = err.splitlines()
            assert message.startswith("markovnorm: error: --out: ")
            assert wall.startswith("wall")
    assert list(tmp_path.iterdir()) == []
    too_long = tmp_path / ("x" * 300)  # past the file system's name limit
    code, out, err = run(capsys, "tree", "--depth", "3", "--out", str(too_long))
    assert code == 2 and out == "" and err.startswith("markovnorm: error: --out: ")
    assert list(tmp_path.iterdir()) == []


def test_out_flag_writes_stdout_payload(capsys, tmp_path):
    # tree and ball write level by level and sector by sector, through the
    # same writer as stdout.
    target = tmp_path / "doc"
    for argv in (
        ("tree", "--depth", "0"),
        ("tree", "--depth", "1"),
        ("tree", "--depth", "5"),
        ("tree", "--depth", "9"),
        ("ball", "--max-q", "40", "--format", "csv"),
        ("ball", "--max-q", "40", "--format", "svg", "--witness", "7,3"),
    ):
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and out == ""
        code2, out2, _ = run(capsys, *argv)
        assert code2 == 0
        assert target.read_text(encoding="utf-8") == out2, argv


@pytest.mark.parametrize("too_deep", [True, False], ids=["too-deep", "negative"])
def test_tree_depth_rules_write_nothing(capsys, monkeypatch, tmp_path, too_deep):
    limit = cli._TREE_MAX_DEPTH
    depth, message = (limit + 1, f"--depth: {limit + 1} > {limit}") if too_deep else (
        -1, "--depth: -1 < 0")

    def walk(depth):
        raise AssertionError("the tree walk was started")

    monkeypatch.setattr(cli, "enumerate_tree", walk)
    code, out, err = run(capsys, "tree", "--depth", str(depth))
    assert code == 2 and out == "" and message in err
    target = tmp_path / "tree.json"
    code, out, err = run(capsys, "tree", "--depth", str(depth), "--out", str(target))
    assert code == 2 and out == "" and message in err
    assert not target.exists()


def test_tree_depth_limit_sits_above_the_scan_workload():
    # perfbench's scan workload runs the deepest tree in use; the tests run
    # at most depth 9 and the README 4.
    assert 9 <= _scan_sizes()["tree_depth"] <= cli._TREE_MAX_DEPTH


def test_output_is_deterministic(capsys):
    _, a, _ = run(capsys, "slope", "3/5")
    _, b, _ = run(capsys, "slope", "3/5")
    assert a == b


# The SHA-256 of stdout and the exit code are pinned.  The tree, frobenius and
# verify documents hold only integers, so no libm rounding can move them.  The
# two ball documents hold floats from math.acosh, pinned as CPython 3.11 on
# x86-64 glibc writes them; they hold the ball's drawing to its exact bytes.
# The theorem1 document holds integers and the verdicts of its certified
# comparisons, which rest on norm_real's enclosures.
_PINNED = {
    "tree-8": (["tree", "--depth", "8"],
               "a9827e7e1144ec2147a149de0ae599d93ce06e20b263e9c9c55fd25060f37cd4"),
    "frobenius-1e40": (["frobenius", "--bound", str(10**40), "--list"],
                       "ddfcbf6c424d4f9a1ee3a3a0acaaca6f1807326345964c93c1657df2fd4b9dfc"),
    "verify-all-80": (["verify", "all", "--max", "80"],
                      "52e47dfa6b198e56d055a3db69d21419f17f7d8f33b641e838b10e4c7b2a2458"),
    "ball-100-svg-witness": (
        ["ball", "--max-q", "100", "--format", "svg", "--witness", "7,3"],
        "89379e0b27cba48e401aca1bd09fe579b5edbb6373474eebf547d22909316cbd"),
    "ball-40-csv": (["ball", "--max-q", "40", "--format", "csv"],
                    "b4fda44e84deaae707f74b26549d2e7c9de895b21d3d64417611cfd51fb4570d"),
    "theorem1-150-seed-1": (["verify", "theorem1", "--samples", "150", "--seed", "1"],
                            "a490516081c1731ad5679f6e632587ced35f37ab811f801d1d22cb48743cb3bb"),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_integer_documents_are_byte_identical(capsys, name):
    argv, digest = _PINNED[name]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_one_parser_serves_every_call_in_a_process(capsys):
    # main builds its parser once; a parse, failed or not, leaves it as it was.
    assert cli._build_parser() is cli._build_parser()
    first = [run(capsys, *argv) for argv in (["slope", "3/5"], ["tree", "--depth", "4"])]
    assert [code for code, _, _ in first] == [0, 0]
    with pytest.raises(SystemExit) as info:
        main(["tree"])  # --depth is required
    assert info.value.code == 2
    assert "--depth" in capsys.readouterr().err
    again = [run(capsys, *argv) for argv in (["tree", "--depth", "4"], ["slope", "3/5"])]
    assert [out for _, out, _ in again] == [out for _, out, _ in first[::-1]]


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["squint"])
    assert info.value.code == 2


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "markovnorm", "slope", "1/3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["markov"] == "13"
