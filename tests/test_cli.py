"""End-to-end tests for the command line interface.

Commands run in process through main(argv); stdout payloads are parsed
back and compared against the library. A single subprocess test checks
the installed entry point wiring.
"""

import json
import math
import subprocess
import sys

import pytest

from markovnorm import markov_numbers_up_to, stable_norm, verify_family
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


def test_verify_rejects_tiny_bound(capsys):
    code, out, err = run(capsys, "verify", "numerator", "--max", "1")
    assert code == 2 and err


def test_tree(capsys):
    code, payload, _ = run_json(capsys, "tree", "--depth", "2")
    assert code == 0
    assert payload["depth"] == 2
    nodes = payload["nodes"]
    assert len(nodes) == 7
    assert nodes[0] == {"path": "", "triple": ["1", "2", "5"]}
    assert [n["path"] for n in nodes] == ["", "L", "R", "LL", "LR", "RL", "RR"]
    assert nodes[-1]["triple"] == ["2", "29", "169"]


def test_norm_exact_and_float_agree(capsys):
    code, exact, _ = run_json(capsys, "norm", "--exact", "5", "3")
    assert code == 0
    code, approx, _ = run_json(capsys, "norm", "5.0", "3.0", "--tol", "1e-10")
    assert code == 0
    assert max(exact["lo"], approx["lo"]) <= min(exact["hi"], approx["hi"])
    assert approx["hi"] - approx["lo"] <= 1e-10


def test_norm_accuracy_limit_exit_code(capsys):
    code, out, err = run(capsys, "norm", "1e300", "1.0")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "accuracy limit"
    assert payload["lo"] < payload["hi"]


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


def test_ball_csv(capsys):
    code, out, _ = run(capsys, "ball", "--max-q", "1")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 12
    pts = [tuple(float(c) for c in row.split(",")) for row in rows]
    angles = [math.atan2(y, x) for x, y in pts]
    assert angles == sorted(angles)


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


def test_out_flag_writes_stdout_payload(capsys, tmp_path):
    target = tmp_path / "tree.json"
    code, out, _ = run(capsys, "tree", "--depth", "1", "--out", str(target))
    assert code == 0
    code2, out2, _ = run(capsys, "tree", "--depth", "1")
    assert target.read_text() == out2


def test_output_is_deterministic(capsys):
    _, a, _ = run(capsys, "slope", "3/5")
    _, b, _ = run(capsys, "slope", "3/5")
    assert a == b


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
