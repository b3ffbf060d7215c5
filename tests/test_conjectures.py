"""Tests for the monotonicity checks, the real-variable bridge and the
duplicate-value scan."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import markovnorm.conjectures as conjectures
from markovnorm import (
    FAMILIES,
    AccuracyLimitError,
    CheckResult,
    InternalInconsistencyError,
    NormInterval,
    PreconditionViolatedError,
    Slope,
    VerificationReport,
    check_fixed_denominator,
    check_fixed_numerator,
    check_fixed_sum,
    frobenius_scan,
    markov_numbers_up_to,
    markov_of_slope,
    markov_table,
    theorem1_check_real,
    verify_family,
    verify_theorem1_random,
)
from markovnorm.norm import _TOL_MIN


def test_families_constant():
    assert FAMILIES == ("numerator", "denominator", "sum")


def test_single_comparisons():
    # 5 = m(1/2) against 13 = m(1/3) and 34 = m(1/4).
    assert check_fixed_numerator(1, 2, 1)
    assert check_fixed_numerator(1, 2, 2)
    # 13 = m(1/3) against 29 = m(2/3).
    assert check_fixed_denominator(1, 3, 1)
    # 194 = m(2/5) against 233 = m(1/6), both on p + q = 7.
    assert check_fixed_sum(2, 5, 1)


def test_comparison_directions_match_values():
    assert check_fixed_numerator(2, 5, 2) == (
        markov_of_slope(2, 5) < markov_of_slope(2, 7))
    assert check_fixed_denominator(2, 7, 1) == (
        markov_of_slope(2, 7) < markov_of_slope(3, 7))
    assert check_fixed_sum(3, 4, 2) == (
        markov_of_slope(3, 4) < markov_of_slope(1, 6))


def test_single_checks_step_in_their_family_direction(monkeypatch):
    # Every monotonicity statement is true, so values cannot tell one
    # family's direction from another's; the slopes looked up can.
    asked = []
    monkeypatch.setattr(conjectures, "markov_of_slope",
                        lambda p, q: asked.append((p, q)) or 0)
    check_fixed_numerator(2, 5, 4)
    check_fixed_denominator(2, 5, 1)
    check_fixed_sum(3, 4, 2)
    assert asked == [(2, 5), (2, 9), (2, 5), (3, 5), (3, 4), (1, 6)]


def test_check_preconditions():
    with pytest.raises(PreconditionViolatedError):
        check_fixed_numerator(2, 4, 1)
    with pytest.raises(PreconditionViolatedError):
        check_fixed_numerator(1, 2, 0)
    with pytest.raises(PreconditionViolatedError):
        check_fixed_denominator(1, 3, 9)
    with pytest.raises(PreconditionViolatedError):
        check_fixed_sum(1, 3, 2)


def recount(family: str, bound: int, table) -> int:
    """Count comparable pairs the slow way, straight from the definition."""
    n = 0
    for (s1, s2) in itertools.combinations(sorted(table), 2):
        if family == "numerator":
            ok = s1.p == s2.p and s1.q != s2.q
        elif family == "denominator":
            ok = s1.q == s2.q and s1.p != s2.p
        else:
            ok = s1.p + s1.q == s2.p + s2.q and s1 != s2
        if ok:
            n += 1
    return n


def test_verify_family_counts_match_definition(table_60):
    for family in FAMILIES:
        rep = verify_family(family, 60)
        assert isinstance(rep, VerificationReport)
        assert rep.family == family
        assert rep.bound == 60
        assert rep.violations == ()
        assert rep.verified
        assert rep.cases == recount(family, 60, table_60)
        assert rep.seconds >= 0.0


# family -> (group key, order key, two slopes of one group to swap)
SWAPS = {
    "numerator": (lambda s: s.p, lambda s: s.q, (Slope(2, 5), Slope(2, 13))),
    "denominator": (lambda s: s.q, lambda s: s.p, (Slope(1, 7), Slope(4, 7))),
    "sum": (lambda s: s.p + s.q, lambda s: s.q, (Slope(1, 8), Slope(4, 5))),
}


@pytest.mark.parametrize("bound", [2, 60, 150])
def test_verify_family_on_a_shared_table_matches_its_own(bound):
    # verify all hands one table to the three families in turn.
    table = markov_table(bound)
    for family in FAMILIES:
        shared = verify_family(family, bound, table)
        own = verify_family(family, bound)
        assert (shared.cases, shared.violations) == (own.cases, own.violations)
    assert table == markov_table(bound)


def test_verify_family_reads_the_table_it_is_given():
    _, _, (a, b) = SWAPS["numerator"]
    table = markov_table(30)
    table[a], table[b] = table[b], table[a]
    assert (2, 5, 8) in verify_family("numerator", 30, table).violations


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_family_lists_all_pair_violations(monkeypatch, family):
    # Real tables never fail a neighbour check, so break one group.
    group_key, order_key, (a, b) = SWAPS[family]
    table = markov_table(30)
    table[a], table[b] = table[b], table[a]
    monkeypatch.setattr(conjectures, "markov_table", lambda bound: table)
    groups = {}
    for s in table:
        groups.setdefault(group_key(s), []).append(s)
    expected = []
    for members in groups.values():
        for s1, s2 in itertools.combinations(sorted(members, key=order_key), 2):
            if not table[s1] < table[s2]:
                i = s2.p - s1.p if family == "denominator" else s2.q - s1.q
                expected.append((s1.p, s1.q, i))
    rep = verify_family(family, 30)
    assert len(expected) > 1
    assert list(rep.violations) == expected
    assert rep.cases == recount(family, 30, table)


def test_verify_family_rejects_silly_bounds():
    with pytest.raises(PreconditionViolatedError):
        verify_family("numerator", 0)
    with pytest.raises(PreconditionViolatedError):
        verify_family("diagonal", 10)


def test_report_verified_flag():
    good = VerificationReport("numerator", 10, 5, (), 0.0)
    bad = VerificationReport("numerator", 10, 5, ("1/2 vs 1/3",), 0.0)
    assert good.verified and not bad.verified


def test_theorem1_certifies_integer_seed_case():
    assert theorem1_check_real(1, 0, 1) is CheckResult.CERTIFIED


def test_theorem1_certifies_real_cases():
    assert theorem1_check_real(2.5, 1.25, 0.75) is CheckResult.CERTIFIED
    assert theorem1_check_real(10.0, 3.0, 2.0, parts=(1,)) is CheckResult.CERTIFIED
    assert theorem1_check_real(10.0, 3.0, 2.0, parts=(2,)) is CheckResult.CERTIFIED
    assert theorem1_check_real(10.0, 3.0, 2.0, parts=(3,)) is CheckResult.CERTIFIED


def test_theorem1_parts_step_in_their_family_direction(monkeypatch):
    enclosed = []

    def enclose(x, y, tol):  # the base point below every other
        enclosed.append((x, y))
        return NormInterval(*((0.0, 0.0) if (x, y) == (10.0, 3.0) else (1.0, 1.0)))

    monkeypatch.setattr(conjectures, "_norm_enclosure", enclose)
    for part in (1, 2, 3):
        assert theorem1_check_real(10.0, 3.0, 2.0, parts=(part,)) is CheckResult.CERTIFIED
    assert theorem1_check_real(10.0, 3.0, 2.0) is CheckResult.CERTIFIED
    base, steps = (10.0, 3.0), [(12.0, 3.0), (10.0, 5.0), (12.0, 1.0)]
    assert enclosed == [base, steps[0], base, steps[1], base, steps[2], base, *steps]


def test_theorem1_refines_down_the_ladder_to_the_floor(monkeypatch):
    # Every enclosure is wide above the floor, where they all overlap, except
    # those of (10, 3) and (12, 3), narrow from 1e-11 on.  A comparand
    # certified at one tolerance is not enclosed again at the next.
    norms = {(10.0, 3.0): 1.0, (12.0, 3.0): 2.0, (10.0, 5.0): 3.0, (12.0, 1.0): 4.0}
    calls = []

    def wide(x, y, tol):
        calls.append((tol, (x, y)))
        narrow = tol == _TOL_MIN or (tol <= 1e-11 and y == 3.0)
        width = 1e-12 if narrow else 10.0
        return NormInterval(norms[x, y] - width, norms[x, y] + width)

    monkeypatch.setattr(conjectures, "norm_real", wide)
    assert theorem1_check_real(10.0, 3.0, 2.0) is CheckResult.CERTIFIED
    assert [t for t, _ in calls] == [1e-9] * 4 + [1e-11] * 4 + [_TOL_MIN] * 3
    assert [pt for _, pt in calls] == [*norms] * 2 + [(10.0, 3.0), (10.0, 5.0), (12.0, 1.0)]


def test_theorem1_encloses_the_base_point_once_per_tolerance(monkeypatch):
    calls = []
    real = conjectures.norm_real
    monkeypatch.setattr(conjectures, "norm_real",
                        lambda x, y, tol: calls.append((x, y)) or real(x, y, tol=tol))
    assert theorem1_check_real(10.0, 3.0, 2.0) is CheckResult.CERTIFIED
    assert calls == [(10.0, 3.0), (12.0, 3.0), (10.0, 5.0), (12.0, 1.0)]


def test_theorem1_is_inconclusive_without_an_enclosure(monkeypatch):
    def no_enclosure(x, y, tol):
        raise AccuracyLimitError("no enclosure", interval=None)

    monkeypatch.setattr(conjectures, "norm_real", no_enclosure)
    assert theorem1_check_real(10.0, 3.0, 2.0) is CheckResult.INCONCLUSIVE


def test_verify_theorem1_random_lists_every_uncertified_sample(monkeypatch):
    monkeypatch.setattr(conjectures, "theorem1_check_real",
                        lambda q, p, i: CheckResult.INCONCLUSIVE)
    report = verify_theorem1_random(7, seed=3)
    assert len(report.violations) == 7
    assert not report.verified
    for q, p, i in report.violations:
        assert 0 <= p < q <= 50.0 and 0 < i <= 50.0


def test_theorem1_part3_requires_descending_room():
    # With p - i < 0 the diagonal comparison leaves the closed cone, so
    # it is skipped by default and Inconclusive when requested.
    assert theorem1_check_real(3.0, 0.5, 2.0) is CheckResult.CERTIFIED
    assert theorem1_check_real(3.0, 0.5, 2.0, parts=(3,)) is CheckResult.INCONCLUSIVE


def test_theorem1_part3_rejects_p_at_or_above_q():
    with pytest.raises(PreconditionViolatedError):
        theorem1_check_real(1.0, 1.0, 0.5, parts=(3,))


def test_theorem1_degenerate_step_is_inconclusive():
    # A step too small for the interval floor cannot be certified.
    assert theorem1_check_real(1.0, 0.0, 1e-13) is CheckResult.INCONCLUSIVE


def test_theorem1_input_validation():
    with pytest.raises(PreconditionViolatedError):
        theorem1_check_real(1.0, 0.0, 0.0)
    with pytest.raises(PreconditionViolatedError):
        theorem1_check_real(1.0, -0.5, 1.0)
    with pytest.raises(PreconditionViolatedError):
        theorem1_check_real(1.0, 0.5, 1.0, parts=(4,))
    # The origin itself is fine: its norm is exactly zero.
    assert theorem1_check_real(0.0, 0.0, 1.0) is CheckResult.CERTIFIED


def test_verify_theorem1_random_is_deterministic():
    a = verify_theorem1_random(60, seed=3)
    b = verify_theorem1_random(60, seed=3)
    # Each sampled tuple contributes one case per applicable part.
    assert a.bound == b.bound == 60
    assert 2 * 60 <= a.cases <= 3 * 60
    assert a.cases == b.cases
    assert a.violations == b.violations == ()
    assert a.verified and b.verified


def test_markov_numbers_up_to_matches_quadratic_search(brute_1e4):
    expected = sorted({z for _, _, z in brute_1e4} | {1, 2})
    expected = [m for m in expected if m <= 10**4]
    assert markov_numbers_up_to(10**4) == expected


def test_markov_numbers_small():
    assert markov_numbers_up_to(1) == [1]
    assert markov_numbers_up_to(4) == [1, 2]
    assert markov_numbers_up_to(1000) == [
        1, 2, 5, 13, 29, 34, 89, 169, 194, 233, 433, 610, 985]


def test_frobenius_scan_finds_no_duplicates():
    assert frobenius_scan(10**12) == []
    assert frobenius_scan(100) == []


def test_frobenius_scan_rejects_bad_bound():
    with pytest.raises(PreconditionViolatedError):
        frobenius_scan(0)


def test_frobenius_scan_reports_a_value_the_walk_yields_twice(walk_repeats_29):
    assert frobenius_scan(1000) == [29]
    assert markov_numbers_up_to(1000) == [
        1, 2, 5, 13, 29, 34, 89, 169, 194, 233, 433, 610, 985]


def _walk_yielding_1_2_6(bound):
    yield (1, 2, 6)  # 1 + 4 != 6 * (3 * 2 - 6)


def test_collect_by_value_checks_each_node_against_markovs_equation(monkeypatch):
    monkeypatch.setattr(conjectures, "_walk_values", _walk_yielding_1_2_6)
    with pytest.raises(InternalInconsistencyError, match=r"\(1, 2, 6\)"):
        markov_numbers_up_to(10)


def test_markovs_equation_check_survives_python_O():
    # python -O strips assert statements; the check must not be one.
    script = (
        "import markovnorm.conjectures as c\n"
        "from markovnorm.errors import InternalInconsistencyError\n"
        "c._walk_values = lambda bound: iter([(1, 2, 6)])\n"
        "try:\n"
        "    c.markov_numbers_up_to(10)\n"
        "except InternalInconsistencyError as ex:\n"
        "    print('raised', __debug__, ex)\n")
    src = str(Path(conjectures.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised False") and "(1, 2, 6)" in proc.stdout
