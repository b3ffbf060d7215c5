"""Tests for the monotonicity checks, the real-variable bridge and the
duplicate-value scan."""

import itertools
import math

import pytest

import markovnorm.conjectures as conjectures
import oracles
from markovnorm import (
    FAMILIES,
    CheckResult,
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


def test_theorem1_part3_requires_descending_room():
    # With p - i < 0 the diagonal comparison leaves the closed cone, so
    # it is skipped by default and only runs when extension is requested.
    assert theorem1_check_real(3.0, 0.5, 2.0) is CheckResult.CERTIFIED
    assert theorem1_check_real(3.0, 0.5, 2.0, parts=(3,)) is CheckResult.INCONCLUSIVE
    assert (
        theorem1_check_real(3.0, 0.5, 2.0, parts=(3,), extend=True)
        is CheckResult.CERTIFIED
    )


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
