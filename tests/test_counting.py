"""Tests for solution counting and the log-squared growth fit."""

import math

import pytest
from hypothesis import given, strategies as st

from markovnorm import (
    CountPoint,
    PreconditionViolatedError,
    count_lattice,
    count_triples,
    fit_constant,
    markov_of_slope_via_trace,
)


def test_count_triples_small_bounds():
    assert count_triples(1) == 1
    assert count_triples(2) == 2
    assert count_triples(4) == 2
    assert count_triples(5) == 3
    assert count_triples(13) == 4
    assert count_triples(29) == 5


def test_count_triples_matches_quadratic_search(brute_1e4):
    for count in (count_triples, count_lattice):
        for bound in (1, 2, 5, 34, 100, 433, 10**3, 10**4):
            expected = sum(1 for t in brute_1e4 if t[2] <= bound)
            assert count(bound) == expected
        assert count(10**4) == 21


def test_count_lattice_counts_slopes():
    # Every slope with q > 40 has m >= m(1/q) = F(2q+1) > 10**8, so counting
    # the slopes with q <= 40 directly, by the trace route, is exhaustive.
    values = [markov_of_slope_via_trace(p, q)
              for q in range(1, 41) for p in range(q + 1) if math.gcd(p, q) == 1]
    for bound in (1, 2, 5, 13, 100, 10**4, 10**6, 10**8):
        assert count_lattice(bound) == sum(1 for m in values if m <= bound)


@given(st.integers(1, 10**6), st.integers(0, 10**6))
def test_count_is_monotone(a, d):
    assert count_triples(a) <= count_triples(a + d)


def test_count_rejects_bad_bounds():
    for fn in (count_triples, count_lattice):
        with pytest.raises(PreconditionViolatedError):
            fn(0)
        with pytest.raises(PreconditionViolatedError):
            fn(-5)


def test_fit_constant_definition():
    points = fit_constant([10**2, 10**4])
    assert points == [
        CountPoint(10**2, 7, 7 / math.log(10**2) ** 2),
        CountPoint(10**4, 21, 21 / math.log(10**4) ** 2),
    ]


def test_fit_constant_counts_equal_count_triples():
    # 2, 5 and 13 are Markov numbers: a value equal to a bound counts for
    # that bound, not the next.
    schedule = [2, 4, 5, 13, 14, 10**30]
    points = fit_constant(schedule)
    assert [pt.bound for pt in points] == schedule
    assert [pt.count for pt in points] == [count_triples(R) for R in schedule]


def test_fit_constant_counts_at_ten_to_the_300():
    # The walk skips the products of children its bit lengths place above
    # the bound; the counts are those of the walk that multiplied out every
    # child.
    points = fit_constant([10**100, 10**200, 10**300])
    assert [pt.count for pt in points] == [9670, 38512, 86518]


def test_fit_constant_drift_shrinks():
    points = fit_constant([10**3, 10**6, 10**9, 10**12])
    cs = [pt.c_estimate for pt in points]
    assert cs == sorted(cs, reverse=True)
    # Counting is integral, so the drift is jumpy; past 10^6 every
    # remaining step stays within a few percent.
    drops = [abs(a - b) / a for a, b in zip(cs, cs[1:])]
    assert all(d < 0.05 for d in drops[1:])
    assert drops[-1] < 0.25


def test_fit_constant_validation():
    with pytest.raises(PreconditionViolatedError):
        fit_constant([])
    with pytest.raises(PreconditionViolatedError):
        fit_constant([100, 100])
    with pytest.raises(PreconditionViolatedError):
        fit_constant([1000, 100])
    with pytest.raises(PreconditionViolatedError):
        fit_constant([1])
