"""Tests for the slope indexing: words, matrices and both value routes."""

import importlib.util
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import markovnorm.indexing
import oracles
from markovnorm import (
    GENERATORS,
    InternalInconsistencyError,
    OutOfRangeError,
    PreconditionViolatedError,
    Slope,
    as_slope,
    christoffel_matrix,
    christoffel_word,
    markov_of_slope,
    markov_of_slope_via_trace,
    mat_det,
    mat_mul,
    mat_trace,
    parse_slope,
    stern_brocot_path,
    word_matrix,
)

reduced_words = st.text(alphabet="ab", min_size=1, max_size=10)
free_words = st.text(alphabet="ab", min_size=0, max_size=12)


def seed1_slope_queries():
    """The 1,000 queries of the benchmark's slopes workload at seed 1."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    queries = itertools.islice(workloads.slope_queries(1), workloads.SLOPE_OPS)
    return [(p, q) for p, q, _ in queries]


def coprime_slopes(max_q):
    for q in range(1, max_q + 1):
        for p in range(0, q + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def local_mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def test_anchor_values_both_routes():
    for p, q, m in [(0, 1, 1), (1, 1, 2), (1, 2, 5)]:
        assert markov_of_slope(p, q) == m
        assert markov_of_slope_via_trace(p, q) == m


def test_fibonacci_family():
    # Slopes 1/j index every second Fibonacci number: one run of length j.
    for j in range(1, 2001):
        expected = oracles.fibonacci(2 * j + 1)
        assert markov_of_slope(1, j) == expected
        assert markov_of_slope_via_trace(1, j) == expected


def test_pell_family():
    # Slopes j/(j+1) index every second Pell number: one run of length j.
    for j in range(1, 2001):
        expected = oracles.pell(2 * j + 1)
        assert markov_of_slope(j, j + 1) == expected
        assert markov_of_slope_via_trace(j, j + 1) == expected


def test_routes_agree_up_to_q30():
    for p, q in coprime_slopes(30):
        assert markov_of_slope(p, q) == markov_of_slope_via_trace(p, q)


def test_routes_agree_on_long_runs():
    # 2/q and (q-2)/q: a run of about q/2 moves next to a run of one or two.
    for q in range(3, 1000, 2):
        for p in (2, q - 2):
            assert markov_of_slope(p, q) == markov_of_slope_via_trace(p, q)


@given(st.integers(1, 10**4), st.integers(0, 10**4))
def test_routes_agree_on_random_slopes(q, p):
    p %= q + 1
    g = math.gcd(p, q)
    assert markov_of_slope(p // g, q // g) == markov_of_slope_via_trace(p // g, q // g)


@given(st.integers(1, 2**300), st.integers(0, 2**3000), st.integers(1, 2**3000),
       st.integers(1, 300))
@example(1, 2, 5, 300)  # a long run from the root: the matrix power
@example(2**200, 2**2999, 2**3000, 2)  # a short run of long operands: steps
def test_recurrence_run_equals_plain_steps(fixed, prev, cur, k):
    expected = (prev, cur)
    for _ in range(k):
        expected = (expected[1], 3 * fixed * expected[1] - expected[0])
    assert markovnorm.indexing._recurrence_run(fixed, prev, cur, k) == expected


@given(st.integers(3, 2**300), st.integers(1, 2000))
@example(3, 1)
@example(2**300, 2)
@example(7, 8)  # the last plain step
@example(7, 9)  # the first doubling
@example(5, 15)
@example(5, 16)
@example(5, 17)
@example(2**300, 1023)
@example(2**300, 1024)
@example(2**300, 1025)
def test_chebyshev_equals_plain_recurrence(t, n):
    expected = (0, 1)
    for _ in range(n):
        expected = (expected[1], t * expected[1] - expected[0])
    assert markovnorm.indexing._chebyshev(t, n) == expected


@given(free_words, st.integers(1, 200))
@example("ab", 1)
@example("a", 9)
def test_mat_pow_is_the_repeated_word(w, k):
    assert markovnorm.indexing._mat_pow(word_matrix(w), k) == word_matrix(w * k)


def test_christoffel_matrix_is_the_word_product():
    # The run-length Cohn product against the letter-by-letter oracle; the
    # trace route reads only the diagonal of the last factors' product.
    for p, q in coprime_slopes(60):
        m, k, n, m_first = markovnorm.indexing._christoffel_run(p, q)
        assert mat_det(m) == mat_det(n) == 1
        power = markovnorm.indexing._mat_pow(m, k)
        factors = (power, n) if m_first else (n, power)
        assert mat_mul(*factors) == christoffel_matrix(p, q)
        assert christoffel_matrix(p, q) == word_matrix(christoffel_word(p, q))


def test_trace_route_takes_the_trace_of_the_product():
    # The route takes its last run M**k N through the trace alone.  Runs of
    # 9 and 10 sit on both sides of _chebyshev's switch from plain steps to
    # doubling; the last run moves the upper end (M**k N) or the lower (N M**k).
    ends = [(p, q) for q in range(2, 5001) for p in {1, 2, q - 2, q - 1}
            if 0 < p < q and math.gcd(p, q) == 1]
    last_runs = set()
    for p, q in seed1_slope_queries() + ends + [(0, 1), (1, 1), (7919, 12345)]:
        _, k, _, m_first = markovnorm.indexing._christoffel_run(p, q)
        last_runs.add((k, m_first))
        m = markov_of_slope_via_trace(p, q)
        assert m * 3 == mat_trace(christoffel_matrix(p, q)), (p, q)
        assert m == markov_of_slope(p, q), (p, q)
    for k in (2, 9, 10):
        assert {(k, True), (k, False)} <= last_runs
    assert (1, True) in last_runs


def test_trace_route_uses_no_descent(monkeypatch):
    expected = markov_of_slope(7919, 12345)

    def forbidden(*args):
        raise AssertionError("the trace route must not use the descent")

    monkeypatch.setattr(markovnorm.indexing, "markov_of_slope", forbidden)
    monkeypatch.setattr(markovnorm.indexing, "_recurrence_run", forbidden)
    monkeypatch.setattr(markovnorm.indexing, "_runs", forbidden)
    assert markov_of_slope_via_trace(7919, 12345) == expected
    assert markov_of_slope_via_trace(1, 500) == oracles.fibonacci(1001)


def test_descent_cache_counts_hits():
    markov_of_slope.cache_clear()
    assert markov_of_slope(3, 7) == markov_of_slope(3, 7) == 2897
    info = markov_of_slope.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_small_values():
    assert markov_of_slope(2, 3) == 29
    assert markov_of_slope(1, 3) == 13
    assert markov_of_slope(1, 4) == 34
    assert markov_of_slope(3, 4) == 169
    assert markov_of_slope(2, 5) == 194
    assert markov_of_slope(3, 5) == 433
    assert markov_of_slope(4, 5) == 985
    # Mediant of 2/5 and 1/2 gives 3*194*5 - 13, mediant of 2/3 and 3/4
    # gives 3*29*169 - 2.
    assert markov_of_slope(3, 7) == 2897
    assert markov_of_slope(5, 7) == 14701


def test_slope_preconditions():
    for fn in (markov_of_slope, markov_of_slope_via_trace):
        with pytest.raises(PreconditionViolatedError):
            fn(2, 4)
        with pytest.raises(OutOfRangeError):
            fn(3, 2)
        with pytest.raises(OutOfRangeError):
            fn(-1, 2)


def test_christoffel_word_matches_staircase():
    for p, q in coprime_slopes(14):
        assert christoffel_word(p, q) == oracles.staircase_word(p, q)


def test_christoffel_word_domain():
    with pytest.raises(OutOfRangeError):
        christoffel_word(2, 1)
    with pytest.raises(OutOfRangeError):
        christoffel_word(1, 0)
    with pytest.raises(PreconditionViolatedError):
        christoffel_word(2, 4)


def test_generator_matrices():
    assert GENERATORS == {"a": (1, 1, 1, 2), "b": (2, 1, 1, 1)}


def test_word_matrix_rejects_unknown_letters():
    for word in ("aA", "B", "abc"):
        with pytest.raises(OutOfRangeError):
            word_matrix(word)


def test_word_matrix_small_traces():
    # Traces recomputed here with local 2x2 products.
    for word, trace in [("a", 3), ("ab", 6), ("aab", 15), ("aaab", 39), ("aabab", 87)]:
        m = (1, 0, 0, 1)
        for letter in word:
            m = local_mat_mul(m, GENERATORS[letter])
        assert m == word_matrix(word)
        assert mat_trace(m) == trace
        assert word_matrix(word)[0] + word_matrix(word)[3] == trace


def test_trace_is_three_times_markov():
    for p, q in coprime_slopes(12):
        w = christoffel_word(p, q)
        t = mat_trace(word_matrix(w))
        assert t == 3 * markov_of_slope(p, q)


def test_trace_route_refuses_a_trace_off_the_multiples_of_three():
    # tr = 3m on every Christoffel matrix; any other trace is a fault of the
    # route, named in the error.
    for trace in (1, 5, 3**40 + 2):
        with pytest.raises(InternalInconsistencyError) as info:
            markovnorm.indexing._trace_to_markov(trace)
        assert str(info.value) == f"trace {trace} is not divisible by 3"
    assert markovnorm.indexing._trace_to_markov(3**40) == 3**39


def test_word_matrices_are_unimodular():
    for p, q in coprime_slopes(12):
        assert mat_det(word_matrix(christoffel_word(p, q))) == 1


@given(free_words, free_words)
def test_word_matrix_is_multiplicative(u, v):
    assert word_matrix(u + v) == mat_mul(word_matrix(u), word_matrix(v))
    assert mat_det(word_matrix(u)) == 1


@given(reduced_words, reduced_words)
def test_fricke_trace_identity(u, v):
    # tr(UV) + tr(U^-1 V) = tr(U) tr(V) for unimodular 2x2 matrices.
    a, b, c, d = word_matrix(u)
    u_inv = (d, -b, -c, a)
    lhs = mat_trace(word_matrix(u + v)) + mat_trace(local_mat_mul(u_inv, word_matrix(v)))
    rhs = mat_trace(word_matrix(u)) * mat_trace(word_matrix(v))
    assert lhs == rhs


def test_stern_brocot_path_examples():
    assert stern_brocot_path(1, 2) == ""
    assert stern_brocot_path(1, 3) == "L"
    assert stern_brocot_path(2, 3) == "R"
    assert stern_brocot_path(3, 5) == "RL"
    assert stern_brocot_path(2, 5) == "LR"


def test_stern_brocot_path_roundtrip():
    # Replaying the letters as mediant descents from the unit interval
    # must land back on the slope; the long runs 1/q and (q-1)/q too.
    long_runs = [(p, q) for q in range(151, 2001) for p in (1, q - 1)]
    for p, q in list(coprime_slopes(150)) + long_runs:
        if q == 1:
            continue
        lo, hi = (0, 1), (1, 1)
        cur = (lo[0] + hi[0], lo[1] + hi[1])
        for step in stern_brocot_path(p, q):
            if step == "L":
                hi = cur
            else:
                lo = cur
            cur = (lo[0] + hi[0], lo[1] + hi[1])
        assert cur == (p, q)


def test_stern_brocot_path_rejects_boundary():
    with pytest.raises(OutOfRangeError):
        stern_brocot_path(0, 1)
    with pytest.raises(OutOfRangeError):
        stern_brocot_path(1, 1)


def test_parse_slope():
    assert parse_slope("1/2") == Slope(1, 2)
    assert parse_slope("0/1") == Slope(0, 1)
    with pytest.raises(PreconditionViolatedError):
        parse_slope("2/4")
    with pytest.raises(OutOfRangeError):
        parse_slope("3/2")
    with pytest.raises(OutOfRangeError):
        parse_slope("1/0")


@pytest.mark.parametrize("text", ["1/2/3", "a/2"])
def test_parse_slope_rejects_malformed_text(text):
    with pytest.raises(PreconditionViolatedError):
        parse_slope(text)


def test_as_slope_rejects_a_float_part():
    with pytest.raises(PreconditionViolatedError):
        as_slope(1.0, 2)


def test_markov_table_consistency(table_60):
    assert table_60[Slope(0, 1)] == 1
    assert table_60[Slope(1, 1)] == 2
    assert table_60[Slope(1, 2)] == 5
    assert set(table_60) == {Slope(p, q) for p, q in coprime_slopes(60)}
    for s, m in table_60.items():
        if s.q <= 25:
            assert m == markov_of_slope(s.p, s.q)


def test_markov_table_orders_along_fibonacci_column(table_60):
    values = [table_60[Slope(1, j)] for j in range(1, 30)]
    assert values == sorted(values)
    assert len(set(values)) == len(values)
