"""Containment tests for the outward-rounded interval helpers.

Every operation must return an enclosure of the exact mathematical result.
Exact answers come from Fraction arithmetic where the operation is rational
and from mpmath at 60 digits otherwise.
"""

import math
from fractions import Fraction

import mpmath
from hypothesis import given, strategies as st

import oracles
from markovnorm.intervals import (
    iv_acosh_half_int,
    iv_acosh_of_logtrace,
    iv_add,
    iv_exp,
    iv_from_int,
    iv_ln_int,
    iv_log1p,
    iv_mul,
    iv_sqrt,
    iv_sub,
    iv_width,
)

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e120, max_value=1e120
)
moderate = st.builds(
    lambda mag, neg: -mag if neg else mag,
    st.floats(min_value=1e-3, max_value=1e3),
    st.booleans(),
)


def contains(iv, exact) -> bool:
    lo, hi = iv
    if isinstance(exact, Fraction):
        return Fraction(lo) <= exact <= Fraction(hi)
    return mpmath.mpf(lo) <= exact <= mpmath.mpf(hi)


def tight(iv, rel=1e-12) -> bool:
    lo, hi = iv
    scale = max(abs(lo), abs(hi), 1e-300)
    return hi - lo <= rel * scale + 1e-300


@given(finite, finite)
def test_add_sub_contain_exact(x, y):
    fx, fy = Fraction(x), Fraction(y)
    assert contains(iv_add((x, x), (y, y)), fx + fy)
    assert contains(iv_sub((x, x), (y, y)), fx - fy)


@given(finite, finite)
def test_mul_contains_exact(x, y):
    assert contains(iv_mul((x, x), (y, y)), Fraction(x) * Fraction(y))


@given(st.floats(min_value=0.0, max_value=1e120, allow_nan=False))
def test_sqrt_contains_exact(x):
    with mpmath.workdps(60):
        assert contains(iv_sqrt((x, x)), mpmath.sqrt(mpmath.mpf(x)))
    assert tight(iv_sqrt((x, x)))


@given(st.floats(min_value=-700.0, max_value=700.0, allow_nan=False))
def test_exp_contains_exact(x):
    with mpmath.workdps(60):
        assert contains(iv_exp((x, x)), mpmath.exp(mpmath.mpf(x)))
    assert tight(iv_exp((x, x)), rel=1e-11)


@given(st.floats(min_value=-0.999999, max_value=1e15, allow_nan=False))
def test_log1p_contains_exact(x):
    with mpmath.workdps(60):
        assert contains(iv_log1p((x, x)), mpmath.log1p(mpmath.mpf(x)))


@given(st.integers(min_value=1, max_value=10**400))
def test_ln_int_contains_exact(n):
    iv = iv_ln_int(n)
    with mpmath.workdps(mpmath.mp.dps + len(str(n)) + 20):
        assert contains(iv, mpmath.ln(mpmath.mpf(n)))
    assert tight(iv)


def test_ln_int_known_points():
    assert iv_ln_int(1) == (0.0, 0.0) or contains(iv_ln_int(1), Fraction(0))
    lo, hi = iv_ln_int(2)
    assert lo <= math.log(2.0) <= hi
    assert hi - lo <= 4 * math.ulp(1.0)


@given(st.integers(min_value=3, max_value=10**300))
def test_acosh_half_int_contains_exact(n):
    iv = iv_acosh_half_int(n)
    with mpmath.workdps(len(str(n)) + 40):
        exact = mpmath.acosh(mpmath.mpf(n) / 2)
    assert contains(iv, exact)
    assert tight(iv)


def test_acosh_half_int_anchor():
    # acosh(3/2) equals 2 ln(golden ratio).
    lo, hi = iv_acosh_half_int(3)
    with mpmath.workdps(50):
        phi = (1 + mpmath.sqrt(mpmath.mpf(5))) / 2
        assert mpmath.mpf(lo) <= 2 * mpmath.ln(phi) <= mpmath.mpf(hi)
    assert hi - lo <= 1e-13
    assert math.isclose((lo + hi) / 2, 0.9624236501192069, rel_tol=1e-13)


@given(st.integers(min_value=3, max_value=10**200))
def test_acosh_of_logtrace_composes(t):
    iv = iv_acosh_of_logtrace(iv_ln_int(t))
    with mpmath.workdps(len(str(t)) + 40):
        exact = mpmath.acosh(mpmath.mpf(t) / 2)
    assert contains(iv, exact)
    assert tight(iv, rel=1e-11)


@given(st.integers(min_value=-(2**200), max_value=2**200))
def test_from_int_contains_and_is_tight(n):
    iv = iv_from_int(n)
    assert contains(iv, Fraction(n))
    if abs(n) < 2**53:
        assert iv == (float(n), float(n))
    else:
        assert tight(iv, rel=1e-15)


def test_width():
    assert iv_width((1.0, 2.0)) == 1.0
    assert iv_width((3.5, 3.5)) == 0.0


@given(st.lists(moderate, min_size=2, max_size=8))
def test_product_chain_stays_tight(xs):
    iv = (1.0, 1.0)
    exact = Fraction(1)
    for x in xs:
        iv = iv_mul(iv, (x, x))
        exact *= Fraction(x)
    assert contains(iv, exact)
    assert tight(iv, rel=1e-13)


@given(st.integers(min_value=3, max_value=10**50), st.integers(min_value=1, max_value=20))
def test_interval_order_respects_integer_order(n, gap):
    # Strictly larger integers must give strictly larger acosh enclosures
    # once the relative gap (about gap/n) clears the rounding slop.
    a = iv_acosh_half_int(n)
    b = iv_acosh_half_int(n + gap)
    assert a[0] <= b[1]
    if n <= 10**10:
        assert a[1] < b[0]
