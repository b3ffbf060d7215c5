"""Containment tests for the outward-rounded interval helpers.

Every operation must return an enclosure of the exact mathematical result.
Exact answers come from Fraction arithmetic where the operation is rational
and from mpmath at 60 digits otherwise.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from markovnorm.intervals import (
    LN2,
    _dot_hi,
    _dot_lo,
    iv_acosh_half_int,
    iv_acosh_minus_log,
    iv_add,
    iv_exp,
    iv_ln_int,
    iv_ln_ratio,
    iv_log1p,
    iv_mul,
    iv_sqrt,
    iv_sub,
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
    assert hi - lo <= 32 * math.ulp(lo)
    assert math.isclose((lo + hi) / 2, 0.9624236501192069, rel_tol=1e-13)


@given(st.integers(min_value=1, max_value=10**400),
       st.integers(min_value=0, max_value=10**400))
def test_ln_ratio_contains_exact(b, d):
    a = b + d
    iv = iv_ln_ratio(a, b)
    with mpmath.workdps(900):
        exact = mpmath.log(mpmath.mpf(a) / mpmath.mpf(b))
    assert contains(iv, exact)
    if a >= 2 * b:
        # A few ulp of the ratio's log, even where ln a and ln b alone are
        # hundreds of times larger.
        assert iv[1] - iv[0] <= 4e-15 * iv[0]


# iv_acosh_minus_log turns to its closed-form tail once the enclosure of
# ln t reaches 21, which happens between floor(e**21) and the next integer.
_E21 = math.floor(math.exp(21))


@given(st.one_of(st.integers(_E21 - 10**4, _E21 + 10**4),
                 st.integers(2**31 - 10**4, 2**31 + 10**4),
                 st.integers(min_value=3, max_value=10**300)))
@example(_E21)
@example(_E21 + 1)
def test_acosh_minus_log_is_a_few_ulp_of_one_wide(t):
    iv = iv_acosh_minus_log(iv_ln_int(t))
    with mpmath.workdps(len(str(t)) + 40):
        exact = mpmath.acosh(mpmath.mpf(t) / 2) - mpmath.log(t)
    assert contains(iv, exact)
    assert iv[1] - iv[0] <= 4e-15


def test_acosh_minus_log_takes_the_tail_from_ln_21():
    assert iv_ln_int(_E21)[0] < 21.0 <= iv_ln_int(_E21 + 1)[0]
    assert iv_acosh_minus_log(iv_ln_int(_E21)) != (-2.0**-58, 0.0)
    assert iv_acosh_minus_log(iv_ln_int(_E21 + 1)) == (-2.0**-58, 0.0)


nonneg_iv = st.lists(st.floats(min_value=0.0, max_value=1e150), min_size=2,
                     max_size=2).map(sorted).map(tuple)
signed_iv = st.lists(st.floats(min_value=-1e150, max_value=1e150), min_size=2,
                     max_size=2).map(sorted).map(tuple)


@given(nonneg_iv, nonneg_iv, nonneg_iv, signed_iv)
def test_dot_bounds_equal_the_interval_expression(a, b, c, d):
    lo, hi = iv_add(iv_mul(a, b), iv_mul(c, d))
    assert _dot_lo(a, b, c, d) == lo
    if d[0] >= 0.0:
        assert _dot_hi(a, b, c, d) == hi


def test_ln_ratio_requires_a_ratio_of_at_least_one():
    for a, b in [(1, 2), (0, 1), (1, 0)]:
        with pytest.raises(ValueError):
            iv_ln_ratio(a, b)


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


# The helpers call math.nextafter themselves; these are the compositions of
# one-step roundings they stand for, written out with their own _dn and _up.
def _dn(x):
    return math.nextafter(x, -math.inf)


def _up(x):
    return math.nextafter(x, math.inf)


def _ln_dn(n):
    return _dn(_dn(math.log(n)))


def _ln_up(n):
    return _up(_up(math.log(n)))


def _ln_int_by_composition(n):
    if n.bit_length() <= 53:
        return (_ln_dn(n), _ln_up(n))
    shift = n.bit_length() - 53
    mant = n >> shift
    return (_dn(_ln_dn(mant) + _dn(shift * LN2[0])),
            _up(_ln_up(mant + 1) + _up(shift * LN2[1])))


def _ln_ratio_by_composition(a, b):
    e = a.bit_length() - b.bit_length() - 52
    q = (a >> e) // b if e > 0 else (a << -e) // b
    if e > 0:
        return (_dn(_ln_dn(q) + _dn(e * LN2[0])), _up(_ln_up(q + 1) + _up(e * LN2[1])))
    return (_ln_dn(math.ldexp(q, e)), _ln_up(math.ldexp(q + 1, e)))


def bits(*values):
    """Bit patterns, so that -0.0 and 0.0 differ."""
    return [float.hex(float(v)) for v in values]


@given(finite, finite, finite, finite, finite, finite, finite, finite)
def test_rounding_matches_the_dn_up_composition(a0, a1, b0, b1, c0, c1, d0, d1):
    a, b, c, d = (a0, a1), (b0, b1), (c0, c1), (d0, d1)
    assert bits(*iv_add(a, b)) == bits(_dn(a0 + b0), _up(a1 + b1))
    assert bits(*iv_sub(a, b)) == bits(_dn(a0 - b1), _up(a1 - b0))
    ps = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
    assert bits(*iv_mul(a, b)) == bits(_dn(min(ps)), _up(max(ps)))
    cd = c0 * d0 if d0 >= 0.0 else c1 * d0
    assert bits(_dot_lo(a, b, c, d)) == bits(_dn(_dn(a0 * b0) + _dn(cd)))
    assert bits(_dot_hi(a, b, c, d)) == bits(_up(_up(a1 * b1) + _up(c1 * d1)))


@given(st.integers(1, 2**3000))
@example(1)
@example(2**53 - 1)
@example(2**53)
@example(2**53 + 1)  # the first input split by iv_ln_ratio
@example(2**54 - 1)
def test_ln_int_matches_the_dn_up_composition(n):
    assert bits(*iv_ln_int(n)) == bits(*_ln_int_by_composition(n))


@given(st.integers(1, 2**3000), st.integers(1, 2**3000))
@example(1, 1)
@example(2**60, 1)
@example(2**53, 2**52)
def test_ln_ratio_matches_the_dn_up_composition(x, y):
    a, b = max(x, y), min(x, y)
    assert bits(*iv_ln_ratio(a, b)) == bits(*_ln_ratio_by_composition(a, b))
