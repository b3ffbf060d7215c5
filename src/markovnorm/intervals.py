"""Certified float enclosures: outward-rounded interval helpers.

Intervals are plain (lo, hi) float tuples.  Every operation rounds its
endpoints outward with math.nextafter, one step for correctly rounded
IEEE arithmetic and two steps after library transcendentals (whose error
is at most a few ulp on every mainstream libm; a test checks that math.log,
the only one the certified paths call after import, errs by at most 1 ulp).
Logarithms of integers and of integer ratios of arbitrary precision split
off the leading 53 bits in one place, iv_ln_ratio, so enclosures stay a few
ulp wide for integers with millions of bits.
"""

from __future__ import annotations

import math
from math import nextafter

INF = math.inf

# Nearest double to ln 2 is known to sit below the true value.
LN2 = (math.log(2), math.nextafter(math.log(2), INF))


# _dn and _up round one step outward.  The helpers on norm_real's path call
# nextafter themselves, which saves a Python frame per rounding.
def _dn(x: float) -> float:
    return nextafter(x, -INF)


def _up(x: float) -> float:
    return nextafter(x, INF)


def iv_add(a, b):
    return (nextafter(a[0] + b[0], -INF), nextafter(a[1] + b[1], INF))


def iv_sub(a, b):
    return (nextafter(a[0] - b[1], -INF), nextafter(a[1] - b[0], INF))


def iv_mul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (nextafter(min(ps), -INF), nextafter(max(ps), INF))


def _dot_lo(a, b, c, d) -> float:
    """Lower end of iv_add(iv_mul(a, b), iv_mul(c, d)) for a, b, c >= 0 and
    d of any sign, from the two products that set it."""
    cd = c[0] * d[0] if d[0] >= 0.0 else c[1] * d[0]
    return nextafter(nextafter(a[0] * b[0], -INF) + nextafter(cd, -INF), -INF)


def _dot_hi(a, b, c, d) -> float:
    """Upper end of iv_add(iv_mul(a, b), iv_mul(c, d)) for a, b, c, d >= 0."""
    return nextafter(nextafter(a[1] * b[1], INF) + nextafter(c[1] * d[1], INF), INF)


def iv_sqrt(a):
    if a[0] < 0.0:
        raise ValueError("interval sqrt of a negative lower bound")
    return (_dn(math.sqrt(a[0])), _up(math.sqrt(a[1])))


def iv_exp(a):
    return (_dn(_dn(math.exp(a[0]))), _up(_up(math.exp(a[1]))))


def iv_log1p(a):
    if a[0] <= -1.0:
        raise ValueError("interval log1p needs arguments > -1")
    return (_dn(_dn(math.log1p(a[0]))), _up(_up(math.log1p(a[1]))))


def iv_ln_int(n: int):
    """Enclosure of ln(n) for a positive integer of any size."""
    if n <= 0:
        raise ValueError("iv_ln_int needs a positive integer")
    if n.bit_length() > 53:  # iv_ln_ratio splits off the leading 53 bits
        return iv_ln_ratio(n, 1)
    v = math.log(n)
    return (nextafter(nextafter(v, -INF), -INF), nextafter(nextafter(v, INF), INF))


def iv_acosh_half_int(n: int):
    """Enclosure of arccosh(n/2) for an integer n >= 3."""
    if n < 3:
        raise ValueError("iv_acosh_half_int needs n >= 3")
    u = iv_ln_int(n)
    return iv_add(u, iv_acosh_minus_log(u))


def iv_ln_ratio(a: int, b: int):
    """Enclosure of ln(a / b) for integers a >= b > 0 of any size."""
    if not a >= b > 0:
        raise ValueError("iv_ln_ratio needs a >= b > 0")
    e = a.bit_length() - b.bit_length() - 52
    q = (a >> e) // b if e > 0 else (a << -e) // b  # a/b in [q, q+1) * 2**e
    if e > 0:  # ln(a / b) > 36, so adding e ln 2 costs no relative accuracy
        lo = nextafter(nextafter(math.log(q), -INF), -INF) + nextafter(e * LN2[0], -INF)
        hi = nextafter(nextafter(math.log(q + 1), INF), INF) + nextafter(e * LN2[1], INF)
        return (nextafter(lo, -INF), nextafter(hi, INF))
    lo, hi = math.log(math.ldexp(q, e)), math.log(math.ldexp(q + 1, e))
    return (nextafter(nextafter(lo, -INF), -INF), nextafter(nextafter(hi, INF), INF))


_LOG_TAIL = (-2.0**-58, 0.0)  # iv_acosh_minus_log once u >= 21


def iv_acosh_minus_log(u):
    """Enclosure of arccosh(t/2) - ln t = ln(1 + sqrt(1 - 4 e^{-2u})) - ln 2
    given an enclosure u of ln t, t >= 3.  The root stays in [sqrt(5)/3, 1],
    so the enclosure is a few ulp of 1 wide for any t.

    Once u >= 21 it is the constant (-2**-58, 0), with no exp, sqrt or
    log1p.  With x = 4/t**2 <= 4 e**-42 < 2**-58, sqrt(1 - x) lies in
    [1 - x, 1], so the value ln((1 + sqrt(1 - x))/2) lies in [ln(1 - x/2), 0],
    and ln(1 - x/2) >= -x for x <= 1.
    """
    if u[0] >= 21.0:
        return _LOG_TAIL
    four = (4.0, 4.0)
    e = iv_exp(iv_mul((-2.0, -2.0), u))
    inner = iv_sub((1.0, 1.0), iv_mul(four, e))
    if inner[0] < 0.0:
        inner = (0.0, inner[1])
    return iv_sub(iv_log1p(iv_sqrt(inner)), LN2)
