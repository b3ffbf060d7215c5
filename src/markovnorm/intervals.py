"""Certified float enclosures: outward-rounded interval helpers.

Intervals are plain (lo, hi) float tuples.  Every operation rounds its
endpoints outward with math.nextafter, one step for correctly rounded
IEEE arithmetic and two steps after library transcendentals (whose error
is at most a few ulp on every mainstream libm).  Logarithms of arbitrary
precision integers split off the leading 53 bits, so enclosures stay a
few ulp wide for integers with millions of bits.
"""

from __future__ import annotations

import math

INF = math.inf

# Nearest double to ln 2 is known to sit below the true value.
LN2 = (math.log(2), math.nextafter(math.log(2), INF))


def _dn(x: float) -> float:
    return math.nextafter(x, -INF)


def _up(x: float) -> float:
    return math.nextafter(x, INF)


def iv_from_int(n: int):
    """Exact if |n| < 2**53, otherwise one-ulp wide."""
    f = float(n)
    if f == n:
        return (f, f)
    return (_dn(f), _up(f))


def iv_add(a, b):
    return (_dn(a[0] + b[0]), _up(a[1] + b[1]))


def iv_sub(a, b):
    return (_dn(a[0] - b[1]), _up(a[1] - b[0]))


def iv_mul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (_dn(min(ps)), _up(max(ps)))


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


def _ln_small_dn(n: int) -> float:
    return _dn(_dn(math.log(n)))


def _ln_small_up(n: int) -> float:
    return _up(_up(math.log(n)))


def iv_ln_int(n: int):
    """Enclosure of ln(n) for a positive integer of any size."""
    if n <= 0:
        raise ValueError("iv_ln_int needs a positive integer")
    if n.bit_length() <= 53:
        return (_ln_small_dn(n), _ln_small_up(n))
    shift = n.bit_length() - 53
    mant = n >> shift
    # mant * 2**shift <= n < (mant + 1) * 2**shift
    lo = _dn(_ln_small_dn(mant) + _dn(shift * LN2[0]))
    hi = _up(_ln_small_up(mant + 1) + _up(shift * LN2[1]))
    return (lo, hi)


def iv_acosh_half_int(n: int):
    """Enclosure of arccosh(n/2) for an integer n >= 3.

    Uses arccosh(n/2) = ln(n + sqrt(n^2 - 4)) - ln 2 with an integer
    square root scaled by 2**64 so the sqrt contributes ~1e-19 slack.
    """
    if n < 3:
        raise ValueError("iv_acosh_half_int needs n >= 3")
    shift = 64
    s = math.isqrt((n * n - 4) << (2 * shift))
    arg_lo = (n << shift) + s
    inner_lo = iv_ln_int(arg_lo)
    inner_hi = iv_ln_int(arg_lo + 1)
    scale = _up((shift + 1) * LN2[1]), _dn((shift + 1) * LN2[0])
    return (_dn(inner_lo[0] - scale[0]), _up(inner_hi[1] - scale[1]))


def iv_acosh_of_logtrace(u):
    """Enclosure of arccosh(t/2) given an enclosure u of ln t, t >= 3.

    arccosh(t/2) = u - ln 2 + ln(1 + sqrt(1 - 4 e^{-2u})), and the inner
    root stays in [sqrt(5)/3, 1] so every step is well conditioned.
    """
    four = (4.0, 4.0)
    e = iv_exp(iv_mul((-2.0, -2.0), u))
    inner = iv_sub((1.0, 1.0), iv_mul(four, e))
    if inner[0] < 0.0:
        inner = (0.0, inner[1])
    s = iv_sqrt(inner)
    return iv_add(iv_sub(u, LN2), iv_log1p(s))


def iv_width(a) -> float:
    return a[1] - a[0]
