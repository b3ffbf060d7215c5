"""The stable norm on Z^2 induced by Markov numbers, with certified evaluation.

At a primitive lattice point (q, p) in the fundamental cone 0 <= p <= q the
norm is arccosh(3 m(p/q) / 2); it extends by homogeneity, by the order-12
symmetry group of the norm ball, and by convexity to the whole plane.

The group acts on the three linear forms x, y and -x - y by signed
permutations, so it keeps the values |x|, |y|, |x + y|; at a cone point
(q, p) they are p <= q <= q + p.  The cone image of (x, y) is therefore
(b, a), with a <= b the two smaller of those values, and ``_reduced`` is
the one cone map.  ``SYMMETRY_GROUP`` is the group's one listing, in the
angular order of its sectors: the ball's boundary is the cone sample
carried round by the group, one sector at a time (``_ball_sectors``), for
``ball_boundary_sample`` and the CLI alike; the group holds -I, so the far
half of the sectors is the near half by sign, formatted once.

Real directions are evaluated by sandwiching: descend the Farey tree towards
the direction one Stern-Brocot run at a time, keep the bracketing boundary
points of the unit ball plus one known point beyond each side, and trap the
value between the crossing of the inner chord (an upper bound, since chords
of a convex ball lie inside it) and the crossings of the two outer secants
(lower bounds).  Every float step uses outward-rounded interval arithmetic,
and all lattice cross products are exact integers, so the returned interval
is a certified enclosure.
"""

from __future__ import annotations

import math
from itertools import accumulate
from math import gcd, inf, isfinite, ldexp, nextafter
from typing import NamedTuple

from .errors import (
    AccuracyLimitError,
    InternalInconsistencyError,
    PreconditionViolatedError,
)
from .indexing import (
    _recurrence_run,
    _runs,
    markov_of_slope,
    markov_table,
    mat_mul,
)
from .intervals import (
    _LOG_TAIL,
    _dn,
    _dot_hi,
    _dot_lo,
    _up,
    iv_acosh_minus_log,
    iv_add,
    iv_ln_int,
    iv_ln_ratio,
    iv_mul,
    iv_sub,
)
from .triples import _walk_values

class NormInterval(NamedTuple):
    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


# The rotation r = [[0,-1],[1,1]] of order six and the coordinate swap s
# generate the symmetry group of the norm ball (McShane-Rivin).  r**k and
# r**k s map the cone onto two adjacent sectors, so k = 3, 4, 5, 0, 1, 2
# (r**3 = -I) gives the group's one listing, in its sectors' order from -pi.
SYMMETRY_GROUP = tuple(
    h for g in accumulate([(-1, 0, 0, -1)] + [(0, -1, 1, 1)] * 5, mat_mul)
    for h in (g, mat_mul(g, (0, 1, 1, 0))))


def _reduced(v):
    """(g, p, q): v's cone image is g (q, p), with p/q reduced.

    The image is read off the three linear forms (see the module docstring):
    with a <= b <= c the values |x|, |y|, |x + y|, it is (b, a)."""
    x, y = v
    a, b, _ = sorted((abs(x), abs(y), abs(x + y)))
    if b == 0:
        raise PreconditionViolatedError("the norm direction must be nonzero")
    g = gcd(a, b)
    return g, a // g, b // g


def _acosh_half_float(n: int) -> float:
    """arccosh(n/2) for an integer n >= 3, relative error well under 1e-12."""
    if n.bit_length() <= 900:
        return math.acosh(n / 2)
    # Beyond ~2^900 the correction ln((1+sqrt(1-4/n^2))/2) + ln 2 is < 1e-500.
    return math.log(n)


def _exact_markov(v):
    """(g, m): v is g times the cone point of Markov number m.  Past a reduced
    denominator of _EXACT_MAX_Q, AccuracyLimitError: m has up to ~1.4 q bits."""
    g, p, q = _reduced(v)
    if q > _EXACT_MAX_Q:
        raise AccuracyLimitError(f"reduced denominator {q} > {_EXACT_MAX_Q}: use "
                                 "the real-point route (norm_real; norm x y "
                                 "without --exact)")
    return g, markov_of_slope(p, q)


def stable_norm(v) -> float:
    """Stable norm of a nonzero integer vector.

    Raises AccuracyLimitError when the norm exceeds the float range, or when
    the reduced denominator exceeds 2**18, as stable_norm_interval does.
    """
    g, m = _exact_markov(v)
    try:
        out = g * _acosh_half_float(3 * m)
    except OverflowError:
        out = math.inf
    if out == math.inf:
        raise AccuracyLimitError("norm exceeds float range")
    return out


def stable_norm_interval(v) -> NormInterval:
    """Certified enclosure of the stable norm of a nonzero integer vector.

    Raises AccuracyLimitError when the enclosure exceeds the float range, or
    when the reduced denominator exceeds 2**18: m(1/q) alone has ~1.4 q bits.
    """
    g, m = _exact_markov(v)
    return NormInterval(*_lattice_norm(m, g, 0))


def _lattice_norm(m: int, g: int, e: int):
    """Enclosure of g 2**e arccosh(3m/2), the norm at g 2**e times the point of
    Markov number m.  AccuracyLimitError past the float range, also when g 2**e
    is: every norm is at least arccosh(3/2) > 0.96 times its scale."""
    try:
        factor = _iv_from_int_pow2(g, e)
    except OverflowError:
        raise AccuracyLimitError("norm exceeds float range") from None
    out = iv_mul(_norm_parts(3 * m)[0], factor)
    if out[1] == inf:
        raise AccuracyLimitError("norm exceeds float range")
    return out


def _iv_from_int_pow2(n: int, e: int):
    """Enclosure of n * 2**e for integers of any size."""
    if n == 0:
        return (0.0, 0.0)
    a = -n if n < 0 else n
    sh = a.bit_length() - 53
    if sh > 0:
        mant = a >> sh
        lo, hi = math.ldexp(mant, e + sh), math.ldexp(mant + 1, e + sh)
    else:
        lo = hi = math.ldexp(a, e)
    if hi < _NORMAL_MIN:  # subnormal ldexp may have rounded either way
        lo, hi = max(_dn(lo), 0.0), _up(hi)  # a > 0, so lo stays >= 0
    if n < 0:
        return (-hi, -lo)
    return (lo, hi)


_EXACT_MAX_Q = 1 << 18  # _exact_markov's bound on the reduced denominator
_EXACT_DENOMINATOR_CUTOFF = 512
_TRACE_BITS = 4096  # norm_real's bound on the bit length of an exact trace
_TOL_MIN = 1e-12  # norm_real's floor on tol
_FLOAT_INT_BOUND = 1 << 53  # every integer below it converts to a float exactly
# Twice the least normal float.  An ldexp of an integer below _FLOAT_INT_BOUND
# that lands at or above it is exact, as is the lower end of
# _iv_from_int_pow2's 53-bit truncation when its upper end does.
_NORMAL_MIN = 4.5e-308


def _finish(enc, tol: float, reason: str, *args):
    """Enforce the tolerance on a scaled enclosure.  The error's message starts
    with reason % args, formatted only when it is raised."""
    lo, hi = enc
    if lo < 0.0:
        lo = 0.0
    if hi - lo <= tol:
        return NormInterval(lo, hi)
    raise AccuracyLimitError(
        f"{reason % args}; width {hi - lo:.3g} > tol {tol:.3g}",
        interval=NormInterval(lo, hi))


def norm_real(x: float, y: float, tol: float = 1e-9) -> NormInterval:
    """Certified enclosure of the norm at a real point, of width <= tol.

    tol is absolute and must be >= _TOL_MIN.  Exact rational directions with
    small denominator short-circuit to the exact Markov number; all others
    are sandwiched as described in the module docstring.  The descent gives
    up only when the next substep could build an exact trace of more than
    _TRACE_BITS bits ("trace bound").  A missed tolerance raises
    AccuracyLimitError carrying the best enclosure computed so far, its
    message naming the exit and its counters.
    """
    if not (isfinite(x) and isfinite(y)):
        raise PreconditionViolatedError("coordinates must be finite")
    if not tol >= _TOL_MIN:
        raise PreconditionViolatedError(f"tol must be >= {_TOL_MIN!r}, got {tol!r}")

    # the direction (x, y) 2**k, exact integers since 2**k is the larger
    # denominator
    nx, dx = x.as_integer_ratio()
    ny, dy = y.as_integer_ratio()
    k = (dx if dx > dy else dy).bit_length() - 1
    g, pd, qd = _reduced((nx * ((1 << k) // dx), ny * ((1 << k) // dy)))

    if qd <= _EXACT_DENOMINATOR_CUTOFF:
        return _finish(_lattice_norm(markov_of_slope(pd, qd), g, -k), tol,
                       "exact direction")

    # Farey sandwich.  Each bracket end L, R carries (c, m, N, a): c = |qd p -
    # pd q|, the exact cross product of its vector (q, p) with the direction
    # (below it at L, above at R), m, its norm enclosure N, and a, the
    # enclosure of c 2**-j, converted once, when the end moves.  The inner
    # chord gives the upper bound a(R) N(L) + a(L) N(R).  Each side's outer
    # secant, through the known boundary point O one step further out, gives
    # the lower bound b N + a (N - N(O)), where b encloses (c(O) - c) 2**-j,
    # the fixed end's a at the move.  A move changes only the moving side's
    # secant, so only its bound is computed and folded into lo, which already
    # holds the other side's, and the chord is recomputed.  N - N(O) is the
    # exact trace ratio's ln(m / m(O)) plus h - h(O), with h = N - ln 3m, so
    # that bound stays a few ulp wide along any run; a move to a trace in the
    # table reads N and N - N(O) from _SMALL_STEPS.  N - N(O) is positive once
    # the side has moved, but the right side's first secant, through O =
    # (1, 2), has arccosh 3 - arccosh 7.5 < 0, which _dot_lo allows for.  A
    # run from _runs of one substep is stepped in place, a longer one is one
    # _recurrence_run, and the bounds are checked after every run.  A substep
    # multiplies the mediant's trace 3m by less than the fixed end's trace, so
    # a run is cut short of a trace past _TRACE_BITS bits; the rest follows.
    j = qd.bit_length() - 8
    n3, n6, d6 = _START
    if qd < _FLOAT_INT_BOUND:  # j <= 45: exact conversions, to normal floats
        u, v, w = ldexp(qd, -j), ldexp(pd, -j), ldexp(qd - pd, -j)
        b0, al, ar = (u, u), (v, v), (w, w)
    else:
        b0 = _iv_from_int_pow2(qd, -j)
        al, ar = _iv_from_int_pow2(pd, -j), _iv_from_int_pow2(qd - pd, -j)
    ends = [(pd, 1, n3, al), (qd - pd, 2, n6, ar)]
    m_med = 5
    # The norm is the scale g 2**(j - k) times the norm of the direction
    # (qd, pd) 2**-j.  The scale stays in the float range: g qd 2**-k <= |x|
    # + |y|, and qd > 512 makes j >= 2 and qd 2**-j >= 128.  The norm leaves it
    # once a lower bound times the scale's lower end rounds to inf.  That is
    # checked at every bound, the first made before any run, since the final
    # scaling, by the same enclosure, would raise the same error only after
    # the whole descent.
    scale_lo, scale_hi = _iv_from_int_pow2(g, j - k)
    scaled_tol = 0.9 * tol / scale_hi  # conservative, for the direction's enclosure

    # the best enclosure so far; the first secants pass through O = (1, -1)
    # and (1, 2)
    lo = max(0.0, _dot_lo(b0, n3, al, (0.0, 0.0)), _dot_lo(b0, n6, ar, d6))
    hi = inf
    runs = _runs(pd, qd)
    substeps = run = 0

    while True:
        (_, _, nl, al), (_, _, nr, ar) = ends
        bound = _dot_hi(ar, nl, al, nr)
        if bound < hi:
            hi = bound
        if lo > hi:
            raise InternalInconsistencyError("sandwich enclosures disagree")
        if lo * scale_lo == inf:
            raise AccuracyLimitError("norm exceeds float range")
        if hi - lo <= scaled_tol:
            reason = "tolerance"
            break
        if not run:  # a new run: the side that moves and its length
            side, run = next(runs, (0, 0))
            if not run:  # the mediant lies on the direction
                ex_lo, ex_hi = _lattice_norm(m_med, 1, -j)
                lo, hi = max(lo, ex_lo), min(hi, ex_hi)
                if lo > hi:
                    raise InternalInconsistencyError("sandwich enclosures disagree")
                reason = "exact hit"
                break
        (cs, ms, _, _), (cf, mf, _, af) = ends[side], ends[1 - side]
        n = (_TRACE_BITS - (3 * m_med).bit_length()) // (3 * mf).bit_length()
        if run < n:
            n = run
        # m0 is O, the moving end before the last substep
        if n == 1:
            m1, m_med, m0 = m_med, 3 * mf * m_med - ms, ms
        elif n:
            m1, m_med = _recurrence_run(mf, ms, m_med, n)
            m0 = 3 * mf * m1 - m_med
        else:
            reason = "trace bound"
            break
        n1, d1 = _SMALL_STEPS.get((m1, m0)) or _step(m1, m0)
        c1 = cs - n * cf
        a = ldexp(c1, -j) if c1 < _FLOAT_INT_BOUND else 0.0
        a1 = (a, a) if a >= _NORMAL_MIN else _iv_from_int_pow2(c1, -j)
        ends[side] = (c1, m1, n1, a1)
        bound = _dot_lo(af, n1, a1, d1)
        if bound > lo:
            lo = bound
        substeps += n
        run -= n

    # lo and the scale's ends are >= 0, so of iv_mul's four products the
    # outer two bound the scaled enclosure
    out_hi = nextafter(hi * scale_hi, inf)
    if out_hi == inf:
        raise AccuracyLimitError("norm exceeds float range")
    return _finish((nextafter(lo * scale_lo, -inf), out_hi), tol,
                   "%s: %d substeps, %d-bit trace",
                   reason, substeps, (3 * m_med).bit_length())


def _step(m1: int, m0: int):
    """N(m1) and N(m1) - N(m0) for a bracket end that moves to m1, with m0 <
    m1 the end before its last substep: N(m1) - N(m0) = ln(m1 / m0) + h1 - h0.

    h0 = _norm_parts(3 * m0)[1], with no logarithm: a trace past the table has
    ln 3m0 >= 21, so its h is the constant tail."""
    n1, h1 = _norm_parts(3 * m1)
    h0 = _SMALL_TRACES.get(3 * m0, (None, _LOG_TAIL))[1]
    return n1, iv_add(iv_ln_ratio(m1, m0), iv_sub(h1, h0))


def _norm_parts(t: int):
    """Enclosures of arccosh(t/2) and of arccosh(t/2) - ln t, for t >= 3.

    The first is bit for bit iv_acosh_half_int(t), the tests' reference."""
    parts = _SMALL_TRACES.get(t)
    if parts is None:
        u = iv_ln_int(t)
        h = iv_acosh_minus_log(u)
        parts = iv_add(u, h), h
    return parts


# _norm_parts at each of the 85 Markov traces 3m < 2**31, computed at import
# (the dict is filled after it exists, since _norm_parts reads it).  Every
# larger trace has ln 3m >= 21 and takes the closed-form tail of
# iv_acosh_minus_log, so after import norm_real runs no exp, sqrt or log1p.
# _SMALL_STEPS holds _step at each of the 166 pairs (m1, m0) of a node below
# (1,1,2) with 3m1 < 2**31 and one of its two Farey parents: every move of
# norm_real to a trace in the table, which makes no interval call.  _START
# holds N at (1, 0) and (1, 1), and N(1, 1) - N(1, 2) for the right side's
# first secant.
_SMALL_M = ((1 << 31) - 1) // 3  # the largest m with 3m < 2**31
_SMALL_TRACES = {}
_SMALL_TRACES.update({3 * m: _norm_parts(3 * m) for _, _, m in _walk_values(_SMALL_M)})
_SMALL_STEPS = {(m1, m0): _step(m1, m0)
                for u, v, m1 in _walk_values(_SMALL_M) if m1 > 2 for m0 in (u, v)}
_START = (_SMALL_TRACES[3][0], _SMALL_TRACES[6][0],
          iv_sub(_SMALL_TRACES[6][0], _SMALL_TRACES[15][0]))


def _ball_cone(max_q: int) -> list[tuple[int, int, float]]:
    """(q, p, stable_norm((q, p))) for every cone point with q <= max_q, by p/q.

    Raises OutOfRangeError when max_q < 1.  The float key p/q keeps the order
    of the fractions: two with q <= 2**26 differ by at least 2**-52, more than
    the rounding of both, and no table anywhere near that size can be built.
    """
    return [(q, p, _acosh_half_float(3 * m))
            for (p, q), m in sorted(markov_table(max_q).items(),
                                    key=lambda item: item[0].p / item[0].q)]


def _ball_sectors(cone, fmt):
    """ball_boundary_sample's points, fmt applied to each coordinate, as one
    iterator of (x, y) per sector in turn from -pi; cone is _ball_cone's and
    fmt returns a float or its text.

    Each g in SYMMETRY_GROUP maps the sorted cone onto its sector in angular
    order, reversed when det g = -1, and without the start ray, where the
    previous sector ends.  Every coordinate is (e q + f p) / n for one of the group's
    six rows (e, f).  Since -I = r**3 is in the group, they are the rows
    (1, 0), (0, 1) and (1, 1), where e q + f p >= 0 on the cone, and their
    negatives.  Only the first three are computed and formatted, once per
    cone point; each negative row is taken from its row by sign, as repr and
    "%.10f" write -x as "-" and the text of x.  The one zero, (0, 1) at the
    cone's first point (1, 0), stays unsigned, as fmt(0 / n) writes it.  The
    six rows are held throughout.
    """
    rows = {}  # (e, f) -> fmt((e q + f p) / n) over the cone
    for e, f in ((1, 0), (0, 1), (1, 1)):
        row = rows[e, f] = [fmt((e * q + f * p) / n) for q, p, n in cone]
        rows[-e, -f] = (list(map("-".__add__, row)) if isinstance(row[0], str)
                        else [-x for x in row])
    rows[0, -1][0] = rows[0, 1][0]  # the zero at (1, 0), unsigned
    for a, b, c, d in SYMMETRY_GROUP:
        cut = slice(1, None) if a * d - b * c == 1 else slice(-2, None, -1)
        yield zip(rows[a, b][cut], rows[c, d][cut])


def ball_boundary_sample(max_q: int) -> list[tuple[float, float]]:
    """Points v / ||v|| for every primitive v with cone denominator <= max_q.

    The full symmetry orbit is emitted, deduplicated, sorted by angle in
    (-pi, pi].  Raises OutOfRangeError when max_q < 1.  The CLI writes the
    same sectors, formatted as text.
    """
    return [pt for sector in _ball_sectors(_ball_cone(max_q), float) for pt in sector]
