"""The stable norm on Z^2 induced by Markov numbers, with certified evaluation.

At a primitive lattice point (q, p) in the fundamental cone 0 <= p <= q the
norm is arccosh(3 m(p/q) / 2); it extends by homogeneity, by the order-12
symmetry group of the norm ball, and by convexity to the whole plane.

Real directions are evaluated by sandwiching: descend the Farey tree towards
the direction, keep the bracketing boundary points of the unit ball plus one
known point beyond each side, and trap the value between the crossing of the
inner chord (an upper bound, since chords of a convex ball lie inside it)
and the crossings of the two outer secants (lower bounds).  Every float step
uses outward-rounded interval arithmetic, and all lattice cross products are
exact integers, so the returned interval is a certified enclosure.
"""

from __future__ import annotations

import math
from math import gcd
from typing import NamedTuple

from .errors import (
    AccuracyLimitError,
    InternalInconsistencyError,
    NotHyperbolicError,
    OutOfRangeError,
    PreconditionViolatedError,
)
from .indexing import markov_of_slope, mat_mul
from .intervals import (
    iv_acosh_half_int,
    iv_acosh_of_logtrace,
    iv_add,
    iv_from_int,
    iv_ln_int,
    iv_mul,
    iv_sub,
    iv_width,
)

_DN = lambda v: math.nextafter(v, -math.inf)
_UP = lambda v: math.nextafter(v, math.inf)


class NormInterval(NamedTuple):
    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _closure(generators):
    group = {(1, 0, 0, 1)}
    frontier = list(group)
    while frontier:
        fresh = []
        for g in frontier:
            for h in generators:
                prod = mat_mul(g, h)
                if prod not in group:
                    group.add(prod)
                    fresh.append(prod)
        frontier = fresh
    return tuple(sorted(group))


# -I, the coordinate swap, and the order-six rotation [[0,-1],[1,1]].
SYMMETRY_GROUP = _closure([(-1, 0, 0, -1), (0, 1, 1, 0), (0, -1, 1, 1)])
assert len(SYMMETRY_GROUP) == 12


def apply_symmetry(g, v):
    a, b, c, d = g
    return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def canonicalize(v):
    """Map an integer vector into the cone 0 <= p <= q.

    Returns (w, g) with w = g v; the cone representative is unique, and g
    is the first matching group element in a fixed order.
    """
    if v[0] == 0 and v[1] == 0:
        raise PreconditionViolatedError("cannot canonicalize the zero vector")
    for g in SYMMETRY_GROUP:
        w = apply_symmetry(g, v)
        if w[0] > 0 and 0 <= w[1] <= w[0]:
            return w, g
    raise InternalInconsistencyError(f"no symmetry maps {v!r} into the cone")


def _acosh_half_float(n: int) -> float:
    """arccosh(n/2) for an integer n >= 3, relative error well under 1e-12."""
    if n.bit_length() <= 900:
        return math.acosh(n / 2)
    # Beyond ~2^900 the correction ln((1+sqrt(1-4/n^2))/2) + ln 2 is < 1e-500.
    return math.log(n)


def length_from_trace(t: int) -> float:
    """Translation length 2 arccosh(|t|/2) of a trace-t isometry."""
    if not isinstance(t, int):
        raise PreconditionViolatedError(f"trace must be an int, got {t!r}")
    if abs(t) <= 2:
        raise NotHyperbolicError(f"|trace| must exceed 2, got {t}")
    return 2.0 * _acosh_half_float(abs(t))


def stable_norm(v) -> float:
    """Stable norm of a nonzero integer vector.

    Raises AccuracyLimitError when the norm exceeds the float range.
    """
    (cq, cp), _ = canonicalize(v)
    g = gcd(cq, cp)
    m = markov_of_slope(cp // g, cq // g)
    try:
        out = g * _acosh_half_float(3 * m)
    except OverflowError:
        out = math.inf
    if out == math.inf:
        raise AccuracyLimitError("norm exceeds float range")
    return out


def stable_norm_interval(v) -> NormInterval:
    """Certified enclosure of the stable norm of a nonzero integer vector.

    Raises AccuracyLimitError when the enclosure exceeds the float range.
    """
    (cq, cp), _ = canonicalize(v)
    g = gcd(cq, cp)
    m = markov_of_slope(cp // g, cq // g)
    try:
        enc = iv_mul(iv_from_int(g), iv_acosh_half_int(3 * m))
    except OverflowError:
        enc = (0.0, math.inf)
    if enc[1] == math.inf:
        raise AccuracyLimitError("norm exceeds float range")
    return NormInterval(*enc)


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
    if math.isinf(hi):
        raise OverflowError("lattice coordinate exceeds float range")
    if hi < 4.5e-308:  # subnormal ldexp may have rounded either way
        lo, hi = _DN(lo), _UP(hi)
    if n < 0:
        return (-hi, -lo)
    return (lo, hi)


_EXACT_DENOMINATOR_CUTOFF = 512
_RUN_CAP = 64
_SUBSTEP_CAP = 200_000


def _dyadic_direction(x: float, y: float):
    """Write (x, y) as (X, Y) / 2**k with exact integers X, Y."""
    nx, dx = x.as_integer_ratio()
    ny, dy = y.as_integer_ratio()
    k = max(dx.bit_length(), dy.bit_length()) - 1
    return nx * ((1 << k) // dx), ny * ((1 << k) // dy), k


def _finish(enc_dir, g: int, e: int, tol: float):
    """Scale a direction enclosure by g * 2**e and enforce the tolerance."""
    try:
        enc = iv_mul(enc_dir, _iv_from_int_pow2(g, e))
    except OverflowError:
        raise AccuracyLimitError("norm exceeds float range") from None
    out = NormInterval(max(enc[0], 0.0), enc[1])
    if out.width <= tol:
        return out
    raise AccuracyLimitError(
        f"could not certify width {out.width:.3e} <= tol {tol:.3e}", interval=out
    )


def norm_real(x: float, y: float, tol: float = 1e-9) -> NormInterval:
    """Certified enclosure of the norm at a real point, of width <= tol.

    tol is absolute and must be >= 1e-12.  Exact rational directions with
    small denominator short-circuit to the exact Markov number; all others
    are sandwiched as described in the module docstring.  If the tolerance
    is not reached within 64 bracket refinements an AccuracyLimitError is
    raised carrying the best enclosure computed so far.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise PreconditionViolatedError("coordinates must be finite")
    if x == 0.0 and y == 0.0:
        raise PreconditionViolatedError("the norm direction must be nonzero")
    if not tol >= 1e-12:
        raise PreconditionViolatedError(f"tol must be >= 1e-12, got {tol!r}")

    X, Y, k = _dyadic_direction(x, y)
    (cq, cp), _ = canonicalize((X, Y))
    g = gcd(cq, cp)
    qd, pd = cq // g, cp // g

    if qd <= _EXACT_DENOMINATOR_CUTOFF:
        return _finish(iv_acosh_half_int(3 * markov_of_slope(pd, qd)), g, -k, tol)

    # Farey sandwich.  State: bracket (vL, vR) with mediant vM, carrying the
    # exact integer traces 3m (they stay a few hundred digits, since each
    # bracket side is resolved within ~20 refinements); plus one known
    # boundary point past each side, carrying its norm enclosure.  Keeping
    # the traces exact pins every ln-trace enclosure at ~1 ulp, so interval
    # widths do not accumulate along the descent.
    cross = lambda v: qd * v[1] - pd * v[0]  # exact; > 0 iff v lies above d
    vL, tL, uL = (1, 0), 3, iv_ln_int(3)
    vR, tR, uR = (1, 1), 6, iv_ln_int(6)
    vM, tM, uM = (2, 1), 15, iv_ln_int(15)
    out_l = ((1, -1), iv_acosh_half_int(3))
    out_r = ((1, 2), iv_acosh_half_int(15))
    j = max(qd.bit_length() - 8, 0)

    best = (0.0, math.inf)
    runs = 0
    side = ""
    substeps = 0
    stalled = 0

    def bounds():
        n1 = iv_acosh_of_logtrace(uL)
        n2 = iv_acosh_of_logtrace(uR)
        a1 = _iv_from_int_pow2(-cross(vL), -j)
        a2 = _iv_from_int_pow2(cross(vR), -j)
        upper = iv_add(iv_mul(a2, n1), iv_mul(a1, n2))
        v0, n0 = out_l
        a0 = _iv_from_int_pow2(-cross(v0), -j)
        low_l = iv_sub(iv_mul(a0, n1), iv_mul(a1, n0))
        v3, n3 = out_r
        a3 = _iv_from_int_pow2(cross(v3), -j)
        low_r = iv_sub(iv_mul(a3, n2), iv_mul(a2, n3))
        return (max(low_l[0], low_r[0], 0.0), upper[1])

    def merge(enc):
        nonlocal best
        merged = (max(best[0], enc[0]), min(best[1], enc[1]))
        if merged[0] > merged[1]:
            raise InternalInconsistencyError("sandwich enclosures disagree")
        improved = merged[1] - merged[0] < best[1] - best[0]
        best = merged
        return improved

    def give_up():
        merge(bounds())
        return _finish(best, g, j - k, tol)

    while True:
        if substeps % 4 == 0 or side == "":
            if merge(bounds()):
                stalled = 0
            else:
                stalled += 1
                if stalled >= 12:  # width floor reached (e.g. ulp of the value)
                    return _finish(best, g, j - k, tol)
            if iv_width(best) <= _scaled_tol(tol, g, j - k):
                return _finish(best, g, j - k, tol)
        c = cross(vM)
        if c == 0:
            enc = iv_acosh_of_logtrace(uM)
            merge((_DN(math.ldexp(enc[0], -j)), _UP(math.ldexp(enc[1], -j))))
            return _finish(best, g, j - k, tol)
        if c > 0:  # mediant above the target: keep the left half
            step = "L"
            t_new = tL * tM - tR
            out_r = (vR, iv_acosh_of_logtrace(uR))
            vR, tR, uR = vM, tM, uM
        else:
            step = "R"
            t_new = tM * tR - tL
            out_l = (vL, iv_acosh_of_logtrace(uL))
            vL, tL, uL = vM, tM, uM
        vM = (vL[0] + vR[0], vL[1] + vR[1])
        tM, uM = t_new, iv_ln_int(t_new)
        substeps += 1
        if step != side:
            side = step
            runs += 1
            if runs > _RUN_CAP:
                return give_up()
        if substeps > _SUBSTEP_CAP:
            return give_up()


def _scaled_tol(tol: float, g: int, e: int) -> float:
    """Conservative tolerance for the unscaled direction enclosure."""
    try:
        s = _iv_from_int_pow2(g, e)[1]
    except OverflowError:
        return 0.0
    if s == 0.0 or math.isinf(s):
        return 0.0
    return 0.9 * tol / s


def ball_boundary_sample(max_q: int) -> list[tuple[float, float]]:
    """Points v / ||v|| for every primitive v with cone denominator <= max_q.

    The full symmetry orbit is emitted, deduplicated, sorted by angle.
    """
    if max_q < 1:
        raise OutOfRangeError(f"max_q must be >= 1, got {max_q!r}")
    seen = {}
    for q in range(1, max_q + 1):
        for p in range(q + 1):
            if gcd(p, q) != 1:
                continue
            n = stable_norm((q, p))
            for g in SYMMETRY_GROUP:
                w = apply_symmetry(g, (q, p))
                if w not in seen:
                    seen[w] = (w[0] / n, w[1] / n)
    return [seen[w] for w in sorted(seen, key=lambda w: math.atan2(w[1], w[0]))]
