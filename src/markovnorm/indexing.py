"""Indexing Markov numbers by rationals in [0, 1].

Two independent routes compute the Markov number m(p/q):

* descend the Stern-Brocot tree of [0,1] keeping the triple of values at
  the interval endpoints and the mediant, with m(0/1)=1, m(1/1)=2,
  m(1/2)=5;
* multiply the generator matrices spelled by the lower Christoffel word of
  slope p/q and divide the trace by 3.

Both walk the Stern-Brocot path to p/q one run of equal moves (one partial
quotient) at a time.  A run keeps one endpoint fixed, so it is one 2x2
matrix power.  The power of a determinant-1 matrix is two Chebyshev scalars
in its trace (``_chebyshev``), doubled with 2 big-int products per bit of k,
and four products to apply them.  The trace route takes its last run
M**k N through the trace alone, U(k-1) tr(M N) - U(k-2) tr(N) with M N
formed only on the diagonal, so that power is never multiplied out.  The
descent takes its runs from ``_runs``, which ``stern_brocot_path`` and the
norm sandwich share; the trace route finds its own by Euclid's algorithm.

They must agree everywhere; tests and the acceptance gate compare them.
``markov_table`` walks the Farey tree with its slope labels, pruned by
denominator; the scans pruned by value drop the labels and walk the same
tree as triples (``triples._walk_values``).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .errors import (
    InternalInconsistencyError,
    OutOfRangeError,
    PreconditionViolatedError,
)


class Slope(NamedTuple):
    p: int
    q: int


def as_slope(p: int, q: int) -> Slope:
    """Validate a reduced fraction p/q in [0, 1]."""
    if not (isinstance(p, int) and isinstance(q, int)):
        raise PreconditionViolatedError(f"slope parts must be ints, got {p!r}/{q!r}")
    if q < 1 or not 0 <= p <= q:
        raise OutOfRangeError(f"slope must lie in [0/1, 1/1], got {p}/{q}")
    if gcd(p, q) != 1:
        raise PreconditionViolatedError(f"slope must be reduced, got {p}/{q}")
    return Slope(p, q)


def parse_slope(text: str) -> Slope:
    """Parse 'p/q' into a validated Slope."""
    parts = text.split("/")
    if len(parts) != 2:
        raise PreconditionViolatedError(f"expected 'p/q', got {text!r}")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise PreconditionViolatedError(f"expected 'p/q', got {text!r}") from exc
    return as_slope(p, q)


def stern_brocot_path(p: int, q: int) -> str:
    """L/R word from the root 1/2 down to p/q in the Farey tree of (0,1).

    The boundary fractions 0/1 and 1/1 label no tree node.
    """
    p, q = as_slope(p, q)
    if q == 1:
        raise OutOfRangeError(f"{p}/{q} is a boundary label, not a tree node")
    return "".join("RL"[side] * k for side, k in _runs(p, q))


def _runs(p: int, q: int):
    """Runs of the Stern-Brocot path from 1/2 to p/q, for 0 < p < q.

    Yields (side, k): k moves of the lower end (side 0, letters R) or of the
    upper end (side 1, letters L) towards the other.  For the bracket
    pl/ql < p/q < ph/qh, above = q * ql * (p/q - pl/ql) and below =
    q * qh * (ph/qh - p/q); a move of one end takes the other's value off its
    own, and the two are equal when p/q is the mediant.
    """
    above, below = p, q - p
    while above != below:
        if below > above:
            k = (below - 1) // above
            below -= k * above
            yield 1, k
        else:
            k = (above - 1) // below
            above -= k * below
            yield 0, k


# The descent keeps its 1,024 most recent slopes, so a long-lived process
# holds a bounded number of Markov numbers.  A pass of perfbench's slopes
# workload looks up 1,000 slopes and one of norm-real about 350 (636 and 347
# of them distinct on seed 1), so neither evicts within a pass, and their
# hits and misses are those of an unbounded cache.
@lru_cache(maxsize=1024)
def markov_of_slope(p: int, q: int) -> int:
    """Markov number of p/q by mediant descent with the endpoint-value triple.

    A step moves an endpoint to the mediant, whose successor has value
    m' = 3 * m_fixed * m - m_prev; a run of k such steps is one power of
    [[0, 1], [-1, 3 * m_fixed]], so the cost is a power per partial quotient.
    """
    p, q = as_slope(p, q)
    if q == 1:
        return 1 + p  # m(0/1) = 1, m(1/1) = 2
    ends, m_med = [1, 2], 5  # the values at 0/1, 1/1 and the mediant 1/2
    for side, k in _runs(p, q):
        ends[side], m_med = _recurrence_run(ends[1 - side], ends[side], m_med, k)
    return m_med


def _recurrence_run(fixed: int, prev: int, cur: int, k: int):
    """(prev, cur) after k steps of (prev, cur) -> (cur, 3*fixed*cur - prev).

    A step is one product by t = 3*fixed.  The power's last four products
    multiply entries of about k*bits(t) bits by prev and cur, so where t is
    about as long as cur (balanced slopes) k plain steps cost less.  Measured
    on a grid of operand sizes with t at least half as long as cur, the power
    pays only once the run grows cur by 20 to 30 times its length, and at 8
    times the steps take 0.6 to 0.7 of its time.  Moving the threshold from 8
    to 16 or 24 left the slopes descent and norm_real level within 2 %, so
    runs that grow cur by at most 8 times (plus 64 bits) take the steps.
    """
    t = 3 * fixed
    if k * t.bit_length() <= 8 * cur.bit_length() + 64:
        for _ in range(k):
            prev, cur = cur, t * cur - prev
        return prev, cur
    # (0, 1, -1, t)**k = u (0, 1, -1, t) - s I, with (s, u) = (U(k-2), U(k-1)).
    s, u = _chebyshev(t, k - 1)
    return u * cur - s * prev, (t * u - s) * cur - u * prev


def markov_table(max_q: int) -> dict[Slope, int]:
    """Markov numbers of every reduced p/q with q <= max_q.

    A depth-first walk of the Farey nodes of (0, 1), each node its left end,
    right end and mediant as (p, q, m); only children with q <= max_q are
    pushed, and the right child is popped first.
    """
    if max_q < 1:
        raise OutOfRangeError(f"max_q must be >= 1, got {max_q!r}")
    table = {Slope(0, 1): 1, Slope(1, 1): 2}
    stack = [((0, 1, 1), (1, 1, 2), (1, 2, 5))] if max_q >= 2 else []
    while stack:
        node = stack.pop()
        left, right, mid = node
        (pl, ql, ml), (pr, qr, mr), (pm, qm, mm) = node
        table[Slope(pm, qm)] = mm
        if ql + qm <= max_q:
            stack.append((left, mid, (pl + pm, ql + qm, 3 * ml * mm - mr)))
        if qm + qr <= max_q:
            stack.append((mid, right, (pm + pr, qm + qr, 3 * mm * mr - ml)))
    return table


def christoffel_word(p: int, q: int) -> str:
    """Lower Christoffel word of slope p/q over the alphabet {a, b}.

    Encodes the monotone lattice path from (0,0) to (q,p) hugging the
    segment from below: after x right-steps the height is floor(p*x/q).
    """
    p, q = as_slope(p, q)
    if p == 0:
        return "a"
    if p == q:
        return "ab"
    letters = []
    prev = 0
    for x in range(1, q + 1):
        letters.append("a")
        h = (p * x) // q
        letters.append("b" * (h - prev))
        prev = h
    return "".join(letters)


# Generator matrices for the letters; both have trace 3 and determinant 1.
GENERATORS = {"a": (1, 1, 1, 2), "b": (2, 1, 1, 1)}
IDENTITY = (1, 0, 0, 1)


def mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_trace(m) -> int:
    return m[0] + m[3]


def mat_det(m) -> int:
    return m[0] * m[3] - m[1] * m[2]


def _mat_pow(m, k: int):
    """m**k for k >= 1 and det(m) = 1.

    By Cayley-Hamilton m**k = U(k-1) m - U(k-2) I, with U the Chebyshev
    recurrence in t = tr(m), so the power is two scalars and four products.
    """
    a, b, c, d = m
    s, u = _chebyshev(a + d, k - 1)
    return (u * a - s, u * b, u * c, u * d - s)


def _chebyshev(t: int, n: int):
    """(U(n-1), U(n)) for n >= 0, where U(-1) = 0, U(0) = 1 and
    U(j+1) = t U(j) - U(j-1).

    Doubling takes (U(j-1), U(j)) to (U(j-1) (2 U(j) - t U(j-1)),
    U(j)**2 - U(j-1)**2): two products of equal length per bit of n, plus
    one short product by t on a 1 bit.  Up to n = 8 the plain recurrence,
    one short product per step, costs less.
    """
    s, u = 0, 1
    if n <= 8:
        for _ in range(n):
            s, u = u, t * u - s
        return s, u
    for bit in bin(n)[2:]:
        s, u = s * (2 * u - t * s), (u - s) * (u + s)
        if bit == "1":
            s, u = u, t * u - s
    return s, u


def word_matrix(word: str):
    """Product of the generator matrices spelled by ``word`` (letters a, b)."""
    out = IDENTITY
    for letter in word:
        try:
            out = mat_mul(out, GENERATORS[letter])
        except KeyError:
            raise OutOfRangeError(f"unknown letter {letter!r} in word") from None
    return out


def christoffel_matrix(p: int, q: int):
    """word_matrix(christoffel_word(p, q)), by the Cohn factorisation: the
    last run's power and its other factor, multiplied in their order."""
    m, k, n, m_first = _christoffel_run(p, q)
    power = _mat_pow(m, k)
    return mat_mul(power, n) if m_first else mat_mul(n, power)


def _christoffel_run(p: int, q: int):
    """(M, k, N, m_first) with christoffel_matrix(p, q) = M**k N if m_first,
    else N M**k: the last run's base and length and its other factor.

    W(lo+hi) = W(lo) W(hi) for Farey neighbours lo < hi.  From the bracket
    (0/1, 1/0) with W = a, b, the runs to p/q = [0; a1, ..., an] are L**a1
    R**a2 ..., each one power: W(hi) = W(lo)**k W(hi), W(lo) = W(lo) W(hi)**k.
    Every run but the last is multiplied out; the last is left to the caller.
    """
    p, q = as_slope(p, q)
    lo, hi = GENERATORS["a"], GENERATORS["b"]  # W(0/1), W(1/0)
    if p == 0:
        return lo, 1, IDENTITY, True
    moves_hi = True  # the runs alternate, the first moving hi
    while True:
        k, r = divmod(q, p)
        if r == 0:
            return (lo, k, hi, True) if moves_hi else (hi, k, lo, False)
        if moves_hi:
            hi = mat_mul(_mat_pow(lo, k), hi)
        else:
            lo = mat_mul(lo, _mat_pow(hi, k))
        moves_hi = not moves_hi
        p, q = r, p


def _trace_to_markov(trace: int) -> int:
    if trace % 3 != 0:
        raise InternalInconsistencyError(f"trace {trace} is not divisible by 3")
    return trace // 3


def markov_of_slope_via_trace(p: int, q: int) -> int:
    """Markov number of p/q as one third of the Christoffel word's trace.

    The matrix is ``christoffel_matrix``, one power of generator products
    per partial quotient, and its last run M**k N (or N M**k) is taken
    through the trace: M**k = U(k-1) M - U(k-2) I as det M = 1, so
    tr(M**k N) = U(k-1) tr(M N) - U(k-2) tr(N), and tr(M N) = sum of
    m_ij n_ji is the product's diagonal alone.  No Markov recurrence or
    descent value enters.
    """
    (a, b, c, d), k, (e, f, g, h), _ = _christoffel_run(p, q)
    s, u = _chebyshev(a + d, k - 1)
    return _trace_to_markov(u * (a * e + b * g + c * f + d * h) - s * (e + h))
