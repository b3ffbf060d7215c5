"""Indexing Markov numbers by rationals in [0, 1].

Two independent routes compute the Markov number m(p/q):

* descend the Stern-Brocot tree of [0,1] keeping the triple of values at
  the interval endpoints and the mediant, with m(0/1)=1, m(1/1)=2,
  m(1/2)=5;
* build the lower Christoffel word of slope p/q, multiply the generator
  matrices it spells, and divide the trace by 3.

They must agree everywhere; tests and the acceptance gate compare them.
``farey_walk`` is the one pruned depth-first walk of the Farey tree with
its Markov numbers; tables, the value scan and the counters all use it.
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
    if (p, q) in ((0, 1), (1, 1)):
        raise OutOfRangeError(f"{p}/{q} is a boundary label, not a tree node")
    lo, hi = (0, 1), (1, 1)
    word = []
    while True:
        med = (lo[0] + hi[0], lo[1] + hi[1])
        if (p, q) == med:
            return "".join(word)
        if p * med[1] < med[0] * q:
            word.append("L")
            hi = med
        else:
            word.append("R")
            lo = med


@lru_cache(maxsize=None)
def markov_of_slope(p: int, q: int) -> int:
    """Markov number of p/q by mediant descent with the endpoint-value triple."""
    p, q = as_slope(p, q)
    if (p, q) == (0, 1):
        return 1
    if (p, q) == (1, 1):
        return 2
    # (left endpoint, right endpoint, mediant): fractions and their values.
    lo, hi, med = (0, 1), (1, 1), (1, 2)
    m_lo, m_hi, m_med = 1, 2, 5
    while med != (p, q):
        if p * med[1] < med[0] * q:
            hi, m_hi, m_med = med, m_med, 3 * m_lo * m_med - m_hi
        else:
            lo, m_lo, m_med = med, m_med, 3 * m_med * m_hi - m_lo
        med = (lo[0] + hi[0], lo[1] + hi[1])
    return m_med


def farey_walk(keep):
    """Depth-first walk over the interior Farey nodes of (0, 1).

    Each node is ((pl, ql, ml), (pr, qr, mr), (pm, qm, mm)): the left and
    right endpoints and their mediant, each with its Markov number.  A node
    for which keep(node) is false is neither yielded nor expanded, so its
    whole subtree is pruned.  The right child is popped first.
    """
    stack = [((0, 1, 1), (1, 1, 2), (1, 2, 5))]
    while stack:
        node = stack.pop()
        if not keep(node):
            continue
        yield node
        left, right, mid = node
        (pl, ql, ml), (pr, qr, mr), (pm, qm, mm) = node
        stack.append((left, mid, (pl + pm, ql + qm, 3 * ml * mm - mr)))
        stack.append((mid, right, (pm + pr, qm + qr, 3 * mm * mr - ml)))


def markov_table(max_q: int) -> dict[Slope, int]:
    """Markov numbers of every reduced p/q with q <= max_q, one pruned walk."""
    if max_q < 1:
        raise OutOfRangeError(f"max_q must be >= 1, got {max_q!r}")
    table = {Slope(0, 1): 1, Slope(1, 1): 2}
    for _, _, (pm, qm, mm) in farey_walk(lambda node: node[2][1] <= max_q):
        table[Slope(pm, qm)] = mm
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


def word_matrix(word: str):
    """Product of the generator matrices spelled by ``word`` (letters a, b)."""
    out = IDENTITY
    for letter in word:
        try:
            out = mat_mul(out, GENERATORS[letter])
        except KeyError:
            raise OutOfRangeError(f"unknown letter {letter!r} in word") from None
    return out


def _trace_to_markov(trace: int) -> int:
    if trace % 3 != 0:
        raise InternalInconsistencyError(f"trace {trace} is not divisible by 3")
    return trace // 3


def markov_of_slope_via_trace(p: int, q: int) -> int:
    """Markov number of p/q as one third of the Christoffel word's trace."""
    return _trace_to_markov(mat_trace(word_matrix(christoffel_word(p, q))))
