"""Monotonicity of Markov numbers along slope families, and the duplicate scan.

Three integer-level families compare m_{p/q} against a neighbour with the
same numerator, the same denominator, or the same sum p+q.  All integer
comparisons are exact; no float is consulted.  The real-level counterpart
compares certified stable-norm intervals and reports Certified only when the
intervals are disjoint in the claimed order.
"""

from __future__ import annotations

import enum
import itertools
import random
import time
from math import gcd, isfinite
from typing import NamedTuple

from .errors import AccuracyLimitError, PreconditionViolatedError
from .indexing import Slope, farey_walk, markov_of_slope, markov_table
from .norm import NormInterval, norm_real

FAMILIES = ("numerator", "denominator", "sum")


class VerificationReport(NamedTuple):
    family: str
    bound: int
    cases: int
    violations: tuple
    seconds: float

    @property
    def verified(self) -> bool:
        return not self.violations


def _require(cond: bool, message: str):
    if not cond:
        raise PreconditionViolatedError(message)


def _check_slope_pair(p: int, q: int):
    _require(all(isinstance(v, int) for v in (p, q)), "p, q must be integers")
    _require(0 <= p < q, f"need 0 <= p < q, got p={p}, q={q}")
    _require(gcd(p, q) == 1, f"{p}/{q} is not reduced")


def check_fixed_numerator(p: int, q: int, i: int) -> bool:
    """Exact test of m_{p/q} < m_{p/(q+i)}."""
    _check_slope_pair(p, q)
    _require(isinstance(i, int) and i > 0, f"need integer i > 0, got {i!r}")
    _require(gcd(p, q + i) == 1, f"{p}/{q + i} is not reduced")
    return markov_of_slope(p, q) < markov_of_slope(p, q + i)


def check_fixed_denominator(p: int, q: int, i: int) -> bool:
    """Exact test of m_{p/q} < m_{(p+i)/q}."""
    _check_slope_pair(p, q)
    _require(isinstance(i, int) and i > 0, f"need integer i > 0, got {i!r}")
    _require(p + i <= q, f"need p + i <= q, got p={p}, i={i}, q={q}")
    _require(gcd(p + i, q) == 1, f"{p + i}/{q} is not reduced")
    return markov_of_slope(p, q) < markov_of_slope(p + i, q)


def check_fixed_sum(p: int, q: int, i: int) -> bool:
    """Exact test of m_{p/q} < m_{(p-i)/(q+i)}."""
    _check_slope_pair(p, q)
    _require(isinstance(i, int) and i > 0, f"need integer i > 0, got {i!r}")
    _require(p - i >= 0, f"need p - i >= 0, got p={p}, i={i}")
    _require(gcd(p - i, q + i) == 1, f"{p - i}/{q + i} is not reduced")
    return markov_of_slope(p, q) < markov_of_slope(p - i, q + i)


def _pairs_by_group(table, key):
    groups: dict[int, list[tuple[int, int]]] = {}
    for s in table:
        groups.setdefault(key(s), []).append(s)
    return groups


def verify_family(family: str, max_bound: int) -> VerificationReport:
    """Exhaustively decide every admissible (p, q, i) within the bound.

    Grouping slopes that only differ in the varying parameter turns the
    family into all ordered pairs inside each group, so the whole run is a
    single table build plus exact big-integer comparisons.  Sorted by the
    varying parameter, a group is increasing on every pair exactly when it
    is strictly increasing between neighbours (< is transitive), so only
    neighbours are compared and ``cases`` counts the n(n-1)/2 pairs this
    decides.  A group that fails a neighbour check is rescanned pair by
    pair to list every violating (p, q, i).
    """
    _require(family in FAMILIES, f"unknown family {family!r}")
    _require(isinstance(max_bound, int) and max_bound >= 2,
             f"max_bound must be an integer >= 2, got {max_bound!r}")
    t0 = time.perf_counter()
    table = markov_table(max_bound)
    if family == "numerator":
        groups = _pairs_by_group(table, lambda s: s.p)
        in_order = lambda s: s.q
        witness = lambda a, b: (a.p, a.q, b.q - a.q)
    elif family == "denominator":
        groups = _pairs_by_group(table, lambda s: s.q)
        in_order = lambda s: s.p
        witness = lambda a, b: (a.p, a.q, b.p - a.p)
    else:
        groups = _pairs_by_group(table, lambda s: s.p + s.q)
        in_order = lambda s: s.q
        witness = lambda a, b: (a.p, a.q, b.q - a.q)
    cases = 0
    violations = []
    for members in groups.values():
        members.sort(key=in_order)
        values = [table[s] for s in members]
        cases += len(values) * (len(values) - 1) // 2
        if all(a < b for a, b in zip(values, values[1:])):
            continue
        for (ia, a), (ib, b) in itertools.combinations(enumerate(members), 2):
            if not values[ia] < values[ib]:
                violations.append(witness(a, b))
    return VerificationReport(family, max_bound, cases, tuple(violations),
                              time.perf_counter() - t0)


class CheckResult(enum.Enum):
    CERTIFIED = "certified"
    INCONCLUSIVE = "inconclusive"


def _norm_enclosure(x: float, y: float, tol: float):
    if x == 0.0 and y == 0.0:
        return NormInterval(0.0, 0.0)
    try:
        return norm_real(x, y, tol=tol)
    except AccuracyLimitError as ex:
        return ex.interval


def _certify_less(a, b, tol: float) -> bool:
    """Certify ||a|| < ||b|| by interval disjointness, refining up to 3 times."""
    t = tol
    for _ in range(4):
        na = _norm_enclosure(*a, tol=t)
        nb = _norm_enclosure(*b, tol=t)
        if na is not None and nb is not None and na.hi < nb.lo:
            return True
        if t <= 1e-12:
            break
        t = max(t / 100.0, 1e-12)
    return False


def theorem1_check_real(q: float, p: float, i: float, tol: float = 1e-9,
                        parts=None, extend: bool = False) -> CheckResult:
    """Certify the three stable-norm monotonicity inequalities at (q, p).

    Part 1: ||(q,p)|| < ||(q+i,p)||; part 2: ||(q,p)|| < ||(q,p+i)||;
    part 3 (requires p < q): ||(q,p)|| < ||(q+i,p-i)||.  By default every
    applicable part is checked.  A part-3 comparand with p - i < 0 leaves
    the first quadrant, so that part is skipped by default; when requested
    explicitly it is evaluated through the symmetry extension of the norm
    if extend=True and flagged Inconclusive otherwise.
    """
    _require(all(isfinite(v) for v in (q, p, i)), "arguments must be finite")
    _require(q >= 0 and p >= 0, f"need q, p >= 0, got q={q}, p={p}")
    _require(i > 0, f"need i > 0, got {i}")
    if parts is None:
        parts = (1, 2, 3) if p < q and (p - i >= 0 or extend) else (1, 2)
    _require(set(parts) <= {1, 2, 3} and len(parts) > 0,
             f"parts must be drawn from (1, 2, 3), got {parts!r}")
    if 3 in parts:
        _require(p < q, f"part 3 needs p < q, got q={q}, p={p}")
    for part in parts:
        if part == 1:
            other = (q + i, p)
        elif part == 2:
            other = (q, p + i)
        else:
            if p - i < 0 and not extend:
                return CheckResult.INCONCLUSIVE
            other = (q + i, p - i)
        if not _certify_less((q, p), other, tol):
            return CheckResult.INCONCLUSIVE
    return CheckResult.CERTIFIED


def verify_theorem1_random(samples: int, scale: float = 50.0,
                           tol: float = 1e-9, seed: int = 0) -> VerificationReport:
    """Certify Theorem-1 inequalities on random real tuples, all three parts.

    Draws (q, p, i) with 0 <= p < q <= scale and 0 < i <= scale, keeping
    p - i >= 0 so part 3 stays inside the first quadrant.  Witnesses are
    tuples that failed certification.
    """
    _require(samples >= 1, f"samples must be >= 1, got {samples!r}")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    violations = []
    cases = 0
    for _ in range(samples):
        q = rng.uniform(1.0, scale)
        p = rng.uniform(0.0, q * 0.999)
        i = rng.uniform(1e-3, scale) if rng.random() < 0.5 else rng.uniform(1e-3, max(p, 1e-3))
        parts = (1, 2, 3) if p - i >= 0 else (1, 2)
        cases += len(parts)
        if theorem1_check_real(q, p, i, tol=tol, parts=parts) is not CheckResult.CERTIFIED:
            violations.append((q, p, i))
    return VerificationReport("theorem1", samples, cases, tuple(violations),
                              time.perf_counter() - t0)


def markov_numbers_up_to(value_bound: int) -> list[int]:
    """Sorted list of the distinct Markov numbers <= value_bound."""
    return sorted(_collect_by_value(value_bound))


def frobenius_scan(value_bound: int) -> list[int]:
    """Markov numbers <= value_bound indexed by more than one slope.

    An empty list means every number found so far is the largest entry of
    exactly one triple.  This is a scan, not a proof.
    """
    return sorted(v for v, slopes in _collect_by_value(value_bound).items()
                  if len(slopes) > 1)


def _collect_by_value(value_bound: int) -> dict[int, list[Slope]]:
    _require(isinstance(value_bound, int) and value_bound >= 1,
             f"value_bound must be an integer >= 1, got {value_bound!r}")
    found: dict[int, list[Slope]] = {1: [Slope(0, 1)]}
    if value_bound >= 2:
        found[2] = [Slope(1, 1)]
    walk = farey_walk(lambda node: node[2][2] <= value_bound)
    for (_, _, ml), (_, _, mr), (pm, qm, mm) in walk:
        assert ml * ml + mr * mr + mm * mm == 3 * ml * mr * mm
        found.setdefault(mm, []).append(Slope(pm, qm))
    return found
