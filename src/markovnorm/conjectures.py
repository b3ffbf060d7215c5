"""Monotonicity of Markov numbers along slope families, and the duplicate scan.

Three integer-level families compare m_{p/q} against a neighbour with the
same numerator, the same denominator, or the same sum p+q.  They are the
three lattice steps (1, 0), (0, 1) and (1, -1) in (q, p) coordinates along
which Theorem 1 says the stable norm grows, and one table of those steps
drives the single checks, the exhaustive family runs and the three parts of
the real-level check.  All integer comparisons are exact; no float is
consulted.  The real-level counterpart compares certified stable-norm
intervals, at one fixed ladder of width bounds down to norm_real's floor,
and reports Certified only when the intervals are disjoint in the claimed
order.
"""

from __future__ import annotations

import enum
import itertools
import random
import time
from math import gcd, inf, isfinite
from operator import attrgetter, eq
from typing import NamedTuple

from .errors import (AccuracyLimitError, InternalInconsistencyError,
                     PreconditionViolatedError)
from .indexing import Slope, markov_of_slope, markov_table
from .norm import _TOL_MIN, NormInterval, norm_real
from .triples import _walk_values

# Each family is a lattice step (dq, dp) in (q, p) coordinates: it compares the
# norm at (q, p) with the norm at (q + i dq, p + i dp) for i > 0.
_STEPS = {"numerator": (1, 0), "denominator": (0, 1), "sum": (1, -1)}
FAMILIES = tuple(_STEPS)
_SAMPLE_SCALE = 50.0  # verify_theorem1_random's bound on q and i


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


def _check_step(family: str, p: int, q: int, i: int) -> bool:
    """Exact test of m_{p/q} < m at i steps of the family from p/q."""
    _check_slope_pair(p, q)
    _require(isinstance(i, int) and i > 0, f"need integer i > 0, got {i!r}")
    dq, dp = _STEPS[family]
    p2, q2 = p + dp * i, q + dq * i
    _require(0 <= p2 <= q2, f"{p2}/{q2} lies outside [0, 1]")
    _require(gcd(p2, q2) == 1, f"{p2}/{q2} is not reduced")
    return markov_of_slope(p, q) < markov_of_slope(p2, q2)


def check_fixed_numerator(p: int, q: int, i: int) -> bool:
    """Exact test of m_{p/q} < m_{p/(q+i)}."""
    return _check_step("numerator", p, q, i)


def check_fixed_denominator(p: int, q: int, i: int) -> bool:
    """Exact test of m_{p/q} < m_{(p+i)/q}."""
    return _check_step("denominator", p, q, i)


def check_fixed_sum(p: int, q: int, i: int) -> bool:
    """Exact test of m_{p/q} < m_{(p-i)/(q+i)}."""
    return _check_step("sum", p, q, i)


def verify_family(family: str, max_bound: int,
                  table: dict[Slope, int] | None = None) -> VerificationReport:
    """Exhaustively decide every admissible (p, q, i) within the bound.

    Grouping slopes by the linear form dp q - dq p that the family's step
    keeps fixed turns the family into all ordered pairs inside each group,
    so the whole run is a single table build plus exact big-integer
    comparisons.  Sorted by the coordinate the step moves, a group is
    increasing on every pair exactly when it is strictly increasing between
    neighbours (< is transitive), so only neighbours are compared and
    ``cases`` counts the n(n-1)/2 pairs this decides.  A group that fails a
    neighbour check is rescanned pair by pair to list every violating
    (p, q, i).  A caller checking several families passes the one
    ``markov_table(max_bound)`` as ``table``; by default it is built here.
    """
    _require(family in FAMILIES, f"unknown family {family!r}")
    _require(isinstance(max_bound, int) and max_bound >= 2,
             f"max_bound must be an integer >= 2, got {max_bound!r}")
    t0 = time.perf_counter()
    if table is None:
        table = markov_table(max_bound)
    dq, dp = _STEPS[family]
    groups: dict[int, list[Slope]] = {}
    for s in table:
        groups.setdefault(dp * s.q - dq * s.p, []).append(s)
    along = attrgetter("q" if dq else "p")  # the coordinate the step moves
    cases = 0
    violations = []
    for members in groups.values():
        members.sort(key=along)
        values = [table[s] for s in members]
        cases += len(values) * (len(values) - 1) // 2
        if all(a < b for a, b in zip(values, values[1:])):
            continue
        for (ia, a), (ib, b) in itertools.combinations(enumerate(members), 2):
            if not values[ia] < values[ib]:
                violations.append((a.p, a.q, along(b) - along(a)))
    return VerificationReport(family, max_bound, cases, tuple(violations),
                              time.perf_counter() - t0)


class CheckResult(enum.Enum):
    CERTIFIED = "certified"
    INCONCLUSIVE = "inconclusive"


_TOLERANCES = (1e-9, 1e-11, _TOL_MIN)  # theorem1_check_real's, in turn


def _norm_enclosure(x: float, y: float, tol: float) -> NormInterval:
    """norm_real's enclosure, its best one past tol, or the whole line."""
    if x == 0.0 and y == 0.0:
        return NormInterval(0.0, 0.0)
    try:
        return norm_real(x, y, tol=tol)
    except AccuracyLimitError as ex:
        return ex.interval or NormInterval(-inf, inf)


def theorem1_check_real(q: float, p: float, i: float, parts=None) -> CheckResult:
    """Certify the three stable-norm monotonicity inequalities at (q, p).

    Part k compares with the point i steps along family FAMILIES[k - 1]:
    part 1: ||(q,p)|| < ||(q+i,p)||; part 2: ||(q,p)|| < ||(q,p+i)||;
    part 3 (requires p < q): ||(q,p)|| < ||(q+i,p-i)||.  By default every
    applicable part is checked.  A comparand with p < 0 leaves the first
    quadrant, so part 3 with p - i < 0 is skipped by default and flagged
    Inconclusive when requested explicitly.

    Each tolerance of _TOLERANCES in turn encloses (q, p) once and certifies
    every comparand enclosed strictly above it; Certified once none is left.
    """
    _require(all(isfinite(v) for v in (q, p, i)), "arguments must be finite")
    _require(q >= 0 and p >= 0, f"need q, p >= 0, got q={q}, p={p}")
    _require(i > 0, f"need i > 0, got {i}")
    if parts is None:
        parts = (1, 2, 3) if p < q and p - i >= 0 else (1, 2)
    _require(set(parts) <= {1, 2, 3} and len(parts) > 0,
             f"parts must be drawn from (1, 2, 3), got {parts!r}")
    if 3 in parts:
        _require(p < q, f"part 3 needs p < q, got q={q}, p={p}")
    others = [(q + dq * i, p + dp * i)
              for dq, dp in (_STEPS[FAMILIES[part - 1]] for part in parts)]
    if any(op < 0 for _, op in others):
        return CheckResult.INCONCLUSIVE
    for tol in _TOLERANCES:
        base = _norm_enclosure(q, p, tol)
        others = [b for b in others if not base.hi < _norm_enclosure(*b, tol).lo]
        if not others:
            return CheckResult.CERTIFIED
    return CheckResult.INCONCLUSIVE


def verify_theorem1_random(samples: int, seed: int = 0) -> VerificationReport:
    """Certify Theorem-1 inequalities on random real tuples, all three parts.

    Draws (q, p, i) with 0 <= p < q <= _SAMPLE_SCALE and 0 < i <= _SAMPLE_SCALE;
    part 3 is checked where p - i >= 0, inside the first quadrant.
    Witnesses are tuples that failed certification.
    """
    _require(samples >= 1, f"samples must be >= 1, got {samples!r}")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    violations = []
    cases = 0
    for _ in range(samples):
        q = rng.uniform(1.0, _SAMPLE_SCALE)
        p = rng.uniform(0.0, q * 0.999)
        i = rng.uniform(1e-3, _SAMPLE_SCALE) if rng.random() < 0.5 else rng.uniform(1e-3, max(p, 1e-3))
        cases += 3 if p - i >= 0 else 2  # the parts checked by default
        if theorem1_check_real(q, p, i) is not CheckResult.CERTIFIED:
            violations.append((q, p, i))
    return VerificationReport("theorem1", samples, cases, tuple(violations),
                              time.perf_counter() - t0)


def markov_numbers_up_to(value_bound: int) -> list[int]:
    """Sorted list of the distinct Markov numbers <= value_bound."""
    return _collect_by_value(value_bound)[0]


def frobenius_scan(value_bound: int) -> list[int]:
    """Markov numbers <= value_bound indexed by more than one slope.

    An empty list means every number found so far is the largest entry of
    exactly one triple.  This is a scan, not a proof.
    """
    return _collect_by_value(value_bound)[1]


def _collect_by_value(value_bound: int) -> tuple[list[int], list[int]]:
    """Sorted lists of the distinct Markov numbers <= value_bound and of
    those indexed by more than one slope, which sort into equal neighbours."""
    _require(isinstance(value_bound, int) and value_bound >= 1,
             f"value_bound must be an integer >= 1, got {value_bound!r}")
    found = []
    for ml, mr, mm in _walk_values(value_bound):
        if ml * ml + mr * mr != mm * (3 * ml * mr - mm):  # Markov's equation
            raise InternalInconsistencyError(
                f"the walk yielded {(ml, mr, mm)!r}, not a Markov triple")
        found.append(mm)
    found.sort()
    if not any(map(eq, found, itertools.islice(found, 1, None))):
        return found, []  # no equal neighbours, so every value is distinct
    repeated = (a for a, b in zip(found, found[1:]) if a == b)
    return ([v for v, _ in itertools.groupby(found)],
            [v for v, _ in itertools.groupby(repeated)])
