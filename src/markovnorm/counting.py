"""Counting Markov triples below a bound and fitting the growth constant.

The number of triples with largest entry at most R grows like C (ln R)^2.
Counting walks the Farey tree with exact Markov numbers and prunes as soon
as a node's value exceeds the bound, which is valid because the value
strictly increases from a node to its children.  Triples and slopes are in
bijection, so the triple count and the slope count are one walk.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import PreconditionViolatedError
from .indexing import farey_walk


class CountPoint(NamedTuple):
    bound: int
    count: int
    c_estimate: float


def _require_bound(R):
    if not isinstance(R, int) or R < 1:
        raise PreconditionViolatedError(f"bound must be an integer >= 1, got {R!r}")


def count_triples(R: int) -> int:
    """Number of unordered Markov triples with maximal entry <= R."""
    _require_bound(R)
    # (1,1,1) and (1,1,2), then one triple per walked node.
    count = 1 + (1 if R >= 2 else 0)
    return count + sum(1 for _ in farey_walk(lambda node: node[2][2] <= R))


def count_lattice(R: int) -> int:
    """Number of reduced slopes p/q in [0, 1] whose Markov number is <= R.

    This equals count_triples(R) by a bijection: the spine triples (1,1,1)
    and (1,1,2) pair with the boundary slopes 0/1 and 1/1, and every other
    triple pairs with the interior slope whose mediant node it labels.
    """
    return count_triples(R)


def fit_constant(schedule: list[int]) -> list[CountPoint]:
    """Counts and C-estimates count/(ln R)^2 along an increasing schedule."""
    if not schedule:
        raise PreconditionViolatedError("schedule must be non-empty")
    for R in schedule:
        if not isinstance(R, int) or R < 2:
            raise PreconditionViolatedError(
                f"schedule entries must be integers >= 2, got {R!r}")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise PreconditionViolatedError("schedule must be strictly increasing")
    points = []
    for R in schedule:
        n = count_triples(R)
        points.append(CountPoint(R, n, n / math.log(R) ** 2))
    return points
