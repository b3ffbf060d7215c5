"""Counting Markov triples below a bound and fitting the growth constant.

The number of triples with largest entry at most R grows like C (ln R)^2.
Counting walks the triple tree (the Farey tree without slope labels, with
the spine (1,1,1) and (1,1,2) at the boundary slopes 0/1 and 1/1) and
prunes once a node's largest entry exceeds the bound, which is valid because
it strictly increases from a node to its children.  Triples and slopes are
in bijection, so the triple count and the slope count are one walk.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import NamedTuple

from .errors import PreconditionViolatedError
from .triples import _walk_values


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
    return sum(1 for _ in _walk_values(R))


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
    # One walk to the largest bound: a node of value m counts for every
    # bound R >= m, so it is tallied at the first of them and the tallies
    # are summed in order.
    top = schedule[-1]
    tally = [0] * len(schedule)
    for _, _, m in _walk_values(top):
        tally[bisect_left(schedule, m)] += 1
    return [CountPoint(R, n, n / math.log(R) ** 2)
            for R, n in zip(schedule, accumulate(tally))]
