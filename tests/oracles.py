"""Independent reference implementations used to cross-check the package.

Everything here is written from first principles (quadratic discriminants,
modular staircases, classical linear recurrences, high-precision evaluation)
rather than by calling back into the package, so agreement between the two
is meaningful evidence.  The oracles themselves are validated against even
dumber exhaustive searches in test_oracles.py.
"""

from __future__ import annotations

import math

import mpmath


def brute_force_triples(bound: int) -> list[tuple[int, int, int]]:
    """All solutions of x^2 + y^2 + z^2 = 3xyz with x <= y <= z <= bound.

    For fixed (x, y) the equation is a quadratic in z, so z must be an
    integer root of z^2 - 3xy z + (x^2 + y^2).  The scan stops once
    3xy > 2*bound with y > x: the larger root is then at least 3xy/2 >
    bound, and the smaller root drops below y, so no further y works.
    """
    if bound < 1:
        return []
    found = []
    x = 1
    while 3 * x * x <= 2 * bound + 3:
        y = x
        while True:
            if y > x and 3 * x * y > 2 * bound:
                break
            disc = 9 * x * x * y * y - 4 * (x * x + y * y)
            if disc >= 0:
                r = math.isqrt(disc)
                if r * r == disc:
                    for z2 in (3 * x * y - r, 3 * x * y + r):
                        if z2 % 2 == 0:
                            z = z2 // 2
                            if y <= z <= bound:
                                found.append((x, y, z))
            if y > 2 * bound:
                break
            y += 1
        x += 1
    return sorted(set(found))


def vieta_markov_triples(bound: int) -> set[tuple[int, int, int]]:
    """Every sorted Markov triple with largest entry <= bound, by Vieta jumps
    from (1, 1, 1).

    Replacing z in a solution by the other root 3xy - z of the quadratic in
    z gives another solution.  Every solution is reached from (1, 1, 1) by
    jumps whose largest entries never decrease, so a search over the
    triples whose largest entry is <= bound finds them all.  It reaches
    bounds far beyond brute_force_triples.
    """
    seen = set()
    stack = [(1, 1, 1)]
    while stack:
        triple = stack.pop()
        if triple in seen:
            continue
        seen.add(triple)
        x, y, z = triple
        for jumped in ((3 * y * z - x, y, z), (x, 3 * x * z - y, z), (x, y, 3 * x * y - z)):
            jumped = tuple(sorted(jumped))
            if jumped[2] <= bound:
                stack.append(jumped)
    return seen


def vieta_markov_numbers(bound: int) -> set[int]:
    """Every Markov number <= bound, the entries of vieta_markov_triples."""
    return {v for triple in vieta_markov_triples(bound) for v in triple}


def naive_triples(bound: int) -> list[tuple[int, int, int]]:
    """Same search without the early break, for validating the break."""
    found = []
    for x in range(1, bound + 1):
        for y in range(x, bound + 1):
            disc = 9 * x * x * y * y - 4 * (x * x + y * y)
            if disc < 0:
                continue
            r = math.isqrt(disc)
            if r * r != disc:
                continue
            for z2 in (3 * x * y - r, 3 * x * y + r):
                if z2 % 2 == 0 and y <= z2 // 2 <= bound:
                    found.append((x, y, z2 // 2))
    return sorted(set(found))


def staircase_word(p: int, q: int) -> str:
    """Lower Christoffel word of slope p/q via the modular staircase.

    Letter i of the word (1-indexed, length p+q) is "a" exactly when
    i*p mod (p+q) exceeds (i-1)*p mod (p+q), i.e. when the lattice
    staircase under the segment from (0,0) to (q,p) takes a horizontal
    step.  The degenerate slope 0/1 is the single horizontal step "a".
    """
    if not (0 <= p <= q) or math.gcd(p, q) != 1:
        raise ValueError(f"not a reduced slope in [0, 1]: {p}/{q}")
    if p == 0:
        return "a" * q
    n = p + q
    return "".join(
        "a" if (i * p) % n > ((i - 1) * p) % n else "b" for i in range(1, n + 1)
    )


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def pell(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + 2 * b
    return a


def mp_acosh_half(n: int, dps: int = 60) -> mpmath.mpf:
    """acosh(n/2) to dps digits, for exact integer n >= 3."""
    with mpmath.workdps(dps):
        return mpmath.acosh(mpmath.mpf(n) / 2)


def mp_norm_of_markov(m: int, scale: int = 1, dps: int = 60) -> mpmath.mpf:
    """Reference stable norm scale * acosh(3m/2) to dps digits."""
    with mpmath.workdps(dps):
        return scale * mpmath.acosh(mpmath.mpf(3 * m) / 2)


def convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Convex hull (counterclockwise, no duplicates) by monotone chain."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for pt in seq:
            while len(out) >= 2:
                (x0, y0), (x1, y1) = out[-2], out[-1]
                if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) > 0:
                    break
                out.pop()
            out.append(pt)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def dist_to_segment(pt, a, b) -> float:
    """Euclidean distance from pt to the segment [a, b]."""
    ax, ay = a
    bx, by = b
    px, py = pt
    dx, dy = bx - ax, by - ay
    nn = dx * dx + dy * dy
    if nn == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / nn
    t = min(1.0, max(0.0, t))
    return math.hypot(px - ax - t * dx, py - ay - t * dy)


def dist_to_hull_boundary(pt, hull: list[tuple[float, float]]) -> float:
    n = len(hull)
    return min(dist_to_segment(pt, hull[i], hull[(i + 1) % n]) for i in range(n))
