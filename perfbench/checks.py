"""Output checks.  Each returns None for a correct output, else the reason.

The checks use no markovnorm code: they test the answers against the
properties the answers must have (route agreement, enclosure width, the
Markov cubic, closed-form counts).
"""

from __future__ import annotations

import json
import math
import re
from math import gcd


def check_slope(m_descent, m_trace, interval):
    """Both indexing routes agree and the norm enclosure is 0 < lo <= hi."""
    if not isinstance(m_descent, int) or m_descent != m_trace:
        return f"routes disagree: descent {m_descent!r}, trace {m_trace!r}"
    lo, hi = interval
    if not 0.0 < lo <= hi:
        return f"bad norm enclosure {interval!r}"
    return None


def check_norm(interval, tol: float, exact=None):
    """A certified enclosure of width <= tol; when the point is s * (q, p) up
    to symmetry, it overlaps s times the lattice enclosure ``exact``
    (given as (s, (lo, hi)))."""
    lo, hi = interval
    if not (0.0 <= lo <= hi and hi - lo <= tol):
        return f"enclosure {interval!r} is not within tol {tol!r}"
    if exact is not None:
        s, (elo, ehi) = exact
        elo = math.nextafter(s * elo, -math.inf)
        ehi = math.nextafter(s * ehi, math.inf)
        if hi < elo or ehi < lo:
            return f"enclosure {interval!r} misses the exact value in [{elo!r}, {ehi!r}]"
    return None


def check_verify(doc, families=("numerator", "denominator", "sum")):
    reports = doc.get("reports", [])
    if [r.get("family") for r in reports] != list(families):
        return f"expected reports for {families}, got {[r.get('family') for r in reports]}"
    for r in reports:
        if r.get("verified") is not True or r.get("violations") or not r.get("cases", 0) > 0:
            return f"family {r.get('family')} not verified: {r}"
    return None if doc.get("verified") is True else "document not verified"


def check_theorem1(doc, samples: int):
    reports = doc.get("reports", [])
    if len(reports) != 1 or reports[0].get("verified") is not True \
            or reports[0].get("bound") != str(samples):
        return f"theorem1 not verified: {reports}"
    return None if doc.get("verified") is True else "document not verified"


def check_frobenius(doc, bound: int):
    values = [int(v) for v in doc.get("markovNumbers", [])]
    if doc.get("duplicates") != []:
        return f"duplicate Markov numbers {doc.get('duplicates')}"
    if doc.get("valueCount") != len(values) or not values:
        return f"valueCount {doc.get('valueCount')} != {len(values)} listed"
    if any(b <= a for a, b in zip(values, values[1:])) or values[-1] > bound:
        return "listed values are not distinct, sorted and within the bound"
    return None


def check_count(doc, points: int):
    recs = doc.get("points", [])
    if len(recs) != points:
        return f"expected {points} count points, got {len(recs)}"
    for rec in recs:
        if rec.get("offset") != 0 or rec.get("lattice") != rec.get("count"):
            return f"lattice offset is not 0: {rec}"
    return None


def check_tree(doc, depth: int):
    nodes = doc.get("nodes", [])
    if len(nodes) != 2 ** (depth + 1) - 1:
        return f"expected {2 ** (depth + 1) - 1} nodes, got {len(nodes)}"
    for node in nodes:
        x, y, z = (int(v) for v in node["triple"])
        if x * x + y * y + z * z != 3 * x * y * z:
            return f"node {node['path']!r} is off the cubic: {node['triple']}"
    return None


def ball_point_count(max_q: int) -> int:
    """Orbit points of every primitive (q, p), q <= max_q, under the 12
    symmetries: six each for (1, 0) and (1, 1), twelve for the rest."""
    interior = sum(1 for q in range(2, max_q + 1) for p in range(1, q) if gcd(p, q) == 1)
    return 12 + 12 * interior


def check_ball_svg(svg: str, max_q: int):
    m = re.search(r'<polyline [^>]*points="([^"]*)"', svg)
    if m is None:
        return "no polyline in the svg"
    # The polyline repeats its first point to close the curve.
    found = len(m.group(1).split()) - 1
    if found != ball_point_count(max_q):
        return f"expected {ball_point_count(max_q)} boundary points, got {found}"
    return None


def check_cli(label: str, text: str, expect):
    """Check one CLI document by subcommand label."""
    if label == "ball":
        return check_ball_svg(text, expect)
    doc = json.loads(text)
    if label == "verify":
        return check_verify(doc)
    if label == "theorem1":
        return check_theorem1(doc, expect)
    if label == "frobenius":
        return check_frobenius(doc, expect)
    if label == "count":
        return check_count(doc, expect)
    if label == "tree":
        return check_tree(doc, expect)
    raise ValueError(f"no check for {label!r}")
