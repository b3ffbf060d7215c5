"""Seeded inputs for the three workloads, and the input properties they have.

Every stream is a pure function of the seed: the same seed gives the same
inputs in the same order, however many of them a run consumes.  Shares are
exact per block (each block is a fixed multiset shuffled by the seed), so a
property's share does not drift with the seed.
"""

from __future__ import annotations

import itertools
import math
import random
from math import gcd

# slopes: 1000 queries, q log-uniform up to 5e3, so that a run replays
# each query about a dozen times (see loops.py); 1000 still leaves ten
# queries beyond the p99.  The trace route costs about (p + q)^2, so a few
# large-q queries dominate a run's time; to keep that share steady from
# seed to seed the draws are stratified.  Each block of 20 queries takes
# one q from each of 20 equal bins of log q, and within a bin successive
# blocks walk a Kronecker sequence from a seeded start, which covers
# (position in the bin, p/q) evenly instead of by chance.  Bin b of block
# i has kind SLOPE_KINDS[(b + i) % 5]: a fifth of the queries have one
# large partial quotient (1/q, 2/q, (q-2)/q, (q-1)/q), where run-length
# indexing acts; a fifth repeat the previous block's query from the same
# bin, which is always one of those, so a markov_of_slope cache hit saves
# a long descent.  The shares are chosen, not measured (see README.md).
SLOPE_OPS = 1000
SLOPE_MAX_Q = 5_000
SLOPE_BINS = 20
SLOPE_KINDS = ("generic", "generic", "generic", "large_pq", "repeat")

# norm-real: 5000 calls, in blocks of 100 with these strata:
#   1  |x|, |y| <= 60 at tol 1e-9 (the bulk)
#   2  |x|, |y| <= 60 at tol 1e-12, the float floor
#   3  |x|, |y| ~ 1e3 at tol 1e-12, where exact traces blow up
#   4  exact direction with denominator <= 512 (the markov_of_slope shortcut)
NORM_OPS = 5000
NORM_BLOCK = (1,) * 80 + (2,) * 10 + (3,) * 3 + (4,) * 7
NORM_TOL = {1: 1e-9, 2: 1e-12, 3: 1e-12, 4: 1e-9}
EXACT_MAX_Q = 512

# scan: fixed sizes, so every seed does the same amount of work; the seed
# picks the theorem1 samples and the ball witness.
SCAN_SIZES = {
    "verify_max": 150,
    "frobenius_bound_digits": 150,
    "count_bound_digits": (60, 120, 180),
    "tree_depth": 12,
    "ball_max_q": 100,
    "theorem1_samples": 150,
}


def _blocks(rng: random.Random, block):
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


# Steps of the two-dimensional Kronecker sequence (golden ratio, sqrt 2).
_KRONECKER = ((math.sqrt(5) - 1) / 2, math.sqrt(2) - 1)


def _slope_in_bin(lo: float, width: float, u: float, v: float, kind: str):
    """The query at point (u, v) of the unit square for one bin of log q."""
    q = max(2, round(math.exp(lo + u * width)))
    if kind == "large_pq":
        choices = (1, 2, q - 2, q - 1) if q % 2 and q > 3 else (1, q - 1)
        return choices[int(v * len(choices))], q
    p = min(max(round(v * q), 1), q - 1)
    while gcd(p, q) != 1:
        p += 1 if p < q - 1 else -(q - 2)
    return p, q


def slope_queries(seed: int):
    """Endless stream of (p, q, kind), kind in generic/large_pq/repeat."""
    rng = random.Random(f"slopes:{seed}")
    width = (math.log(SLOPE_MAX_Q) - math.log(2)) / SLOPE_BINS
    starts = [(rng.random(), rng.random()) for _ in range(SLOPE_BINS)]
    drawn: dict[tuple[int, str], int] = {}  # queries so far per (bin, kind)
    previous = None
    for i in itertools.count():
        block = []
        for b, (u0, v0) in enumerate(starts):
            kind = SLOPE_KINDS[(b + i) % len(SLOPE_KINDS)]
            if kind == "repeat" and previous:
                block.append((*previous[b][:2], kind))
                continue
            kind = "generic" if kind == "repeat" else kind  # nothing to repeat yet
            n = drawn[b, kind] = drawn.get((b, kind), -1) + 1
            u, v = (u0 + n * _KRONECKER[0]) % 1.0, (v0 + n * _KRONECKER[1]) % 1.0
            block.append((*_slope_in_bin(math.log(2) + b * width, width, u, v, kind), kind))
        previous = block
        yield from rng.sample(block, len(block))


def largest_partial_quotient(p: int, q: int) -> int:
    """Largest partial quotient of the continued fraction of p/q."""
    best = 0
    while p:
        best = max(best, q // p)
        q, p = p, q % p
    return best


def direction_bits(x: float, y: float) -> int:
    """Bits of the integers X, Y with (x, y) = (X, Y) / 2**k exactly."""
    (nx, dx), (ny, dy) = x.as_integer_ratio(), y.as_integer_ratio()
    d = max(dx, dy)
    return max(abs(nx * (d // dx)).bit_length(), abs(ny * (d // dy)).bit_length())


def _symmetry_image(v, turns: int, swap: bool):
    """Image of v under rotation^turns, then the coordinate swap if asked.

    The rotation (q, p) -> (-p, q + p) has order six and with the swap it
    generates the norm's order-12 symmetry group.
    """
    q, p = v
    for _ in range(turns):
        q, p = -p, q + p
    return (p, q) if swap else (q, p)


def norm_points(seed: int):
    """Endless stream of (x, y, tol, stratum, exact).

    exact is None, or (s, q, p) when (x, y) = s * g(q, p) for a symmetry g,
    so the norm at (x, y) is s * ||(q, p)||.
    """
    rng = random.Random(f"norm-real:{seed}")
    sign = lambda: rng.choice((-1.0, 1.0))
    for stratum in _blocks(rng, NORM_BLOCK):
        exact = None
        if stratum in (1, 2):
            x, y = rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0)
        elif stratum == 3:
            x, y = sign() * rng.uniform(500.0, 1500.0), sign() * rng.uniform(500.0, 1500.0)
        else:
            q = rng.randint(1, EXACT_MAX_Q)
            p = rng.randint(0, q)
            while gcd(p, q) != 1:
                p = rng.randint(0, q)
            s = rng.randint(1, 256) / 256  # dyadic, so s * integer is exact
            a, b = _symmetry_image((q, p), rng.randrange(6), rng.random() < 0.5)
            x, y = s * a, s * b
            exact = (s, q, p)
        yield x, y, NORM_TOL[stratum], stratum, exact


def scan_commands(seed: int):
    """The CLI batch: (label, argv, expectation) per invocation."""
    rng = random.Random(f"scan:{seed}")
    z = SCAN_SIZES
    witness_q = rng.randint(2, 40)
    witness_p = rng.randint(1, witness_q)
    counts = [str(10 ** d) for d in z["count_bound_digits"]]
    return [
        ("verify", ["verify", "all", "--max", str(z["verify_max"])], z["verify_max"]),
        ("frobenius", ["frobenius", "--bound", str(10 ** z["frobenius_bound_digits"]), "--list"],
         10 ** z["frobenius_bound_digits"]),
        ("count", ["count", *counts, "--lattice"], len(counts)),
        ("tree", ["tree", "--depth", str(z["tree_depth"])], z["tree_depth"]),
        ("ball", ["ball", "--max-q", str(z["ball_max_q"]), "--format", "svg",
                  "--witness", f"{witness_q},{witness_p}"], z["ball_max_q"]),
        ("theorem1", ["verify", "theorem1", "--samples", str(z["theorem1_samples"]),
                      "--seed", str(seed)], z["theorem1_samples"]),
    ]


class InputStats:
    """Input properties of the operations a run consumed."""

    def __init__(self):
        self.operations = 0
        self.flags: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def add(self, *flags: str):
        """Count one operation having each of the given properties."""
        self.operations += 1
        for flag in flags:
            self.flags[flag] = self.flags.get(flag, 0) + 1

    def high(self, key: str, value: int):
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def report(self) -> dict:
        n = max(self.operations, 1)
        out = {"operations": self.operations}
        for flag, count in sorted(self.flags.items()):
            out[f"{flag}_count"] = count
            out[f"{flag}_share"] = round(count / n, 4)
        return {**out, **dict(sorted(self.maxima.items()))}
