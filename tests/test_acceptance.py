"""Acceptance gate: nine end-to-end checks at fixed tolerances and budgets.

Each check prints exactly one line, PASS or FAIL, so a `pytest -s` run of
this file reads as a scoreboard.  Frozen numbers come from the independent
reference implementations in oracles.py and from classical identities; the
heavyweight sweeps validate themselves against exact arithmetic on every
range where exact arithmetic is feasible.
"""

import contextlib
import math
import random
import time
from types import SimpleNamespace

import mpmath

import oracles
from markovnorm import (
    SYMMETRY_GROUP,
    CheckResult,
    apply_symmetry,
    ball_boundary_sample,
    canonicalize,
    count_lattice,
    count_triples,
    enumerate_tree,
    fit_constant,
    frobenius_scan,
    markov_numbers_up_to,
    markov_of_slope,
    markov_of_slope_via_trace,
    norm_real,
    stable_norm,
    stable_norm_interval,
    theorem1_check_real,
)
from markovnorm.intervals import iv_ln_int


@contextlib.contextmanager
def gate(number: int, label: str):
    state = SimpleNamespace(detail="")
    t0 = time.perf_counter()
    try:
        yield state
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL", flush=True)
        raise
    dt = time.perf_counter() - t0
    detail = f"{state.detail}, " if state.detail else ""
    print(f"ACCEPTANCE {number} {label}: PASS ({detail}{dt:.1f}s)", flush=True)


def test_criterion_1_anchor_values():
    with gate(1, "anchor-values") as g:
        anchors = [(0, 1, 1), (1, 2, 5), (1, 1, 2)]
        for p, q, expected in anchors:
            assert markov_of_slope(p, q) == expected
            assert markov_of_slope_via_trace(p, q) == expected
        g.detail = "values (1, 5, 2) on both routes"


def test_criterion_2_dual_route_agreement():
    with gate(2, "dual-route-values") as g:
        t0 = time.perf_counter()
        slopes = 0
        for q in range(1, 61):
            for p in range(0, q + 1):
                if math.gcd(p, q) != 1:
                    continue
                assert markov_of_slope(p, q) == markov_of_slope_via_trace(p, q)
                slopes += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        g.detail = f"{slopes} slopes agree"


# --- criterion 3 machinery ------------------------------------------------

def _is_prime(n: int) -> bool:
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sweep_primes(count: int, rng: random.Random) -> list[int]:
    primes = []
    while len(primes) < count:
        c = rng.randrange(2**30 + 1, 2**31, 2)
        if _is_prime(c):
            primes.append(c)
    return primes


def _exact_levels(depth: int):
    """Exact triples per level, left block before right block."""
    level = [(1, 2, 5)]
    yield level
    for _ in range(depth):
        left = [(a, c, 3 * a * c - b) for a, b, c in level]
        right = [(b, c, 3 * b * c - a) for a, b, c in level]
        level = left + right
        yield level


def _exact_path(letters: str):
    t = (1, 2, 5)
    out = [t]
    for ch in letters:
        a, b, c = t
        t = (a, c, 3 * a * c - b) if ch == "L" else (b, c, 3 * b * c - a)
        out.append(t)
    return out


def _mod_cubic_violations(a, b, c, p, np) -> int:
    # Residues lie below p < 2**31, so a*a + b*b + c*c and (a*b % p) * (3*c)
    # both stay below 3 * 2**62 and neither wraps in uint64.
    lhs = (a * a + b * b + c * c) % p
    rhs = (a * b % p) * (3 * c) % p
    return int(np.count_nonzero(lhs != rhs))


def _mod_children(a, b, c, p, np):
    zl = (3 * (a * c % p) % p + p - b) % p
    zr = (3 * (b * c % p) % p + p - a) % p
    cat = np.concatenate
    return cat([a, b]), cat([c, c]), cat([zl, zr])


_LN2 = (math.nextafter(math.log(2.0), 0.0), math.nextafter(math.log(2.0), 1.0))
_LN3 = (math.nextafter(math.log(3.0), 0.0), math.nextafter(math.log(3.0), 2.0))


def _log_state(values, np):
    lo, hi = [], []
    for v in values:
        iv = iv_ln_int(v)
        lo.append(iv[0])
        hi.append(iv[1])
    return np.array(lo), np.array(hi)


# One pass that widens at least as far as four nextafter passes.  With
# 2**e <= |x| < 2**(e+1) and x normal, ulp(x) = 2**(e-52) and |x| 2**-50 =
# 4 ulp(x) |x| / 2**e.  That covers four steps towards zero, each at most
# ulp(x) wide, and four steps away from zero: a step past 2**(e+1) is
# 2 ulp(x) wide, but only when |x| is within 4 ulp(x) of 2**(e+1), where the
# term is almost 8 ulp(x).  For subnormal x the term may round to 0, and
# 2**-1072 is four subnormal steps.  Rounding to nearest is monotone, so no
# rounded result passes the float four steps out; the last nextafter is a
# margin on top.
def _widen_dn(x, np):
    return np.nextafter(x - np.abs(x) * 2.0**-50 - 2.0**-1072, -np.inf)


def _widen_up(x, np):
    return np.nextafter(x + np.abs(x) * 2.0**-50 + 2.0**-1072, np.inf)


def _log_child(lu, lw, lv, np):
    """Enclosure of ln(3uw - v) from enclosures of ln u, ln w, ln v.

    Relies on v < 3uw (true on every child) and widens each libm call by
    at least four ulps; the guard is itself validated against exact logs on
    the shallow levels.
    """
    dn = lambda x: np.nextafter(x, -np.inf)
    up = lambda x: np.nextafter(x, np.inf)

    s_lo = dn(dn(lu[0] + lw[0]) + _LN3[0])
    s_hi = up(up(lu[1] + lw[1]) + _LN3[1])
    r_hi = _widen_up(np.exp(up(lv[1] - s_lo)), np)
    r_lo = np.maximum(_widen_dn(np.exp(dn(lv[0] - s_hi)), np), 0.0)
    assert float(r_hi.max()) < 0.45
    m_lo = _widen_dn(np.log1p(-r_hi), np)
    m_hi = _widen_up(np.log1p(-r_lo), np)
    return dn(s_lo + m_lo), up(s_hi + m_hi)


def _log_children(la, lb, lc, np):
    cat = np.concatenate
    zl = _log_child(la, lc, lb, np)
    zr = _log_child(lb, lc, la, np)
    return (
        (cat([la[0], lb[0]]), cat([la[1], lb[1]])),
        (cat([lc[0], lc[0]]), cat([lc[1], lc[1]])),
        (cat([zl[0], zr[0]]), cat([zl[1], zr[1]])),
    )


def _ordering_violations(la, lb, lc, np) -> int:
    up = lambda x: np.nextafter(x, np.inf)
    dn = lambda x: np.nextafter(x, -np.inf)
    lhs_hi = up(up(la[1] + lb[1]) + _LN3[1])
    rhs_lo = dn(lc[0] + _LN2[0])
    return int(np.count_nonzero(lhs_hi >= rhs_lo))


def test_log_widening_covers_four_nextafter_steps():
    import numpy as np

    def steps(x, direction):
        for _ in range(4):
            x = np.nextafter(x, direction)
        return x

    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2**63, size=200_000, dtype=np.uint64)
    bits |= rng.integers(0, 2, size=bits.size, dtype=np.uint64) << np.uint64(63)
    x = bits.view(np.float64)
    x = np.concatenate([
        x[np.isfinite(x)],
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 2.2250738585072014e-308,
         -2.2250738585072014e-308, 1.0, -1.0, 2.0, -2.0, 1e300, -1e300]])
    assert (_widen_dn(x, np) <= steps(x, -np.inf)).all()
    assert (_widen_up(x, np) >= steps(x, np.inf)).all()
    # Across binade edges, where the steps change width.
    edges = np.ldexp(1.0, np.arange(-1074, 1023))
    for e in (edges, -edges):
        for k in range(-4, 5):
            y = e
            for _ in range(abs(k)):
                y = np.nextafter(y, np.inf if k > 0 else -np.inf)
            assert (_widen_dn(y, np) <= steps(y, -np.inf)).all()
            assert (_widen_up(y, np) >= steps(y, np.inf)).all()


def test_criterion_3_tree_depth_25():
    """Full depth-25 sweep, split into mutually validating passes.

    A single exact pass is physically impossible: level sums of the digit
    counts grow like 3^d, about 10^12 decimal digits in total by depth 25.
    Instead the tree is swept four ways:

      1. exact big integers down to depth 13 (every node, every check);
      2. exact big integers along the extreme and a pseudorandom root-to-
         leaf path all the way to depth 25;
      3. residues modulo four random 31-bit primes for every node to depth
         25, cross-checked against pass 1 on the shared range (a nonzero
         cubic defect survives all four reductions with probability under
         1e-7 across the entire tree);
      4. certified logarithm enclosures for every node to depth 25, which
         prove the strict ordering 3*small*mid < 2*max outright; the
         enclosure widths stay around eight orders of magnitude below the
         log(3/2) margin that the comparison needs.
    """
    import numpy as np

    with gate(3, "tree-depth-25") as g:
        t0 = time.perf_counter()
        depth = 25
        split = 5
        rng = random.Random(20250815)
        primes = _sweep_primes(4, rng)
        marks = [time.perf_counter()]

        # Pass 1: exact arithmetic, all nodes to depth 13.
        exact_levels = []
        for d, level in enumerate(_exact_levels(13)):
            exact_levels.append(level)
            for a, b, c in level:
                assert a * a + b * b + c * c == 3 * a * b * c
                assert a <= b <= c
                assert 3 * a * b < 2 * c
        # The level construction is an independent recurrence; it must
        # reproduce the package's own enumeration node for node.
        by_depth = {}
        for path, t in enumerate_tree(9):
            by_depth.setdefault(len(path), set()).add(tuple(t))
        for d in range(10):
            assert set(exact_levels[d]) == by_depth[d]
            assert len(exact_levels[d]) == 2**d
        marks.append(time.perf_counter())

        # Pass 2: exact arithmetic along deep paths to depth 25.
        deep_paths = {
            "all-left": "L" * depth,
            "all-right": "R" * depth,
            "alternating": ("LR" * depth)[:depth],
            "random": "".join(rng.choice("LR") for _ in range(depth)),
        }
        path_values = {}
        for name, letters in deep_paths.items():
            nodes = _exact_path(letters)
            for a, b, c in nodes:
                assert a * a + b * b + c * c == 3 * a * b * c
                assert 3 * a * b < 2 * c
            path_values[name] = nodes
        marks.append(time.perf_counter())

        # Pass 3 and 4 seeds: the 32 exact subtree roots at depth 5.
        shallow = list(_exact_levels(split))
        roots = shallow[split]
        assert len(roots) == 2**split

        # Shallow end-to-end validation of the vectorized recurrences:
        # residues must match exact values and the log enclosures must
        # contain exact logarithms on every node to depth 13.
        for p in primes:
            a = np.array([1], dtype=np.uint64)
            b = np.array([2], dtype=np.uint64)
            c = np.array([5], dtype=np.uint64)
            for d in range(14):
                exact_mod = np.array(
                    [(x % p, y % p, z % p) for x, y, z in exact_levels[d]],
                    dtype=np.uint64,
                ).T
                assert (a == exact_mod[0]).all()
                assert (b == exact_mod[1]).all()
                assert (c == exact_mod[2]).all()
                assert _mod_cubic_violations(a, b, c, p, np) == 0
                if d < 13:
                    a, b, c = _mod_children(a, b, c, p, np)
        la = _log_state([1], np)
        lb = _log_state([2], np)
        lc = _log_state([5], np)
        with mpmath.workdps(40):
            for d in range(14):
                sample = range(len(exact_levels[d]))
                if d > 6:
                    sample = rng.sample(sample, 20)
                for i in sample:
                    x, y, z = exact_levels[d][i]
                    for iv, v in ((la, x), (lb, y), (lc, z)):
                        exact_log = mpmath.log(mpmath.mpf(v))
                        assert iv[0][i] <= exact_log <= iv[1][i]
                assert _ordering_violations(la, lb, lc, np) == 0
                if d < 13:
                    la, lb, lc = _log_children(la, lb, lc, np)
        marks.append(time.perf_counter())

        # Pass 3: modular cubic residues, every node to depth 25.
        checked = sum(2**d for d in range(split))
        left_path = path_values["all-left"]
        right_path = path_values["all-right"]
        for p in primes:
            for idx, root in enumerate(roots):
                a = np.array([root[0] % p], dtype=np.uint64)
                b = np.array([root[1] % p], dtype=np.uint64)
                c = np.array([root[2] % p], dtype=np.uint64)
                for d in range(split, depth + 1):
                    assert _mod_cubic_violations(a, b, c, p, np) == 0
                    if idx == 0:
                        x, y, z = left_path[d]
                        assert (int(a[0]), int(b[0]), int(c[0])) == (
                            x % p, y % p, z % p)
                    if idx == len(roots) - 1:
                        x, y, z = right_path[d]
                        assert (int(a[-1]), int(b[-1]), int(c[-1])) == (
                            x % p, y % p, z % p)
                    if p == primes[0]:
                        checked += len(a)
                    if d < depth:
                        a, b, c = _mod_children(a, b, c, p, np)
        assert checked == 2 ** (depth + 1) - 1
        marks.append(time.perf_counter())

        # Pass 4: certified log enclosures, every node to depth 25.
        max_width = 0.0
        with mpmath.workdps(60):
            left_log_25 = mpmath.log(mpmath.mpf(left_path[depth][2]))
            right_log_25 = mpmath.log(mpmath.mpf(right_path[depth][2]))
        for idx, root in enumerate(roots):
            la = _log_state([root[0]], np)
            lb = _log_state([root[1]], np)
            lc = _log_state([root[2]], np)
            for d in range(split, depth + 1):
                assert _ordering_violations(la, lb, lc, np) == 0
                if d < depth:
                    la, lb, lc = _log_children(la, lb, lc, np)
            max_width = max(max_width, float((lc[1] - lc[0]).max()))
            if idx == 0:
                assert lc[0][0] <= left_log_25 <= lc[1][0]
            if idx == len(roots) - 1:
                assert lc[0][-1] <= right_log_25 <= lc[1][-1]
        # The deepest logs have magnitude near 1e5, so a few hundred ulps
        # of outward rounding come to a few 1e-9; the ordering margin the
        # enclosures must resolve is log(3/2), eight orders larger.
        assert max_width < 1e-6
        marks.append(time.perf_counter())

        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        passes = "/".join(f"{b - a:.1f}" for a, b in zip(marks, marks[1:]))
        g.detail = (
            f"{checked} nodes, exact to depth 13, 4 primes, "
            f"max log width {max_width:.1e}, "
            f"passes 1/2/shallow check/3/4 {passes}s")


def test_criterion_4_monotonicity_families():
    from markovnorm import verify_family

    with gate(4, "monotonicity-families") as g:
        t0 = time.perf_counter()
        totals = []
        for family in ("numerator", "denominator", "sum"):
            rep = verify_family(family, 300)
            assert rep.verified, f"{family}: {rep.violations[:3]}"
            assert rep.violations == ()
            totals.append(rep.cases)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        g.detail = f"cases {totals[0]}+{totals[1]}+{totals[2]}, 0 violations"


def test_criterion_5_frobenius_uniqueness(brute_1e4):
    with gate(5, "frobenius-uniqueness") as g:
        t0 = time.perf_counter()
        assert frobenius_scan(10**30) == []
        values = markov_numbers_up_to(10**3)
        brute_values = sorted(
            {v for t in oracles.brute_force_triples(10**3) for v in t})
        assert values == brute_values
        assert len(values) == 13
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        g.detail = "no duplicates to 1e30, 13 values below 1e3"


def _mp_norm_bounds(v, dps):
    """High precision bounds on the stable norm of an integer vector."""
    w, _ = canonicalize(v)
    g = math.gcd(w[0], w[1])
    m = markov_of_slope(w[1] // g, w[0] // g)
    with mpmath.workdps(dps):
        val = g * mpmath.acosh(mpmath.mpf(3 * m) / 2)
        slack = mpmath.mpf(10) ** (8 - dps) * val
        return val - slack, val + slack


def _mp_strict_triangle(u, v, dps=80):
    s = (u[0] + v[0], u[1] + v[1])
    nu_lo, _ = _mp_norm_bounds(u, dps)
    nv_lo, _ = _mp_norm_bounds(v, dps)
    _, ns_hi = _mp_norm_bounds(s, dps)
    return ns_hi < nu_lo + nv_lo


def test_criterion_6_norm_axioms():
    with gate(6, "norm-axioms") as g:
        rng = random.Random(6)

        cases = 0
        while cases < 100:
            v = (rng.randint(-50, 50), rng.randint(-50, 50))
            if v == (0, 0):
                continue
            k = rng.randint(1, 20)
            lhs = stable_norm((k * v[0], k * v[1]))
            rhs = k * stable_norm(v)
            assert abs(lhs - rhs) <= 1e-12 * rhs
            cases += 1

        # The triangle inequality is strict for non-parallel vectors, but
        # for sums of Farey-adjacent directions the margin decays roughly
        # like 1/(m_u * m_v), which drops below double precision interval
        # widths.  Those pairs escalate to 80 digit interval evaluation,
        # which still certifies strictness by disjoint intervals.
        pairs = strict_float = 0
        while pairs < 100:
            u = (rng.randint(-30, 30), rng.randint(-30, 30))
            v = (rng.randint(-30, 30), rng.randint(-30, 30))
            if u == (0, 0) or v == (0, 0) or u[0] * v[1] == u[1] * v[0]:
                continue
            nu = stable_norm_interval(u)
            nv = stable_norm_interval(v)
            ns = stable_norm_interval((u[0] + v[0], u[1] + v[1]))
            assert ns.lo <= nu.hi + nv.hi + 1e-12
            if ns.hi < nu.lo + nv.lo - 1e-12:
                strict_float += 1
            else:
                assert _mp_strict_triangle(u, v), (u, v)
            pairs += 1

        orbits = 0
        for a in range(-40, 41):
            for b in range(-40, 41):
                if (a, b) == (0, 0) or math.gcd(abs(a), abs(b)) != 1:
                    continue
                w, _ = canonicalize((a, b))
                # Same canonical slope means the same Markov number exactly,
                # hence the same norm value for every image of the vector.
                m = markov_of_slope(w[1], w[0])
                assert m >= 1
                for gmat in SYMMETRY_GROUP:
                    w2, _ = canonicalize(apply_symmetry(gmat, (a, b)))
                    assert w2 == w
                orbits += 1
        g.detail = (
            f"homogeneity 100, triangle 100 strict ({strict_float} at "
            f"float precision), symmetry {orbits} vectors x12")


def test_criterion_7_real_norm_and_theorem1():
    with gate(7, "real-norm-and-theorem1") as g:
        t0 = time.perf_counter()
        rng = random.Random(7)

        directions = 0
        while directions < 100:
            q = rng.randint(1, 3000) if rng.random() < 0.5 else rng.randint(1, 400)
            p = rng.randint(0, q)
            if math.gcd(p, q) != 1:
                continue
            iv = norm_real(float(q), float(p), tol=1e-9)
            assert iv.hi - iv.lo <= 1e-9
            m = markov_of_slope(p, q)
            exact = oracles.mp_norm_of_markov(m, dps=40 + q)
            assert mpmath.mpf(iv.lo) <= exact <= mpmath.mpf(iv.hi)
            directions += 1

        per_part = 1000
        for part in (1, 2, 3):
            done = 0
            while done < per_part:
                q = rng.uniform(0.5, 60.0)
                p = rng.uniform(0.0, q * 0.999)
                if part == 3:
                    if p < 0.01:
                        continue
                    i = rng.uniform(1e-3, p)
                else:
                    i = rng.uniform(1e-3, 30.0)
                result = theorem1_check_real(q, p, i, parts=(part,))
                assert result is CheckResult.CERTIFIED
                done += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        g.detail = "100 rational directions at 1e-9, 3x1000 tuples certified"


def test_criterion_8_counting(brute_1e4):
    with gate(8, "counting") as g:
        t0 = time.perf_counter()
        for bound in (1, 2, 5, 100, 2000, 10**4):
            expected = sum(1 for t in brute_1e4 if t[2] <= bound)
            assert count_triples(bound) == expected
        assert count_triples(10**4) == 21

        offsets = {count_lattice(r) - count_triples(r)
                   for r in (10**2, 10**4, 10**8)}
        assert len(offsets) == 1

        points = fit_constant([10**9, 10**12])
        drift = abs(points[1].c_estimate - points[0].c_estimate)
        assert drift / points[0].c_estimate < 0.25
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        g.detail = (
            f"21 solutions at 1e4, offset {offsets.pop()}, "
            f"drift {100 * drift / points[0].c_estimate:.1f}%")


def test_criterion_9_ball_convexity():
    with gate(9, "ball-convexity") as g:
        pts = ball_boundary_sample(30)
        hull = oracles.convex_hull(pts)
        worst = max(oracles.dist_to_hull_boundary(pt, hull) for pt in pts)
        assert worst <= 1e-9
        angles = [math.atan2(y, x) for x, y in pts]
        assert angles == sorted(angles)
        g.detail = f"{len(pts)} points, max hull distance {worst:.1e}"
