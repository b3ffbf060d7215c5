"""Tests for the stable norm: symmetry group, exact values, real extension."""

import importlib.util
import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, strategies as st

import markovnorm.intervals
import markovnorm.norm
import oracles
from markovnorm import (
    SYMMETRY_GROUP,
    AccuracyLimitError,
    NormInterval,
    OutOfRangeError,
    PreconditionViolatedError,
    Slope,
    apply_symmetry,
    ball_boundary_sample,
    canonicalize,
    markov_of_slope_via_trace,
    markov_table,
    norm_real,
    stable_norm,
    stable_norm_interval,
)
from markovnorm.intervals import (
    _LOG_TAIL,
    iv_acosh_half_int,
    iv_acosh_minus_log,
    iv_add,
    iv_ln_int,
    iv_ln_ratio,
    iv_mul,
    iv_sub,
)
from markovnorm.norm import (
    _SMALL_STEPS,
    _SMALL_TRACES,
    _TRACE_BITS,
    _ball_cone,
    _ball_sectors,
    _iv_from_int_pow2,
    _norm_parts,
    _reduced,
)
from markovnorm.triples import _walk_values

int_vectors = st.tuples(
    st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)
).filter(lambda v: v != (0, 0))


def mat_mul(g, h):
    a, b, c, d = g
    e, f, i, j = h
    return (a * e + b * i, a * f + b * j, c * e + d * i, c * f + d * j)


def reference_norm(q: int, p: int, dps: int = 60):
    """g * acosh(3m/2) recomputed from scratch for a canonical slope."""
    g = math.gcd(q, p)
    m = markov_of_slope_via_trace(p // g, q // g)
    return oracles.mp_norm_of_markov(m, scale=g, dps=dps)


def test_group_order_and_contents():
    assert len(SYMMETRY_GROUP) == 12
    assert (1, 0, 0, 1) in SYMMETRY_GROUP
    assert (-1, 0, 0, -1) in SYMMETRY_GROUP
    assert (0, 1, 1, 0) in SYMMETRY_GROUP


def test_group_is_closed_and_unimodular():
    for g in SYMMETRY_GROUP:
        assert abs(g[0] * g[3] - g[1] * g[2]) == 1
        for h in SYMMETRY_GROUP:
            assert mat_mul(g, h) in SYMMETRY_GROUP


@given(int_vectors)
def test_canonicalize_lands_in_cone(v):
    w, g = canonicalize(v)
    assert g in SYMMETRY_GROUP
    assert apply_symmetry(g, v) == w
    assert w[0] > 0 and 0 <= w[1] <= w[0]


@given(int_vectors)
def test_canonicalize_is_orbit_invariant(v):
    w, _ = canonicalize(v)
    for g in SYMMETRY_GROUP:
        w2, _ = canonicalize(apply_symmetry(g, v))
        assert w2 == w


def test_canonicalize_rejects_zero():
    with pytest.raises(PreconditionViolatedError):
        canonicalize((0, 0))


def test_stable_norm_anchor_values():
    with mpmath.workdps(40):
        assert math.isclose(
            stable_norm((1, 0)), float(oracles.mp_acosh_half(3)), rel_tol=1e-15)
        assert math.isclose(
            stable_norm((1, 1)), float(oracles.mp_acosh_half(6)), rel_tol=1e-15)
        assert math.isclose(
            stable_norm((2, 1)), float(oracles.mp_acosh_half(15)), rel_tol=1e-15)
        assert math.isclose(
            stable_norm((3, 2)), float(oracles.mp_acosh_half(87)), rel_tol=1e-15)


def test_stable_norm_of_unit_vector_is_two_log_phi():
    assert math.isclose(stable_norm((1, 0)), 0.9624236501192069, rel_tol=1e-15)


@given(int_vectors)
def test_stable_norm_symmetry_invariance(v):
    n = stable_norm(v)
    for g in SYMMETRY_GROUP:
        assert stable_norm(apply_symmetry(g, v)) == n


@given(
    st.tuples(st.integers(-80, 80), st.integers(-80, 80)).filter(lambda v: v != (0, 0)),
    st.integers(1, 50),
)
def test_stable_norm_homogeneity(v, k):
    scaled = (k * v[0], k * v[1])
    a, b = stable_norm(scaled), k * stable_norm(v)
    assert math.isclose(a, b, rel_tol=1e-13)


@given(
    st.tuples(st.integers(-200, 200), st.integers(-200, 200)).filter(
        lambda v: v != (0, 0)
    )
)
def test_stable_norm_interval_contains_reference(v):
    lo, hi = stable_norm_interval(v)
    # canonicalize handles signs; recompute through the slope directly.
    w, _ = canonicalize(v)
    exact = reference_norm(w[0], w[1])
    assert mpmath.mpf(lo) <= exact <= mpmath.mpf(hi)
    assert hi - lo <= 1e-12 * hi


def test_stable_norm_interval_brackets_float_value():
    for v in [(1, 0), (5, 3), (144, 89), (1000, 1)]:
        lo, hi = stable_norm_interval(v)
        assert lo <= stable_norm(v) <= hi


def test_stable_norm_interval_is_the_scaled_reference():
    # stable_norm_interval reads the small traces from _SMALL_TRACES; its
    # enclosure is still bit for bit g times iv_acosh_half_int(3m).
    for x in range(-40, 41):
        for y in range(-40, 41):
            if (x, y) != (0, 0):
                g, p, q = _reduced((x, y))
                n = iv_acosh_half_int(3 * markov_of_slope_via_trace(p, q))
                expected = NormInterval(*iv_mul(n, _iv_from_int_pow2(g, 0)))
                assert stable_norm_interval((x, y)) == expected, (x, y)


def test_stable_norm_rejects_zero():
    with pytest.raises(PreconditionViolatedError):
        stable_norm((0, 0))
    with pytest.raises(PreconditionViolatedError):
        stable_norm_interval((0, 0))


def _reduced_by_the_group(v):
    """_reduced's (g, p, q) from canonicalize's trials of the 12 elements."""
    (q, p), _ = canonicalize(v)
    g = math.gcd(q, p)
    return g, p // g, q // g


def test_reduced_reads_the_cone_image_off_the_forms():
    box = [(x, y) for x in range(-40, 41) for y in range(-40, 41) if (x, y) != (0, 0)]
    rng = random.Random(2024)
    wide = [(rng.randrange(-2**200, 2**200), rng.randrange(-2**200, 2**200))
            for _ in range(500)]
    for v in box + [v for v in wide if v != (0, 0)]:
        assert _reduced(v) == _reduced_by_the_group(v), v


def test_zero_direction_errors_keep_their_types_and_messages():
    cases = [(stable_norm, ((0, 0),), "cannot canonicalize the zero vector"),
             (stable_norm_interval, ((0, 0),), "cannot canonicalize the zero vector"),
             (norm_real, (0.0, 0.0), "the norm direction must be nonzero"),
             (norm_real, (-0.0, 0.0), "the norm direction must be nonzero")]
    for fn, args, message in cases:
        with pytest.raises(PreconditionViolatedError) as info:
            fn(*args)
        assert info.type is PreconditionViolatedError
        assert str(info.value) == message


def test_traces_past_the_table_have_the_constant_tail():
    # norm_real reads h = arccosh(t/2) - ln t of the outer point from
    # _SMALL_TRACES or, past it, as _LOG_TAIL without a logarithm.
    traces = [3 * m for _, _, m in _walk_values(10**60)]
    small = [t for t in traces if t < 2**31]
    assert len(_SMALL_TRACES) == 85 and sorted(_SMALL_TRACES) == sorted(small)
    for t in traces:
        if t not in _SMALL_TRACES:
            assert _norm_parts(t)[1] == iv_acosh_minus_log(iv_ln_int(t)) == _LOG_TAIL


def test_stable_norm_interval_refuses_huge_denominators(deadline):
    # m(1/q) has about 1.4 q bits; past q = 2**18 the exact route refuses
    # up front and points to the real-point route.
    for v in [(2**18 + 1, 1), (123456789012345678901234567890, 3)]:
        with deadline(5), pytest.raises(AccuracyLimitError, match="norm_real"):
            stable_norm_interval(v)


def test_stable_norm_beyond_float_range_raises():
    # 10**400 does not convert to a float; 1.5e308 does, but its norm
    # 1.5e308 * arccosh(3) does not.
    for v in [(10**400, 0), (15 * 10**307, 15 * 10**307)]:
        for fn in (stable_norm, stable_norm_interval):
            with pytest.raises(AccuracyLimitError, match="float range"):
                fn(v)


def test_norm_real_beyond_float_range_raises():
    # Both norms pass 1.8e308: the exact direction (1, 1) at any tol, and a
    # sandwiched direction after its descent.
    for x, y, tol in [(1.7e308, 1.7e308, 1e-9), (1.7e308, 1.7e308, math.inf),
                      (1.7e308, 1.6e308, 1e-9)]:
        with pytest.raises(AccuracyLimitError, match="float range") as info:
            norm_real(x, y, tol=tol)
        assert info.value.interval is None


def test_norm_real_beyond_float_range_raises_before_the_descent(monkeypatch):
    runs = []
    real = markovnorm.norm._recurrence_run
    monkeypatch.setattr(markovnorm.norm, "_recurrence_run",
                        lambda *args: runs.append(args) or real(*args))
    with pytest.raises(AccuracyLimitError, match="float range"):
        norm_real(1.7e308, 1.6e308)
    assert runs == []
    norm_real(1.7, 1.6)  # the same direction in range does descend
    assert runs


@given(st.integers(min_value=-(2**200), max_value=2**200), st.integers(-60, 60))
def test_from_int_contains_and_is_tight(n, e):
    lo, hi = _iv_from_int_pow2(n, e)
    exact = n * Fraction(2) ** e
    assert Fraction(lo) <= exact <= Fraction(hi)
    if abs(n) < 2**53:
        assert lo == hi
    else:
        # Truncation to 53 bits: the bounds are one unit of the 53rd bit apart.
        assert hi - lo <= 2.0**-52 * abs(lo)


def test_from_int_past_the_float_range_raises():
    # math.ldexp raises rather than return inf, and _lattice_norm catches it.
    for n in (2**1024, (2**53 - 1) << 971):
        with pytest.raises(OverflowError):
            _iv_from_int_pow2(n, 0)


@given(st.integers(min_value=-(2**60), max_value=2**60).filter(bool),
       st.integers(-1200, -1000))
def test_from_int_in_the_subnormal_range_keeps_its_sign(n, e):
    # The sandwich's factors are such enclosures of positive integers, and
    # its lower bounds take their lower ends to be nonnegative.
    lo, hi = _iv_from_int_pow2(n, e)
    exact = n * Fraction(2) ** e
    assert Fraction(lo) <= exact <= Fraction(hi)
    assert lo >= 0.0 if n > 0 else hi <= 0.0


def coprime_pairs(max_q, rng):
    while True:
        q = rng.randrange(1, max_q + 1)
        p = rng.randrange(0, q + 1)
        if math.gcd(p, q) == 1:
            return q, p


def test_norm_real_matches_rational_reference():
    import random

    rng = random.Random(7)
    points = [coprime_pairs(900, rng) for _ in range(40)]
    # Past the exact-direction cutoff of 512 these directions take long runs
    # at one end of the Stern-Brocot path.
    points += [(q, p) for q in range(513, 2048) for p in (1, 2, q - 2, q - 1)]
    for q, p in points:
        iv = norm_real(float(q), float(p), tol=1e-10)
        exact = reference_norm(q, p)
        assert mpmath.mpf(iv.lo) <= exact <= mpmath.mpf(iv.hi), (q, p)
        assert iv.hi - iv.lo <= 1e-10


def test_norm_real_tolerance_nesting():
    loose = norm_real(617.0, 121.0, tol=1e-6)
    tight = norm_real(617.0, 121.0, tol=1e-11)
    assert loose.lo <= tight.lo and tight.hi <= loose.hi
    assert tight.hi - tight.lo <= 1e-11


def test_norm_real_scales_exactly_by_powers_of_two():
    base = norm_real(881.0, 399.0, tol=1e-10)
    scaled = norm_real(881.0 * 2**40, 399.0 * 2**40, tol=1e-10 * 2**40)
    assert scaled.lo == base.lo * 2**40 or abs(scaled.lo - base.lo * 2**40) <= 2 * math.ulp(scaled.lo)
    assert abs(scaled.hi - base.hi * 2**40) <= 2 * math.ulp(scaled.hi)


def test_norm_real_swap_symmetry():
    a = norm_real(0.375, 0.8125, tol=1e-11)
    b = norm_real(0.8125, 0.375, tol=1e-11)
    assert a == b


def test_norm_real_negative_coordinates():
    # Negation and swap are symmetries; a lone sign flip is not, since
    # the invariance group contains no pure coordinate reflection.
    a = norm_real(-5.5, -2.25, tol=1e-11)
    b = norm_real(5.5, 2.25, tol=1e-11)
    assert a == b
    flipped = norm_real(-5.5, 2.25, tol=1e-11)
    assert flipped.hi < b.lo
    # (-5.5, 2.25) = (-22, 9)/4, so the certified integer route must agree.
    ref = stable_norm_interval((-22, 9))
    assert flipped.lo <= ref.hi / 4 and ref.lo / 4 <= flipped.hi


def test_norm_real_irrational_direction():
    # Inverse golden ratio: the direction of slowest continued fraction
    # convergence, which maximises the number of sandwich substeps.
    x = 1.0
    y = (math.sqrt(5.0) - 1.0) / 2.0
    iv = norm_real(x, y, tol=1e-10)
    assert iv.hi - iv.lo <= 1e-10
    assert 0.9 < iv.lo < iv.hi < 2.2


def test_norm_real_extreme_aspect_ratio():
    iv = norm_real(1e300, 1.0, tol=1e288)
    assert iv.lo > 0.0
    assert iv.hi - iv.lo <= 1e288
    assert math.isclose(iv.mid, 1e300 * 0.9624236501192069, rel_tol=1e-10)


def test_norm_real_input_validation():
    for bad in [(0.0, 0.0), (float("nan"), 1.0), (float("inf"), 1.0)]:
        with pytest.raises(PreconditionViolatedError):
            norm_real(*bad)
    with pytest.raises(PreconditionViolatedError):
        norm_real(1.0, 0.5, tol=1e-13)
    with pytest.raises(PreconditionViolatedError):
        norm_real(1.0, 0.5, tol=0.0)


def test_norm_real_accuracy_limit_carries_payload():
    # An absolute tolerance far below the value's own rounding floor is
    # unreachable; the failure must still report a valid enclosure.
    with pytest.raises(AccuracyLimitError, match="^exact direction;") as info:
        norm_real(1e15, 7e14, tol=1e-12)
    payload = info.value.interval
    assert isinstance(payload, NormInterval)
    exact = reference_norm(10, 7) * 10**14
    assert mpmath.mpf(payload.lo) <= exact <= mpmath.mpf(payload.hi)
    assert payload.hi - payload.lo <= 1e-12 * payload.hi


def _exit_counters(message: str, reason: str):
    found = re.match(rf"{reason}: (\d+) substeps, (\d+)-bit trace; width ", message)
    assert found, message
    return int(found[1]), int(found[2])


def test_norm_real_trace_bound_exit(deadline):
    # Along this balanced path the exact traces double at every substep;
    # without a bound on their size the descent never returned.
    with deadline(5), pytest.raises(AccuracyLimitError) as info:
        norm_real(870.319518530656, 857.9951066621662, tol=1e-12)
    substeps, bits = _exit_counters(str(info.value), "trace bound")
    assert bits <= _TRACE_BITS and substeps < _TRACE_BITS
    payload = info.value.interval
    assert 1e-12 < payload.width < 1e-10 and payload.lo > 1500.0


def test_norm_real_unreachable_tol_exits_at_trace_bound(deadline):
    # tol = 0.1 is below the ulp of a value near 1e15, so no descent can meet
    # it; along the axis the traces grow slowest, and the bound still ends
    # the walk at once.
    with deadline(5), pytest.raises(AccuracyLimitError) as info:
        norm_real(1e15, 1.0, tol=0.1)
    _, bits = _exit_counters(str(info.value), "trace bound")
    assert bits <= _TRACE_BITS
    assert info.value.interval.lo > 9e14


def test_norm_real_exact_hit_exit():
    # Direction 1/600, past the exact-direction cutoff: one run of 598 moves
    # lands the mediant on it.  tol is below the ulp of the value, so the
    # exit raises with the exact enclosure, rescaled, as its payload.
    with pytest.raises(AccuracyLimitError) as info:
        norm_real(614400.0, 1024.0, tol=1e-12)
    assert _exit_counters(str(info.value), "exact hit") == (598, 835)
    payload, exact = info.value.interval, stable_norm_interval((614400, 1024))
    assert payload.lo <= exact.hi and exact.lo <= payload.hi
    ulp = math.ulp(exact.lo)
    assert exact.lo - ulp <= payload.lo and payload.hi <= exact.hi + ulp


def test_small_trace_table_holds_the_computed_parts():
    markov = oracles.vieta_markov_numbers((2**31 - 1) // 3)
    assert set(_SMALL_TRACES) == {3 * m for m in markov}
    for t, (n, h) in _SMALL_TRACES.items():
        u = iv_ln_int(t)
        assert h == iv_acosh_minus_log(u)
        assert n == iv_add(u, h) == iv_acosh_half_int(t)


def seed1_norm_points(count, strata=(1, 2)):
    """The first count points of the norm-real workload at seed 1 in strata."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    points = ((x, y, tol) for x, y, tol, stratum, _ in workloads.norm_points(1)
              if stratum in strata)
    return list(itertools.islice(points, count))


def test_small_step_table_holds_the_computed_steps():
    # Every move to a trace 3m1 < 2**31 comes from a node m1 and one of its
    # Farey parents m0, the two smaller entries of its triple.
    h_of = lambda m: iv_acosh_minus_log(iv_ln_int(3 * m))
    triples = oracles.vieta_markov_triples((2**31 - 1) // 3)
    assert set(_SMALL_STEPS) == {(c, m0) for a, b, c in triples if c > 2
                                 for m0 in (a, b)}
    assert len(_SMALL_STEPS) == 166
    for (m1, m0), (n1, d1) in _SMALL_STEPS.items():
        assert n1 == iv_acosh_half_int(3 * m1)
        assert d1 == iv_add(iv_ln_ratio(m1, m0), iv_sub(h_of(m1), h_of(m0)))


def _outcome(x, y, tol):
    try:
        return norm_real(x, y, tol)
    except AccuracyLimitError as ex:
        return str(ex), ex.interval


def test_norm_real_is_the_same_without_the_step_table(monkeypatch):
    # The table only saves work: every enclosure and every error, message
    # and payload included, is bit for bit the one computed move by move.
    points = seed1_norm_points(500, strata=(1, 2, 3, 4))
    ratios = []
    monkeypatch.setattr(markovnorm.norm, "iv_ln_ratio",
                        lambda a, b: ratios.append(a) or iv_ln_ratio(a, b))
    with_table = [_outcome(*point) for point in points]
    served = len(ratios)
    monkeypatch.setattr(markovnorm.norm, "_SMALL_STEPS", {})
    without_table = [_outcome(*point) for point in points]
    assert len(ratios) - served > 2 * served  # most moves come from the table
    assert not all(isinstance(o, NormInterval) for o in with_table)  # stratum 3
    assert [repr(o) for o in with_table] == [repr(o) for o in without_table]


def test_norm_real_moves_take_h_of_their_own_traces(monkeypatch):
    # Each move of a bracket end sets the outer secant's N1 - N0 to
    # ln(m1 / m0) + (h1 - h0), with h = arccosh(3m/2) - ln 3m.  A wrong h
    # keeps every enclosure valid but loosens it, so only h itself shows it.
    # With _SMALL_STEPS emptied every move computes its h, so small traces
    # are spied on as well as large ones.
    monkeypatch.setattr(markovnorm.norm, "_SMALL_STEPS", {})
    moves, pending = [], []
    real_ratio, real_sub = markovnorm.norm.iv_ln_ratio, markovnorm.norm.iv_sub

    def ratio(m1, m0):
        pending.append((m1, m0))
        return real_ratio(m1, m0)

    def sub(a, b):
        if pending:  # the iv_sub(h1, h0) right after iv_ln_ratio(m1, m0)
            moves.append((*pending.pop(), a, b))
        return real_sub(a, b)

    monkeypatch.setattr(markovnorm.norm, "iv_ln_ratio", ratio)
    monkeypatch.setattr(markovnorm.norm, "iv_sub", sub)
    for x, y, tol in seed1_norm_points(300):
        norm_real(x, y, tol)
    h_of = lambda m: iv_acosh_minus_log(iv_ln_int(3 * m))
    assert len(moves) > 500
    assert any(3 * m0 in _SMALL_TRACES for _, m0, _, _ in moves)
    assert any(3 * m0 not in _SMALL_TRACES for _, m0, _, _ in moves)
    for m1, m0, h1, h0 in moves:
        assert (h1, h0) == (h_of(m1), h_of(m0)), (m1, m0)


def test_norm_real_runs_no_exp(monkeypatch):
    # Small traces come from the table and larger ones take the closed-form
    # tail, so after import no exit of norm_real, and no stable_norm_interval,
    # reaches the exp/sqrt/log1p chain.
    def forbidden(*args):
        raise AssertionError("iv_exp reached")

    monkeypatch.setattr(markovnorm.intervals, "iv_exp", forbidden)
    for x, y, tol in [
        (-47.36789738563079, -15.784498631045103, 1e-12),  # sandwich, long runs
        (870.319518530656, 857.9951066621662, 1e-10),  # sandwich, balanced path
        (3.0, 2.0, 1e-12),  # exact direction 2/3, a table trace
        (1.0, 1 / 512, 1e-9),  # exact direction 1/512, a 713-bit trace
    ]:
        assert norm_real(x, y, tol).width <= tol
    for x, y, tol, exit_name in [
        (614400.0, 1024.0, 1e-12, "exact hit"),
        (1e15, 1.0, 0.1, "trace bound"),
    ]:
        with pytest.raises(AccuracyLimitError, match=f"^{exit_name}"):
            norm_real(x, y, tol)
    for v in [(3, 2), (1, 1), (1, 0)]:
        stable_norm_interval(v)


@pytest.mark.parametrize("x, y", [
    # Points where the enclosure narrows slowly for many checks in a row
    # before it reaches the tolerance.
    (-52.944693615019105, -52.71821236313424),
    (58.402155658509116, -29.085428275966624),
    (-41.547292298262164, -0.14409430298017867),
    # Points inside long runs.  Were N - N(O) taken as the difference of two
    # norm enclosures, the outer-secant rounding would grow along the run
    # and the narrowest enclosure would come early, before the run's end.
    (22.033435975606608, -4.405641719139027),
    (35.26320495339756, 21.157301109527367),
    (-47.36789738563079, -15.784498631045103),
])
def test_norm_real_certifies_at_the_smallest_tol(x, y):
    iv = norm_real(x, y, tol=1e-12)
    assert iv.hi - iv.lo <= 1e-12
    loose = norm_real(x, y, tol=1e-6)
    assert loose.lo <= iv.lo <= iv.hi <= loose.hi


def test_norm_interval_properties():
    iv = NormInterval(1.0, 1.5)
    assert iv.width == 0.5
    assert iv.mid == 1.25


def test_ball_boundary_sample_smallest():
    pts = ball_boundary_sample(1)
    assert len(pts) == 12
    angles = [math.atan2(y, x) for x, y in pts]
    assert angles == sorted(angles)
    r0 = 1.0 / 0.9624236501192069
    assert any(math.isclose(x, r0, rel_tol=1e-12) and abs(y) < 1e-15 for x, y in pts)


def test_ball_boundary_sample_points_have_unit_norm():
    pts = ball_boundary_sample(6)
    for x, y in pts[::5]:
        iv = norm_real(x, y, tol=1e-9)
        assert iv.lo <= 1.0 + 1e-9 and iv.hi >= 1.0 - 1e-9


def test_ball_boundary_sample_is_nearly_convex():
    pts = ball_boundary_sample(8)
    hull = oracles.convex_hull(pts)
    for pt in pts:
        assert oracles.dist_to_hull_boundary(pt, hull) <= 1e-9


def test_ball_boundary_sample_matches_stable_norm_orbits():
    for max_q in (1, 2, 7, 25, 60):
        seen = {}
        for q in range(1, max_q + 1):
            for p in range(q + 1):
                if math.gcd(p, q) == 1:
                    n = stable_norm((q, p))
                    for g in SYMMETRY_GROUP:
                        w = apply_symmetry(g, (q, p))
                        seen[w] = (w[0] / n, w[1] / n)
        expected = [seen[w] for w in sorted(seen, key=lambda w: math.atan2(w[1], w[0]))]
        assert ball_boundary_sample(max_q) == expected


def test_ball_boundary_sample_rejects_bad_bound():
    with pytest.raises(OutOfRangeError):
        ball_boundary_sample(0)


@pytest.mark.parametrize("max_q", [1, 2, 5, 40])
@pytest.mark.parametrize("fmt", [float, repr, "%.10f".__mod__],
                         ids=["float", "repr", "fixed"])
def test_ball_sectors_take_the_negative_half_by_sign(max_q, fmt):
    # -I = r**3 is in the group, so sector i + 6 is sector i negated; only
    # the three rows (1, 0), (0, 1), (1, 1) are formatted, once per point.
    calls = []

    def counted(v):
        calls.append(v)
        return fmt(v)

    cone = _ball_cone(max_q)
    sectors = [list(s) for s in _ball_sectors(cone, counted)]
    assert len(calls) == 3 * len(cone)
    zero = fmt(0.0)
    zeros = 0
    for low, high in zip(sectors[:6], sectors[6:]):
        assert len(low) == len(high)
        for pt, mirror in zip(low, high):
            for a, b in zip(pt, mirror):
                if float(a) == 0.0:  # (1, 0) under the rows (0, -1), (0, 1)
                    assert repr(a) == repr(b) == repr(zero)
                    zeros += 1
                else:
                    assert repr(a) == repr(fmt(-float(b)))
    # (1, 0) ends the sectors of det -1; in 1, 5, 7 and 11 it lands on an axis
    assert zeros == 2


def test_markov_table_keys_are_slopes():
    table = markov_table(30)
    for key, m in table.items():
        p, q = key
        assert type(key) is Slope and key._fields == ("p", "q")
        assert key == Slope(p, q) and repr(key) == repr(Slope(p, q))
        assert (key.p, key.q) == (p, q)
