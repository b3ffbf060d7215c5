"""Tests for the stable norm: symmetry group, exact values, real extension."""

import math

import mpmath
import pytest
from hypothesis import given, strategies as st

import oracles
from markovnorm import (
    SYMMETRY_GROUP,
    AccuracyLimitError,
    NormInterval,
    NotHyperbolicError,
    OutOfRangeError,
    PreconditionViolatedError,
    apply_symmetry,
    ball_boundary_sample,
    canonicalize,
    length_from_trace,
    markov_of_slope,
    markov_of_slope_via_trace,
    norm_real,
    stable_norm,
    stable_norm_interval,
)

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


def test_stable_norm_rejects_zero():
    with pytest.raises(PreconditionViolatedError):
        stable_norm((0, 0))
    with pytest.raises(PreconditionViolatedError):
        stable_norm_interval((0, 0))


def test_stable_norm_beyond_float_range_raises():
    # 10**400 does not convert to a float; 1.5e308 does, but its norm
    # 1.5e308 * arccosh(3) does not.
    for v in [(10**400, 0), (15 * 10**307, 15 * 10**307)]:
        for fn in (stable_norm, stable_norm_interval):
            with pytest.raises(AccuracyLimitError, match="float range"):
                fn(v)


def test_length_from_trace():
    with mpmath.workdps(40):
        for t in (3, 6, 15, 39, 87, -3, -87):
            expected = float(2 * mpmath.acosh(mpmath.mpf(abs(t)) / 2))
            assert math.isclose(length_from_trace(t), expected, rel_tol=1e-14)
    for t in (-2, -1, 0, 1, 2):
        with pytest.raises(NotHyperbolicError):
            length_from_trace(t)


def coprime_pairs(max_q, rng):
    while True:
        q = rng.randrange(1, max_q + 1)
        p = rng.randrange(0, q + 1)
        if math.gcd(p, q) == 1:
            return q, p


def test_norm_real_matches_rational_reference():
    import random

    rng = random.Random(7)
    for _ in range(40):
        q, p = coprime_pairs(900, rng)
        iv = norm_real(float(q), float(p), tol=1e-10)
        exact = reference_norm(q, p)
        assert mpmath.mpf(iv.lo) <= exact <= mpmath.mpf(iv.hi)
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
    with pytest.raises(AccuracyLimitError) as info:
        norm_real(1e15, 7e14, tol=1e-12)
    payload = info.value.interval
    assert isinstance(payload, NormInterval)
    exact = reference_norm(10, 7) * 10**14
    assert mpmath.mpf(payload.lo) <= exact <= mpmath.mpf(payload.hi)
    assert payload.hi - payload.lo <= 1e-12 * payload.hi


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


def test_ball_boundary_sample_rejects_bad_bound():
    with pytest.raises(OutOfRangeError):
        ball_boundary_sample(0)
