"""Self-checks for the reference implementations in oracles.py."""

import math

from hypothesis import given, strategies as st

import oracles

int_vectors = st.tuples(
    st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)
).filter(lambda v: v != (0, 0))


def test_brute_force_matches_naive_search():
    assert oracles.brute_force_triples(400) == oracles.naive_triples(400)


def test_brute_force_small_bounds():
    assert oracles.brute_force_triples(0) == []
    assert oracles.brute_force_triples(1) == [(1, 1, 1)]
    assert oracles.brute_force_triples(2) == [(1, 1, 1), (1, 1, 2)]
    assert oracles.brute_force_triples(5) == [(1, 1, 1), (1, 1, 2), (1, 2, 5)]


def test_brute_force_triples_satisfy_cubic():
    for x, y, z in oracles.brute_force_triples(10**3):
        assert x * x + y * y + z * z == 3 * x * y * z
        assert x <= y <= z


def test_vieta_search_matches_brute_force(brute_1e4):
    for bound in (1, 2, 5, 10**4):
        triples = [t for t in brute_1e4 if t[2] <= bound]
        assert oracles.vieta_markov_numbers(bound) == {v for t in triples for v in t}


def test_staircase_word_small_cases():
    # Hand-drawn lattice staircases.
    assert oracles.staircase_word(0, 1) == "a"
    assert oracles.staircase_word(1, 1) == "ab"
    assert oracles.staircase_word(1, 2) == "aab"
    assert oracles.staircase_word(2, 3) == "aabab"
    assert oracles.staircase_word(1, 4) == "aaaab"
    assert oracles.staircase_word(3, 4) == "aababab"


def test_staircase_word_letter_counts():
    for q in range(1, 15):
        for p in range(0, q + 1):
            if math.gcd(p, q) != 1:
                continue
            w = oracles.staircase_word(p, q)
            assert len(w) == p + q
            assert w.count("a") == q
            assert w.count("b") == p


def test_fibonacci_and_pell():
    assert [oracles.fibonacci(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert [oracles.pell(n) for n in range(8)] == [0, 1, 2, 5, 12, 29, 70, 169]


def test_symmetry_group_is_the_closure():
    group = oracles.symmetry_group()
    assert len(group) == 12
    assert {(1, 0, 0, 1), (-1, 0, 0, -1), (0, 1, 1, 0), (0, -1, 1, 1)} <= group
    for g in group:
        assert abs(g[0] * g[3] - g[1] * g[2]) == 1


@given(int_vectors)
def test_canonicalize_lands_in_cone(v):
    w, g = oracles.canonicalize(v)
    assert g in oracles.symmetry_group()
    assert oracles.apply_symmetry(g, v) == w
    assert w[0] > 0 and 0 <= w[1] <= w[0]


@given(int_vectors)
def test_canonicalize_is_orbit_invariant(v):
    w, _ = oracles.canonicalize(v)
    for g in oracles.symmetry_group():
        w2, _ = oracles.canonicalize(oracles.apply_symmetry(g, v))
        assert w2 == w


def test_hull_helpers():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]
    hull = oracles.convex_hull(square)
    assert len(hull) == 4
    assert (0.5, 0.5) not in hull
    assert oracles.dist_to_hull_boundary((0.5, 0.0), hull) == 0.0
    assert math.isclose(oracles.dist_to_hull_boundary((0.5, 0.5), hull), 0.5)
