"""Tests for exact triple arithmetic and the tree walk."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

import markovnorm.triples as triples
import oracles
from markovnorm import (
    BINARY_ROOT,
    ROOT,
    SPINE,
    InternalInconsistencyError,
    NotMarkovError,
    OrderedTriple,
    OutOfRangeError,
    as_ordered,
    children,
    cubic_defect,
    enumerate_tree,
    is_markov,
    markov_of_slope,
    reduce_to_root,
    reduction_chain,
    stern_brocot_path,
    vieta_flip,
)


def walk(path: str) -> OrderedTriple:
    """Follow a letter path from the top of the binary tree."""
    t = OrderedTriple(*BINARY_ROOT)
    for step in path:
        t = children(t)[0 if step == "L" else 1]
    return t


# Random tree nodes give a cheap supply of genuine solutions.
tree_paths = st.text(alphabet="LR", min_size=0, max_size=12)


def test_constants():
    assert ROOT == (1, 1, 1)
    assert SPINE == ((1, 1, 1), (1, 1, 2))
    assert BINARY_ROOT == (1, 2, 5)


def test_cubic_defect_zero_on_solutions():
    for t in [(1, 1, 1), (1, 1, 2), (1, 2, 5), (1, 5, 13), (2, 5, 29),
              (1, 13, 34), (5, 29, 433), (2, 29, 169), (13, 34, 1325)]:
        assert cubic_defect(*t) == 0
        assert is_markov(t)


def test_cubic_defect_nonzero_off_solutions():
    assert cubic_defect(1, 2, 6) == 41 - 36
    assert cubic_defect(1, 1, 3) == 11 - 9
    assert not is_markov((1, 2, 6))
    assert not is_markov((3, 4, 5))


def test_is_markov_agrees_with_quadratic_search():
    solutions = set(oracles.brute_force_triples(60))
    for t in itertools.combinations_with_replacement(range(1, 61), 3):
        assert is_markov(t) == (t in solutions)


@given(tree_paths)
def test_vieta_flip_is_an_involution(path):
    t = walk(path)
    for pos in (1, 2, 3):
        flipped = vieta_flip(t, pos)
        assert cubic_defect(*flipped) == 0
        assert vieta_flip(flipped, pos) == tuple(t)


def test_children_of_binary_root():
    left, right = children(OrderedTriple(1, 2, 5))
    assert left == (1, 5, 13)
    assert right == (2, 5, 29)


@given(tree_paths)
def test_children_flip_back_to_parent(path):
    t = walk(path)
    for child in children(t):
        assert cubic_defect(*child) == 0
        # Flipping the largest entry of the child recovers the parent set.
        back = as_ordered(vieta_flip(child, 3))
        assert back == t


def test_reduction_chain_examples():
    assert reduction_chain((5, 13, 194)) == [
        (5, 13, 194), (1, 5, 13), (1, 2, 5), (1, 1, 2), (1, 1, 1)]
    assert reduction_chain((1, 1, 1)) == [(1, 1, 1)]
    assert reduction_chain((2, 5, 29)) == [(2, 5, 29), (1, 2, 5), (1, 1, 2), (1, 1, 1)]


def test_reduction_chain_checks_that_the_max_decreases(monkeypatch):
    # A flip that returned (1, 5, 5) would not descend: 3 * 1 * 5 >= 2 * 5.
    monkeypatch.setattr(triples, "_flip_max", lambda o: OrderedTriple(1, 5, 5))
    with pytest.raises(InternalInconsistencyError, match=r"\(1, 5, 5\)"):
        reduction_chain((1, 2, 5))


def test_reduce_to_root_examples():
    assert reduce_to_root((1, 1, 1)) == ""
    assert reduce_to_root((1, 1, 2)) == "L"
    assert reduce_to_root((1, 2, 5)) == "LL"
    assert reduce_to_root((5, 13, 194)) == "LLLR"
    assert reduce_to_root((2, 29, 169)) == "LLRR"


@given(tree_paths)
def test_reduce_to_root_inverts_walk(path):
    assert reduce_to_root(walk(path)) == "LL" + path


@given(tree_paths.filter(lambda s: len(s) >= 1))
def test_reduction_chain_descends(path):
    chain = reduction_chain(walk(path))
    assert chain[-1] == (1, 1, 1)
    for a, b in zip(chain, chain[1:]):
        assert a.max > b.max or a == (1, 1, 2)
        assert cubic_defect(*b) == 0


def test_children_on_the_spine():
    assert children((1, 1, 1)) == (OrderedTriple(1, 1, 2),)
    assert children((1, 1, 2)) == (OrderedTriple(1, 2, 5),)
    assert children((2, 1, 1)) == (OrderedTriple(1, 2, 5),)


def test_enumerate_tree_rejects_a_negative_depth():
    with pytest.raises(OutOfRangeError):
        list(enumerate_tree(-1))


def test_is_markov_rejects_a_pair():
    assert not is_markov((1, 1))


def test_enumerate_tree_shape_and_order():
    nodes = list(enumerate_tree(6))
    assert len(nodes) == 2**7 - 1
    assert nodes[0] == ("", (1, 2, 5))
    # Levels appear in order; inside a level paths are lexicographic
    # with L before R.
    by_level = {}
    for path, t in nodes:
        by_level.setdefault(len(path), []).append((path, t))
    for d, level in by_level.items():
        assert len(level) == 2**d
        paths = [p for p, _ in level]
        assert paths == sorted(paths, key=lambda s: [0 if c == "L" else 1 for c in s])


def test_enumerate_tree_nodes_are_distinct_solutions():
    seen = set()
    for path, t in enumerate_tree(8):
        assert cubic_defect(*t) == 0
        assert t.small <= t.mid <= t.max
        assert t not in seen
        seen.add(t)
        assert walk(path) == t


def test_enumerate_tree_matches_quadratic_search(brute_1e4):
    # Depth 12 is more than enough to exhaust every solution with
    # largest entry below 10^4; the filtered sets must agree exactly.
    from_tree = {tuple(t) for _, t in enumerate_tree(12) if t.max <= 10**4}
    from_tree.update(s for s in [(1, 1, 1), (1, 1, 2)])
    assert from_tree == set(brute_1e4)


def test_enumerate_tree_yields_ascending_triples():
    for _, t in enumerate_tree(10):
        assert list(t) == sorted(t)


@pytest.mark.parametrize("depth", range(11))
def test_tree_levels_are_enumerate_tree_and_children(depth):
    # enumerate_tree grouped by path length is its levels, in order.  Level
    # d holds 2^d nodes, the paths of length d in L/R order, and it is the
    # children() of the level above, in order; children() orients through
    # the reduction chain, not through the walk.
    nodes = list(enumerate_tree(depth))
    levels = [list(g) for _, g in itertools.groupby(nodes, lambda n: len(n[0]))]
    assert len(levels) == depth + 1
    above = [BINARY_ROOT]
    for d, level in enumerate(levels):
        assert len(level) == 2**d
        assert [path for path, _ in level] == [
            "".join(w) for w in itertools.product("LR", repeat=d)]
        assert [tuple(t) for _, t in level] == above
        above = [tuple(c) for t in above for c in children(t)]


def _slope_labelled_walk(bound):
    """The spine (1,1,1) and (1,1,2) where they fit, then (m(left end),
    m(right end), m(mediant)) of every Farey node whose mediant value is
    <= bound, walked on slope labels with markov_of_slope."""
    out = [t for t in [(1, 1, 1), (1, 1, 2)] if t[2] <= bound]
    stack = [((0, 1), (1, 1))]
    while stack:
        lo, hi = stack.pop()
        mid = (lo[0] + hi[0], lo[1] + hi[1])
        m = markov_of_slope(*mid)
        if m <= bound:
            out.append((markov_of_slope(*lo), markov_of_slope(*hi), m))
            stack += [(lo, mid), (mid, hi)]
    return out


@pytest.mark.parametrize("bound", [1, 2, 5, 13, 10**6, 10**40])
def test_walk_values_is_the_slope_labelled_walk(bound):
    assert sorted(triples._walk_values(bound)) == sorted(_slope_labelled_walk(bound))


def test_walk_values_at_bounds_where_its_screen_is_tight():
    # The walk skips a child once bits(u) + bits(w) > bits(bound), so the
    # bounds at and beside a power of two, and a Markov number and one less,
    # are where a screen off by one bit would drop or keep a node wrongly.
    markov = [markov_of_slope(p, q) for p, q in
              [(1, 2), (1, 3), (2, 3), (2, 5), (3, 7), (7, 19), (1, 40), (39, 40)]]
    bounds = [b for k in range(1, 71) for b in (2**k - 1, 2**k, 2**k + 1)]
    bounds += [b for m in markov for b in (m - 1, m)]
    for bound in bounds:
        assert sorted(triples._walk_values(bound)) == sorted(
            _slope_labelled_walk(bound)), bound


def test_ordering_gap_on_proper_nodes():
    # Every node below the singular spine keeps 3*small*mid < 2*max.
    assert not 3 * 1 * 1 < 2 * 1  # the root itself is the lone violator
    for t in SPINE[1:]:
        assert 3 * t[0] * t[1] < 2 * t[2]
    for _, t in enumerate_tree(7):
        assert 3 * t.small * t.mid < 2 * t.max


def test_as_ordered_sorts_and_validates():
    assert as_ordered((5, 1, 2)) == OrderedTriple(1, 2, 5)
    assert as_ordered((1, 1, 1)) == OrderedTriple(1, 1, 1)
    with pytest.raises(NotMarkovError):
        as_ordered((1, 2, 6))
    with pytest.raises(NotMarkovError):
        as_ordered((0, 1, 1))
    with pytest.raises(NotMarkovError):
        as_ordered((-1, 2, 5))


def test_as_ordered_raises_on_a_repeat_off_the_spine(monkeypatch):
    # Only (1,1,1) and (1,1,2) repeat an entry, so let a non-solution through.
    monkeypatch.setattr(triples, "is_markov", lambda t: True)
    assert as_ordered((1, 2, 1)) == OrderedTriple(1, 1, 2)
    with pytest.raises(InternalInconsistencyError, match="repeated entry"):
        as_ordered((2, 5, 2))


def test_vieta_flip_rejects_bad_input():
    with pytest.raises(OutOfRangeError):
        vieta_flip((1, 2, 5), 4)
    with pytest.raises(OutOfRangeError):
        vieta_flip((1, 2, 5), 0)
    with pytest.raises(NotMarkovError):
        vieta_flip((1, 2, 6), 1)


def _farey_parents(p, q):
    """The Stern-Brocot parents lo < p/q < hi of an interior slope, as (p, q)."""
    b = pow(p, -1, q)  # p*b - a*q == 1 with 0 < b < q
    a = (p * b - 1) // q
    return (a, b), (p - a, q - b)


def test_reduce_to_root_is_the_stern_brocot_path():
    # The triple tree and the Farey tree of slopes are one tree: the triple
    # of m at p/q's two Farey parents and at p/q sits at p/q's path.
    slopes = [(p, q) for q in range(2, 41) for p in range(1, q) if math.gcd(p, q) == 1]
    assert len(slopes) == 489
    for p, q in slopes:
        lo, hi = _farey_parents(p, q)
        t = (markov_of_slope(*lo), markov_of_slope(*hi), markov_of_slope(p, q))
        assert reduce_to_root(t) == "LL" + stern_brocot_path(p, q)
        assert as_ordered(t).max == markov_of_slope(p, q)


def _oriented_node(path):
    """The oriented node (u, v, w) at ``path``, built by the child rule alone."""
    node = BINARY_ROOT
    for step in path:
        node = triples._oriented_children(node)[step == "R"]
    return node


@pytest.mark.parametrize("path", ["L" * 500, "R" * 2000, ("L" * 30 + "R") * 3, "LR" * 8],
                         ids=["L500", "R2000", "L30R-x3", "LR-x8"])
def test_deep_nodes_reduce_and_branch(path):
    node = _oriented_node(path)
    assert reduce_to_root(node) == "LL" + path
    left, right = triples._oriented_children(node)
    assert children(node) == (OrderedTriple(*sorted(left)), OrderedTriple(*sorted(right)))
