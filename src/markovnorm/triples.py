"""Exact arithmetic on Markov triples and the binary tree that generates them.

A Markov triple is a positive integer solution of x^2 + y^2 + z^2 = 3xyz.
Each coordinate can be flipped to the other root of its quadratic, which
organises all solutions into a tree: (1,1,1) -> (1,1,2) -> (1,2,5) is a
singular spine (the flips there coincide), and below (1,2,5) every triple
has exactly two distinct children. Reduction to the root is one upward
pass of max flips, whose smallest entries spell the node's tree path.

Two walks go down the tree: ``_walk_values``, depth first and bounded by
value, for the scans and counts; and ``enumerate_tree``, level by level and
bounded by depth, for the CLI's ``tree``.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, NamedTuple

from .errors import InternalInconsistencyError, NotMarkovError, OutOfRangeError

ROOT = (1, 1, 1)
SPINE = ((1, 1, 1), (1, 1, 2))
BINARY_ROOT = (1, 2, 5)


def cubic_defect(x: int, y: int, z: int) -> int:
    """x^2 + y^2 + z^2 - 3xyz; zero exactly on Markov triples."""
    return x * x + y * y + z * z - 3 * x * y * z


def is_markov(t) -> bool:
    """True when t is a positive integer triple with cubic_defect == 0."""
    if len(t) != 3:
        return False
    x, y, z = t
    ok_types = all(isinstance(n, int) and n > 0 for n in (x, y, z))
    return ok_types and cubic_defect(x, y, z) == 0


def vieta_flip(t, position: int):
    """Replace coordinate ``position`` (1-based) by 3*(product of the others) - it.

    The result is again a Markov triple; applying the same flip twice
    returns the input.
    """
    if not is_markov(t):
        raise NotMarkovError(f"not a Markov triple: {t!r}")
    if position not in (1, 2, 3):
        raise OutOfRangeError(f"position must be 1, 2 or 3, got {position!r}")
    x, y, z = t
    if position == 1:
        return (3 * y * z - x, y, z)
    if position == 2:
        return (x, 3 * x * z - y, z)
    return (x, y, 3 * x * y - z)


class OrderedTriple(NamedTuple):
    small: int
    mid: int
    max: int


# OrderedTriple from an ascending 3-tuple, built in C: the named tuple's own
# __new__ is Python code, and the tree walk makes one triple per node.
_ordered = partial(tuple.__new__, OrderedTriple)


def as_ordered(t) -> OrderedTriple:
    """Sort a Markov triple ascending.

    Repeated entries only occur on the spine triples (1,1,1) and (1,1,2);
    a repeat anywhere else would contradict uniqueness of the tree labels,
    so it raises InternalInconsistencyError rather than being ordered.
    """
    if not is_markov(t):
        raise NotMarkovError(f"not a Markov triple: {t!r}")
    s = OrderedTriple(*sorted(t))
    if len(set(s)) < 3 and s not in SPINE:
        raise InternalInconsistencyError(
            f"unexpected repeated entry in Markov triple {tuple(s)!r}")
    return s


def _flip_max(o: OrderedTriple) -> OrderedTriple:
    """Parent of an ordered triple: flip the largest coordinate down."""
    d = 3 * o.small * o.mid - o.max
    # The child's middle entry is its parent's largest.
    return OrderedTriple(min(o.small, d), max(o.small, d), o.mid)


def reduction_chain(t) -> list[OrderedTriple]:
    """Ordered triples visited while flipping the max down to (1,1,1).

    Every step strictly decreases the max because each ordered non-(1,1,1)
    triple satisfies 3*small*mid < 2*max.
    """
    o = as_ordered(t)
    chain = [o]
    while o != ROOT:
        if 3 * o.small * o.mid >= 2 * o.max:
            raise InternalInconsistencyError(
                f"flipping the max of {tuple(o)!r} would not decrease it")
        o = _flip_max(o)
        chain.append(o)
    return chain


def _oriented_children(node):
    """Children of an internal node carried as (u, v, w) = (kept-left, kept-right, mediant)."""
    u, v, w = node
    return (u, w, 3 * u * w - v), (w, v, 3 * v * w - u)


def _walk_values(bound: int):
    """Every Markov triple with largest entry w <= bound, as (u, v, w).

    The spine (1,1,1) and (1,1,2) come first where they fit; they label the
    boundary slopes 0/1 and 1/1.  Then the oriented nodes from (1,2,5) down,
    depth first: the Farey walk without its slope labels, by
    ``_oriented_children``'s rule.  w grows from a node to its children, so
    only children within the bound are pushed; the right child is popped
    first.

    A child whose bit lengths already place it above the bound is not
    multiplied out.  In an oriented node w is the strictly largest entry,
    so the left child 3uw - v > 3uw - w >= 2uw >= 2**(bits(u) + bits(w) - 1),
    and likewise the right child with v for u.  That is at least
    2**bits(bound) > bound once bits(u) > room = bits(bound) - bits(w).
    """
    yield from (t for t in SPINE if t[2] <= bound)
    stack = [BINARY_ROOT] if bound >= 5 else []
    bits = bound.bit_length()
    while stack:
        node = stack.pop()
        yield node
        u, v, w = node
        room = bits - w.bit_length()
        t = 3 * w  # the trace of w, shared by both children
        if u.bit_length() <= room:
            left = t * u - v
            if left <= bound:
                stack.append((u, w, left))
        if v.bit_length() <= room:
            right = t * v - u
            if right <= bound:
                stack.append((w, v, right))


def _orient(target: OrderedTriple):
    """Letters below (1,2,5) and the oriented form (u, v, w) of ``target``.

    A child's smallest entry is the one it kept from its parent, and it is
    the left child exactly when that is its parent's left entry u, the
    smaller entry at (1,2,5) and at a left child, the larger at a right one.
    """
    descent = reduction_chain(target)[-3::-1]
    letters = []
    left = True
    for parent, child in zip(descent, descent[1:]):
        left = (child.small == parent.small) == left
        letters.append("L" if left else "R")
    a, b, c = target
    return letters, (a, b, c) if left else (b, a, c)


def reduce_to_root(t) -> str:
    """Flip sequence carrying t back to (1,1,1), one letter per flip.

    Letters are the L/R labels of the corresponding tree edges, read from
    the root; on the spine the two flips coincide and are written 'L'.
    Replaying the word from (1,1,1) with ``children`` regenerates t up to
    coordinate order.
    """
    o = as_ordered(t)
    if o == ROOT:
        return ""
    if o == (1, 1, 2):
        return "L"
    letters, _ = _orient(o)
    return "LL" + "".join(letters)


def children(t) -> tuple[OrderedTriple, ...]:
    """Tree children of an ordered triple, left child first.

    Below (1,2,5) the two children flip the two smaller coordinates; which
    flip is the left child is fixed by the Farey labels of the tree (the
    left child keeps the left endpoint value of the node's Farey interval).
    On the spine both flips agree and the single child is returned once.
    """
    o = as_ordered(t)
    if o == ROOT:
        return (OrderedTriple(1, 1, 2),)
    if o == (1, 1, 2):
        return (OrderedTriple(1, 2, 5),)
    _, node = _orient(o)
    # w is each child's middle entry: (u, w, .) is ascending, (w, v, .) is not.
    left, (w, v, right_max) = _oriented_children(node)
    return OrderedTriple(*left), OrderedTriple(v, w, right_max)


def enumerate_tree(depth: int) -> Iterator[tuple[str, OrderedTriple]]:
    """Yield (path, triple) for every node with path length <= depth.

    Level d holds 2^d nodes; levels are emitted in order and left-to-right
    within a level, starting from ("", (1,2,5)).  Entries grow roughly
    doubly exponentially along balanced paths, so deep levels are huge.
    A level is its paths and its oriented nodes (u, v, w), built from the
    level above by ``_oriented_children`` only after that level's last node
    is taken, so the walk holds at most two levels, not the tree.
    """
    if depth < 0:
        raise OutOfRangeError(f"depth must be >= 0, got {depth!r}")
    paths, nodes = [""], [BINARY_ROOT]
    for d in range(depth + 1):
        if d:
            paths = [path + letter for path in paths for letter in "LR"]
            nodes = [child for node in nodes for child in _oriented_children(node)]
        # In an oriented node (u, v, w) the mediant w is the largest entry: it
        # is at (1,2,5), and 3uw - v > w and 3vw - u > w below it.
        yield from zip(paths, [_ordered((u, v, w) if u < v else (v, u, w))
                               for u, v, w in nodes])
