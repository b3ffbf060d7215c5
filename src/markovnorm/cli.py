"""Command-line front end.

Each subcommand checks its usage, does the work its exit code depends on,
and returns that code with its document (JSON, CSV, or SVG) as texts in
order.  ``main`` alone writes them, to stdout or --out FILE, which it opens
only once the subcommand has returned, so a usage error writes nothing.
``tree``, ``frobenius --list`` and ``ball`` return generators, the lists in
``_SLICE`` entries per text and ``ball`` sector by sector, as
``norm._ball_sectors`` draws them, so no document is held whole.  ``_json``
alone lays out JSON; a streamed list is cut from ``_json`` of a skeleton
(``_json_cut``).  Big integers are decimal strings, so no value passes
through floating point on an output path.  Wall-clock time goes to stderr
only, keeping the data byte-reproducible.

Exit codes: 0 success / property verified, 1 mathematical violation or
failed certification (AccuracyLimitError, its reason on stderr), 2 usage
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from collections.abc import Iterable
from itertools import chain, islice

from .conjectures import (
    FAMILIES,
    _collect_by_value,
    verify_family,
    verify_theorem1_random,
)
from .counting import fit_constant
from .errors import AccuracyLimitError, PreconditionViolatedError
from .indexing import (
    christoffel_word,
    markov_of_slope,
    markov_of_slope_via_trace,
    markov_table,
    parse_slope,
    stern_brocot_path,
)
from .norm import (_EXACT_MAX_Q, _ball_cone, _ball_sectors, _reduced, norm_real,
                   stable_norm, stable_norm_interval)
from .triples import SPINE, enumerate_tree


Document = Iterable[str]  # a document's texts, in order


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_MARK = "\0"  # json.dumps writes it as \u0000, which no document holds


def _json_cut(payload: dict, key: str, element):
    """_json(payload) with, at key, a nonempty list of elements laid out as
    element is, cut at element's _MARK strings: (head, inner, sep, tail),
    where sep runs from one element's last mark to the next one's first and
    inner are the pieces between one element's marks."""
    pieces = _json({**payload, key: [element, element]}).split(r"\u0000")
    k = len(pieces) // 2  # marks per element
    return pieces[0], pieces[1:k], pieces[k], pieces[-1]


_SLICE = 1024  # list entries per text


def _slices(items: list):
    """items in consecutive slices of _SLICE entries."""
    return (items[i:i + _SLICE] for i in range(0, len(items), _SLICE))


def _joined(head: str, slices, sep: str, tail: str) -> Document:
    """head, sep.join of the texts of every slice in turn, one text per
    slice, then tail."""
    yield head
    lead = ""
    for texts in slices:
        yield lead + sep.join(texts)
        lead = sep
    yield tail


# slope's cost is m(p/q), about 1.4 q bits, by both routes, and the decimal
# text of m and of the trace 3m, most of it; it takes norm --exact's limit on
# q.  In a fresh process on a 2-vCPU VM (three runs, peak memory), slope
# 1/262144 takes 0.45-0.54 s, 100001/262143 0.77-0.85 s and 262143/262144
# 1.38-1.47 s, at 19-20 MB.
def cmd_slope(args) -> tuple[int, Document]:
    slope = parse_slope(args.fraction)
    if slope.q > _EXACT_MAX_Q:
        raise PreconditionViolatedError(
            f"fraction: denominator {slope.q} > {_EXACT_MAX_Q}")
    path = "" if slope.q == 1 else stern_brocot_path(slope.p, slope.q)
    # 3 m(p/q) by the trace route, independent of the descent's "markov"
    trace = 3 * markov_of_slope_via_trace(slope.p, slope.q)
    text = _json({
        "p": slope.p,
        "q": slope.q,
        "markov": str(markov_of_slope(slope.p, slope.q)),
        "path": path,
        "christoffelWord": christoffel_word(slope.p, slope.q),
        "trace": str(trace),
        "stableNorm": stable_norm((slope.q, slope.p)),
    })
    return 0, [text]


# verify's integer families cost one markov_table(--max): about 0.3 max**2
# slopes, whose Markov numbers grow to about 1.4 max bits.  Measured in
# process for verify all on a 2-vCPU VM (time over two runs, peak memory):
#   max  150: 0.02 s,       16 MB     max 1000: 1.6-2.0 s, 121 MB
#   max  500: 0.39-0.48 s,  34 MB     max 1400: 3.3 s,     266 MB
#   max  700: 0.61-0.91 s,  58 MB
_VERIFY_MAX = 1000

# verify theorem1 costs about 0.1 ms per sample, a few certified real norms
# at points with coordinates up to 50, in flat memory.  Measured in a fresh
# process on a 2-vCPU VM (time over two runs, peak memory):
#   samples  1,000: 0.09 s,      15 MB     samples 20,000: 2.3 s, 15 MB
#   samples  5,000: 0.44-0.47 s, 15 MB     samples 40,000: 3.9-4.0 s, 15 MB
#   samples 10,000: 0.82-0.84 s, 15 MB
_SAMPLES_MAX = 10000


def cmd_verify(args) -> tuple[int, Document]:
    if args.family == "theorem1":  # before any sample
        if args.samples < 1:
            raise PreconditionViolatedError(f"--samples: {args.samples} < 1")
        if args.samples > _SAMPLES_MAX:
            raise PreconditionViolatedError(
                f"--samples: {args.samples} > {_SAMPLES_MAX}")
        if not math.isfinite(args.tol):
            raise PreconditionViolatedError(f"--tol must be finite, got {args.tol!r}")
        if args.tol < 1e-12:  # norm_real's floor
            raise PreconditionViolatedError(f"--tol: {args.tol!r} < 1e-12")
    else:  # before any table
        if args.max < 2:
            raise PreconditionViolatedError(f"--max: {args.max} < 2")
        if args.max > _VERIFY_MAX:
            raise PreconditionViolatedError(f"--max: {args.max} > {_VERIFY_MAX}")
    if args.family == "theorem1":
        reports = [verify_theorem1_random(args.samples, tol=args.tol,
                                          seed=args.seed)]
    elif args.family == "all":
        table = markov_table(args.max)
        reports = [verify_family(f, args.max, table) for f in FAMILIES]
    else:
        reports = [verify_family(args.family, args.max)]
    text = _json({
        "reports": [{
            "family": r.family,
            "bound": str(r.bound),
            "cases": r.cases,
            "violations": [list(map(str, v)) for v in r.violations],
            "verified": r.verified,
        } for r in reports],
        "verified": all(r.verified for r in reports),
    })
    return 0 if all(r.verified for r in reports) else 1, [text]


# ball's cost grows with the max_q**2 * 3 / pi**2 cone points, each drawn in
# 12 sectors from 3 formatted rows.  Measured in a fresh process for
# --format svg --out FILE on a 2-vCPU VM, written sector by sector (time of
# main over two or three runs, peak memory):
#   max_q  400: 0.44-0.46 s, 54 MB     max_q  800: 1.8-2.0 s, 171 MB
#   max_q  512: 0.75 s,      78 MB     max_q 1024: 2.7-3.7 s, 272 MB
_BALL_MAX_Q = 512


def _witness_lines(witness) -> str:
    """The three comparison lines through witness / ||witness||, as SVG."""
    if witness is None:
        return ""
    fmt = lambda v: f"{v:.10f}"
    wq, wp = witness
    n = stable_norm((wq, wp))
    x0, y0 = wq / n, wp / n
    lines = (
        (x0, -1.25, x0, 1.25),                      # vertical through the point
        (-1.25, y0, 1.25, y0),                      # horizontal
        (x0 - 2.5, y0 + 2.5, x0 + 2.5, y0 - 2.5),   # diagonal x + y = const
    )
    return "".join(f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" '
                   f'y2="{fmt(y2)}" stroke="red" stroke-width="0.004"/>\n'
                   for x1, y1, x2, y2 in lines)


def _svg_ball(cone, overlay: str) -> Document:
    yield ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.25 -1.25 2.5 2.5">\n'
           '<g transform="scale(1,-1)">\n'
           '<polyline fill="none" stroke="black" stroke-width="0.006" points="')
    sectors = (list(map(",".join, pairs))
               for pairs in _ball_sectors(cone, "%.10f".__mod__))
    points = next(sectors)
    start = points[0]  # the polyline closes on its first point
    yield " ".join(points)
    for points in sectors:
        yield " " + " ".join(points)
    yield f' {start}"/>\n{overlay}</g>\n</svg>\n'


def cmd_ball(args) -> tuple[int, Document]:
    # usage errors before the sample is built
    if args.max_q < 1:
        raise PreconditionViolatedError(f"--max-q: {args.max_q} < 1")
    if args.max_q > _BALL_MAX_Q:
        raise PreconditionViolatedError(f"--max-q: {args.max_q} > {_BALL_MAX_Q}")
    witness = None
    if args.witness is not None:
        if args.format == "csv":
            raise PreconditionViolatedError("--witness requires --format svg")
        try:
            wq, wp = (int(v) for v in args.witness.split(","))
        except ValueError:
            raise PreconditionViolatedError(
                f"--witness expects Q,P integers, got {args.witness!r}") from None
        if (wq, wp) == (0, 0):
            raise PreconditionViolatedError("--witness must be nonzero")
        q = _reduced((wq, wp))[2]  # m(p/q) alone has about 1.4 q bits
        if q > _EXACT_MAX_Q:
            raise PreconditionViolatedError(
                f"--witness: reduced denominator {q} > {_EXACT_MAX_Q}")
        witness = (wq, wp)
    cone = _ball_cone(args.max_q)
    if args.format == "csv":
        return 0, ("\n".join(map(",".join, pairs)) + "\n"
                   for pairs in _ball_sectors(cone, repr))
    return 0, _svg_ball(cone, _witness_lines(witness))


# tree's document grows about 8x every two levels, since entries roughly
# square along the fastest branch.  Measured in a fresh process on a 2-vCPU
# VM, written in slices (time, peak memory, document):
#   depth 12: 0.04 s,  21 MB, 2.7 MB     depth 15: 0.8 s,  78 MB,  58 MB
#   depth 14: 0.28 s,  42 MB,  20 MB     depth 16: 2.9 s, 177 MB, 166 MB
_TREE_MAX_DEPTH = 15


def cmd_tree(args) -> tuple[int, Document]:
    depth = args.depth
    if depth < 0:
        raise PreconditionViolatedError(f"--depth: {depth} < 0")
    if depth > _TREE_MAX_DEPTH:
        raise PreconditionViolatedError(f"--depth: {depth} > {_TREE_MAX_DEPTH}")
    head, inner, sep, tail = _json_cut(
        {"depth": depth}, "nodes", {"path": _MARK, "triple": [_MARK] * 3})
    return 0, _joined(head, _tree_texts(depth, inner), sep, tail)


def _tree_texts(depth, inner):
    """The node texts of enumerate_tree(depth), level by level, one list
    per slice of a level, with inner the _json_cut pieces between a node's
    path and its three entries (L/R and digits, which need no escaping).

    A child's sorted triple is one of its parent's two smaller entries, its
    parent's largest, then its new mediant.  So each node converts only its
    mediant to decimal, and takes the other two strings from its parent, at
    i >> 1 in the level above, matching the smaller entry by value.  Above
    (1,2,5) stands (1,1,2), its parent on the spine.
    """
    n1, n2, n3 = inner
    nodes = enumerate_tree(depth)
    above, digits = [("", SPINE[1])], [("1", "1", "2")]
    for d in range(depth + 1):
        level = list(islice(nodes, 1 << d))
        digits = [(small if t[0] == parent[0] else mid, large, str(t[2]))
                  for (_, t), (_, parent), (small, mid, large)
                  in zip(level, _twice(above), _twice(digits))]
        for part, part_digits in zip(_slices(level), _slices(digits)):
            yield [f"{path}{n1}{a}{n2}{b}{n3}{c}"
                   for (path, _), (a, b, c) in zip(part, part_digits)]
        above = level


def _twice(items):
    """Each item twice in a row: the parent of both its children."""
    return chain.from_iterable(zip(items, items))


def _raising(text: str, ex: Exception) -> Document:
    """text, then ex raised once it is written, for main to report."""
    yield text
    raise ex


def cmd_norm(args) -> tuple[int, Document]:
    if not math.isfinite(args.tol):  # the payload echoes it, and JSON has no inf
        raise PreconditionViolatedError(f"--tol must be finite, got {args.tol!r}")
    try:
        if args.exact:
            try:
                q, p = int(args.x), int(args.y)
            except ValueError:
                raise PreconditionViolatedError(
                    "--exact requires integer coordinates") from None
            payload = {"vector": [str(q), str(p)]}
            enc = stable_norm_interval((q, p))
        else:
            x, y = float(args.x), float(args.y)
            payload = {"x": x, "y": y, "tol": args.tol}
            enc = norm_real(x, y, tol=args.tol)
    except AccuracyLimitError as ex:
        payload = {"error": "accuracy limit", "tol": args.tol}
        if ex.interval is not None:
            payload.update(lo=ex.interval.lo, hi=ex.interval.hi,
                           width=ex.interval.width)
        return 1, _raising(_json(payload), ex)  # main reports the reason
    payload.update(lo=enc.lo, hi=enc.hi, width=enc.width)
    return 0, [_json(payload)]


# frobenius walks every Markov triple up to --bound, about 0.18 (ln bound)**2
# of them, checks each against Markov's equation and sorts their values.
# Measured in a fresh process for --list on a 2-vCPU VM, written in slices
# (time over three runs, peak memory, triples):
#   10**150: 0.04 s,      17 MB,  21,697    10**500: 1.4-1.7 s, 60 MB, 239,984
#   10**300: 0.28-0.47 s, 26 MB,  86,518    10**600: 4.1 s,     89 MB, 345,484
#   10**400: 0.72-1.3 s,  39 MB, 153,665    10**700: 6.2 s,    129 MB
# count makes the same walk without the check, the list and the sort: count
# 10**500 takes 0.20-0.23 s at 15 MB.
_VALUE_MAX_EXP = 500  # frobenius --bound and count's bounds <= 10**_VALUE_MAX_EXP


def cmd_count(args) -> tuple[int, Document]:
    bounds = args.bounds  # checked before the walk
    if bounds[0] < 2:
        raise PreconditionViolatedError(f"bounds: {bounds[0]} < 2")
    for a, b in zip(bounds, bounds[1:]):
        if b <= a:
            raise PreconditionViolatedError(f"bounds must increase, got {b} after {a}")
    if bounds[-1] > 10 ** _VALUE_MAX_EXP:
        raise PreconditionViolatedError(f"bounds: {bounds[-1]} > 10**{_VALUE_MAX_EXP}")
    points = fit_constant(bounds)
    records = []
    for pt in points:
        rec = {"bound": str(pt.bound), "count": pt.count,
               "cEstimate": pt.c_estimate}
        if args.lattice:
            # count_lattice(R) is count_triples(R) by the slope-triple
            # bijection, so the walk fit_constant made is not repeated.
            rec["lattice"] = pt.count
            rec["offset"] = 0
        records.append(rec)
    return 0, [_json({"points": records,
                      "note": "cEstimate = count / (ln bound)^2, natural log"})]


def cmd_frobenius(args) -> tuple[int, Document]:
    try:
        bound = int(args.bound)
    except ValueError:
        raise PreconditionViolatedError(
            f"--bound expects a decimal integer, got {args.bound!r}") from None
    if bound < 1:
        raise PreconditionViolatedError(f"--bound: {bound} < 1")
    if bound > 10 ** _VALUE_MAX_EXP:
        raise PreconditionViolatedError(f"--bound: {bound} > 10**{_VALUE_MAX_EXP}")
    distinct, duplicates = _collect_by_value(bound)
    code = 0 if not duplicates else 1
    payload = {"bound": str(bound), "duplicates": list(map(str, duplicates)),
               "valueCount": len(distinct)}
    if not args.list:
        return code, [_json(payload)]
    # distinct holds 1 at least, and its entries are digits only
    head, _, sep, tail = _json_cut(payload, "markovNumbers", _MARK)
    return code, _joined(head, (map(str, s) for s in _slices(distinct)), sep, tail)


@functools.cache  # built once per process: main parses many argvs with it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovnorm",
        description="Markov numbers, the rational indexing, and the stable norm.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write the document to FILE instead of stdout")
        return p

    p = add("slope", cmd_slope, "Markov data of one rational slope")
    p.add_argument("fraction", help="reduced fraction p/q in [0, 1]")

    p = add("verify", cmd_verify, "verify a monotonicity family")
    p.add_argument("family", choices=FAMILIES + ("all", "theorem1"))
    p.add_argument("--max", type=int, default=50,
                   help="denominator bound for the integer families")
    p.add_argument("--samples", type=int, default=100,
                   help="tuple count for family theorem1")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="absolute width bound for family theorem1 only, "
                        "finite and >= 1e-12")
    p.add_argument("--seed", type=int, default=0)

    p = add("ball", cmd_ball, "sample the unit ball boundary")
    p.add_argument("--max-q", type=int, required=True, dest="max_q")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--witness", default=None, metavar="Q,P",
                   help="overlay the three comparison lines through Q,P (svg)")

    p = add("tree", cmd_tree, "enumerate the triple tree")
    p.add_argument("--depth", type=int, required=True)

    p = add("norm", cmd_norm, "certified stable norm of a vector")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="absolute width bound, finite; --exact does not apply it")
    p.add_argument("--exact", action="store_true",
                   help="treat x, y as exact integers")

    p = add("count", cmd_count, "count triples below bounds")
    p.add_argument("bounds", nargs="+", type=int,
                   help="strictly increasing integer bounds")
    p.add_argument("--lattice", action="store_true",
                   help="add the slope count and its offset")

    p = add("frobenius", cmd_frobenius, "scan for duplicate Markov numbers")
    p.add_argument("--bound", required=True,
                   help="value bound (decimal integer)")
    p.add_argument("--list", action="store_true",
                   help="include the sorted Markov numbers found")
    return parser


def _check_out(path: str):
    """Refuse an --out path whose directory is missing, before any work and
    without creating the file; open itself can still fail, and main reports
    that the same way."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise PreconditionViolatedError(f"--out: no directory {directory!r}")
    if os.path.isdir(path):
        raise PreconditionViolatedError(f"--out: {path!r} is a directory")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    # Markov numbers outgrow the default int-to-str digit limit (Python
    # 3.11+), and every output path prints them in full.
    max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if max_digits:
        sys.set_int_max_str_digits(0)
    try:
        if args.out is not None:
            _check_out(args.out)
        code, texts = args.fn(args)
        if args.out is None:
            sys.stdout.writelines(texts)
        else:
            try:
                fh = open(args.out, "w", encoding="utf-8")
            except OSError as ex:
                raise PreconditionViolatedError(f"--out: {ex}") from None
            with fh:
                fh.writelines(texts)
    except ValueError as ex:  # every package error for bad input is one
        print(f"markovnorm: error: {ex}", file=sys.stderr)
        return 2
    except AccuracyLimitError as ex:
        print(f"markovnorm: {ex}", file=sys.stderr)
        return 1
    finally:
        if max_digits:
            sys.set_int_max_str_digits(max_digits)
        print(f"wall {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
