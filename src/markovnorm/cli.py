"""Command-line front end.

Every subcommand prints one machine-readable document (JSON, CSV, or SVG)
to standard output or to --out FILE.  Big integers are rendered as decimal
strings so no value ever passes through floating point on an output path.
Wall-clock time goes to stderr only, keeping the data byte-reproducible.

Exit codes: 0 success / property verified, 1 mathematical violation or
failed certification, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .conjectures import (
    CheckResult,
    FAMILIES,
    _collect_by_value,
    verify_family,
    verify_theorem1_random,
)
from .counting import fit_constant
from .errors import (
    AccuracyLimitError,
    NotHyperbolicError,
    NotMarkovError,
    OutOfRangeError,
    PreconditionViolatedError,
)
from .indexing import (
    christoffel_word,
    markov_of_slope,
    mat_trace,
    parse_slope,
    stern_brocot_path,
    word_matrix,
)
from .norm import ball_boundary_sample, norm_real, stable_norm, stable_norm_interval
from .triples import enumerate_tree

_USAGE_ERRORS = (PreconditionViolatedError, OutOfRangeError, NotMarkovError,
                 NotHyperbolicError, ValueError)


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_slope(args) -> int:
    slope = parse_slope(args.fraction)
    if slope == (0, 1):
        path, word = "", "a"
    elif slope == (1, 1):
        path, word = "", "ab"
    else:
        path = stern_brocot_path(slope.p, slope.q)
        word = christoffel_word(slope.p, slope.q)
    trace = mat_trace(word_matrix(word))
    _emit(_json({
        "p": slope.p,
        "q": slope.q,
        "markov": str(markov_of_slope(slope.p, slope.q)),
        "path": path,
        "christoffelWord": word,
        "trace": str(trace),
        "stableNorm": stable_norm((slope.q, slope.p)),
    }), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.family == "theorem1":
        reports = [verify_theorem1_random(args.samples, tol=args.tol,
                                          seed=args.seed)]
    elif args.family == "all":
        reports = [verify_family(f, args.max) for f in FAMILIES]
    else:
        reports = [verify_family(args.family, args.max)]
    _emit(_json({
        "reports": [{
            "family": r.family,
            "bound": str(r.bound),
            "cases": r.cases,
            "violations": [list(map(str, v)) for v in r.violations],
            "verified": r.verified,
        } for r in reports],
        "verified": all(r.verified for r in reports),
    }), args.out)
    return 0 if all(r.verified for r in reports) else 1


def _svg_ball(points, witness) -> str:
    fmt = lambda v: f"{v:.10f}"
    coords = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in points)
    if points:
        coords += f" {fmt(points[0][0])},{fmt(points[0][1])}"
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.25 -1.25 2.5 2.5">',
        '<g transform="scale(1,-1)">',
        f'<polyline fill="none" stroke="black" stroke-width="0.006" points="{coords}"/>',
    ]
    if witness is not None:
        wq, wp = witness
        n = stable_norm((wq, wp))
        x0, y0 = wq / n, wp / n
        lines = (
            (x0, -1.25, x0, 1.25),                      # vertical through the point
            (-1.25, y0, 1.25, y0),                      # horizontal
            (x0 - 2.5, y0 + 2.5, x0 + 2.5, y0 - 2.5),   # diagonal x + y = const
        )
        for x1, y1, x2, y2 in lines:
            parts.append(f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" '
                         f'y2="{fmt(y2)}" stroke="red" stroke-width="0.004"/>')
    parts += ["</g>", "</svg>", ""]
    return "\n".join(parts)


def cmd_ball(args) -> int:
    points = ball_boundary_sample(args.max_q)
    if args.format == "csv":
        if args.witness is not None:
            raise PreconditionViolatedError("--witness requires --format svg")
        _emit("".join(f"{x!r},{y!r}\n" for x, y in points), args.out)
    else:
        witness = None
        if args.witness is not None:
            try:
                wq, wp = (int(v) for v in args.witness.split(","))
            except ValueError:
                raise PreconditionViolatedError(
                    f"--witness expects Q,P integers, got {args.witness!r}") from None
            if (wq, wp) == (0, 0):
                raise PreconditionViolatedError("--witness must be nonzero")
            witness = (wq, wp)
        _emit(_svg_ball(points, witness), args.out)
    return 0


def cmd_tree(args) -> int:
    nodes = [{"path": path, "triple": [str(v) for v in triple]}
             for path, triple in enumerate_tree(args.depth)]
    _emit(_json({"depth": args.depth, "nodes": nodes}), args.out)
    return 0


def cmd_norm(args) -> int:
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
        _emit(_json(payload), args.out)
        return 1
    payload.update(lo=enc.lo, hi=enc.hi, width=enc.width)
    _emit(_json(payload), args.out)
    return 0


def cmd_count(args) -> int:
    points = fit_constant(args.bounds)
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
    _emit(_json({"points": records,
                 "note": "cEstimate = count / (ln bound)^2, natural log"}),
          args.out)
    return 0


def cmd_frobenius(args) -> int:
    bound = int(args.bound)
    found = _collect_by_value(bound)
    duplicates = sorted(v for v, slopes in found.items() if len(slopes) > 1)
    payload = {"bound": str(bound),
               "duplicates": [str(v) for v in duplicates],
               "valueCount": len(found)}
    if args.list:
        payload["markovNumbers"] = [str(v) for v in sorted(found)]
    _emit(_json(payload), args.out)
    return 0 if not duplicates else 1


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
    p.add_argument("--tol", type=float, default=1e-9)
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
    p.add_argument("--tol", type=float, default=1e-9)
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.fn(args)
    except _USAGE_ERRORS as ex:
        print(f"markovnorm: error: {ex}", file=sys.stderr)
        return 2
    finally:
        print(f"wall {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
