"""Spans around the calls between markovnorm's modules, and their totals.

``Tracer.install`` rebinds each function in ``WRAPPED``, in every markovnorm
module that holds it (the module defining it, every module importing it,
and the package), to a wrapper that records a span: name, start, end,
parent, the exception it raised and a size.  Because the defining module is
rebound too, calls inside a module (``ball_boundary_sample`` calling
``stable_norm``) are spans as well.  Nothing in the package is edited.

Between operations ``flush`` folds the spans of each closed root span into
flat totals, so memory stays bounded however long the run; the first
``keep`` spans are also kept as they are and written out when the run
ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from collections import namedtuple
from time import perf_counter

Span = namedtuple("Span", "name start end parent error size")

_bits = lambda args, out: args[0].bit_length()

# layer -> {public function: size(args, result) or None}.  A generator's
# spans are its resumes, and its size counts the items it yielded.
WRAPPED = {
    "triples": {"enumerate_tree": None},
    "indexing": {"markov_of_slope": None, "markov_of_slope_via_trace": None,
                 "markov_table": lambda args, out: len(out)},
    "intervals": {"iv_ln_int": _bits, "iv_acosh_half_int": _bits},  # plus every iv_*
    "norm": {"norm_real": None, "stable_norm": None, "stable_norm_interval": None,
             "ball_boundary_sample": None},
    "conjectures": {"verify_family": lambda args, out: out.cases,
                    "verify_theorem1_random": lambda args, out: len(out.violations),
                    "frobenius_scan": None, "markov_numbers_up_to": None},
    "counting": {"count_triples": None, "count_lattice": None, "fit_constant": None},
}


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def fold(spans) -> dict:
    """Flat totals of one span forest (parents index into ``spans``).

    Per span name: calls, busy_s, self_s (duration minus the time its
    children cover), size and size_max, raised.<Error>; per layer (the
    name's first part): calls, and busy_s over spans whose parent is in
    another layer; per parent name and child name: "parent>child", the
    number of parent spans with at least one such child.
    """
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    out: dict = {}
    add = lambda key, v: out.__setitem__(key, out.get(key, 0) + v)
    for i, s in enumerate(spans):
        dur = s.end - s.start
        layer = s.name.split(".", 1)[0]
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.busy_s", dur)
        add(f"{s.name}.self_s",
            dur - covered([(spans[k].start, spans[k].end) for k in kids[i]], s.start, s.end))
        if s.size is not None:
            add(f"{s.name}.size", s.size)
            out[f"{s.name}.size_max"] = max(out.get(f"{s.name}.size_max", 0), s.size)
        if s.error is not None:
            add(f"{s.name}.raised.{s.error}", 1)
        add(f"{layer}.calls", 1)
        if s.parent < 0 or not spans[s.parent].name.startswith(layer + "."):
            add(f"{layer}.busy_s", dur)
        for child in {spans[k].name for k in kids[i]}:
            add(f"{s.name}>{child}", 1)
    return out


def merge(into: dict, totals: dict) -> dict:
    """Add ``totals`` into ``into``; *.size_max keys take the maximum."""
    for key, v in totals.items():
        if key.endswith(".size_max"):
            into[key] = max(into.get(key, 0), v)
        else:
            into[key] = into.get(key, 0) + v
    return into


class Tracer:
    def __init__(self, keep: int = 20_000):
        self.totals: dict = {}
        self.kept: list[Span] = []
        self.keep = keep
        self._open: list = []   # spans under the open root, in start order
        self._stack: list[int] = []
        self._closed: list[list[Span]] = []  # root span forests not yet folded

    def _enter(self):
        idx = len(self._open)
        parent = self._stack[-1] if self._stack else -1
        self._open.append(None)
        self._stack.append(idx)
        return idx, parent

    def _exit(self, idx, span: Span):
        self._open[idx] = span
        self._stack.pop()
        if not self._stack:
            self._closed.append(self._open)
            self._open = []

    def flush(self):
        """Fold the closed root spans into the totals.  Call it between
        operations, so that folding is not timed as part of one."""
        for spans in self._closed:
            merge(self.totals, fold(spans))
            self._keep(spans)
        self._closed = []

    def _keep(self, spans):
        """Append spans to ``kept`` while there is room, re-basing parents."""
        base = len(self.kept)
        self.kept.extend(s._replace(parent=s.parent + base if s.parent >= 0 else -1)
                         for s in spans[:max(self.keep - base, 0)])

    @contextlib.contextmanager
    def span(self, name: str):
        idx, parent = self._enter()
        error = None
        start = perf_counter()
        try:
            yield
        except BaseException as ex:
            error = type(ex).__name__
            raise
        finally:
            self._exit(idx, Span(name, start, perf_counter(), parent, error, None))

    @contextlib.contextmanager
    def muted(self):
        """Drop the spans of everything run inside."""
        self.flush()
        totals, kept = self.totals, self.kept
        self.totals, self.kept = {}, []
        try:
            yield
        finally:
            self._closed = []
            self.totals, self.kept = totals, kept

    def wrap(self, name: str, fn, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._enter()
            error = out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as ex:
                error = type(ex).__name__
                raise
            finally:
                end = perf_counter()
                n = size(args, out) if size is not None and error is None else None
                self._exit(idx, Span(name, start, end, parent, error, n))
        return traced

    def wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx, parent = self._enter()
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    self._exit(idx, Span(name, start, perf_counter(), parent, None, 0))
                    return
                except BaseException as ex:
                    self._exit(idx, Span(name, start, perf_counter(), parent,
                                         type(ex).__name__, None))
                    raise
                self._exit(idx, Span(name, start, perf_counter(), parent, None, 1))
                yield item
        return traced

    def install(self):
        """Rebind every wrapped function in every loaded markovnorm module."""
        import markovnorm  # noqa: F401  (loads every submodule)

        wrappers = {}
        for layer, sizes in WRAPPED.items():
            mod = sys.modules[f"markovnorm.{layer}"]
            names = dict(sizes)
            if layer == "intervals":
                names.update({n: sizes.get(n) for n in vars(mod)
                              if n.startswith("iv_") and callable(getattr(mod, n))})
            for fname, size in names.items():
                fn = getattr(mod, fname)
                name = f"{layer}.{fname}"
                if inspect.isgeneratorfunction(fn):
                    wrappers[id(fn)] = (fn, self.wrap_generator(name, fn))
                else:
                    wrappers[id(fn)] = (fn, self.wrap(name, fn, size))
        for modname, mod in list(sys.modules.items()):
            if modname != "markovnorm" and not modname.startswith("markovnorm."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def take(self):
        """Totals and kept spans since the last take; both are reset."""
        self.flush()
        totals, kept = self.totals, self.kept
        self.totals, self.kept = {}, []
        self.keep -= len(kept)
        return totals, kept

    def absorb(self, totals: dict, kept: list):
        """Add what another process's tracer took, its spans as plain tuples."""
        merge(self.totals, totals)
        self._keep([Span(*s) for s in kept])

    def write(self, path: str):
        self.flush()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.kept:
                fh.write(json.dumps(s._asdict()) + "\n")
