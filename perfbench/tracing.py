"""In-memory span tracer that wraps gmspec's public functions from outside.

The library is not edited: `Tracer.install` replaces each listed function or
method with a wrapper that records a span (name, start, end, parent) and
restores the originals on `uninstall`.  A function is replaced in every
gmspec module namespace that imported it, so `from .exact import cf_matrix`
in `gmspec.spectrum` is traced too.  Spans live in flat arrays while the run
lasts and are written out once at the end.

A span's self time is its duration minus the durations of its direct child
spans.  Calls are single-threaded and nest, so children never overlap and
the self times of all spans add up to the durations of the root spans.
"""

from __future__ import annotations

import os
import re
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

_CASES = re.compile(r"^(\d+) ")

# Counters read from public surfaces: hook(tracer, args, result, parent) runs
# after a traced call returns; parent is the name id of the calling span.


def _sum_entries(tr, args, result, parent):
    tr.counters["lattice.signs"] += sum(result)


def _count_vertices(tr, args, result, parent):
    tr.counters["gmtree.vertices"] += len(result)
    if parent == tr.name_id("spectrum.enumerate_spectrum"):
        tr.counters["spectrum.elements_built"] += len(result)


def _count_values(tr, args, result, parent):
    tr.counters["spectrum.values"] += len(result)


def _count_hits(tr, args, result, parent):
    tr.counters["spectrum.window_hits"] += len(result)


def _count_cases(tr, args, result, parent):
    for check in result:
        m = _CASES.match(check.detail)
        if m:
            tr.counters["verify.cases"] += int(m.group(1))


def _max_bits(tr, args, result, parent):
    bits = args[1] if len(args) > 1 else 0
    if bits > tr.counters["exact.interval.max_bits"]:
        tr.counters["exact.interval.max_bits"] = bits


def _bytes_out(tr, args, result, parent):
    argv = list(args[0])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            tr.counters["cli.bytes_out"] += os.path.getsize(path)


class Tracer:
    """Records spans around calls into gmspec while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.span_end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A top-level span, such as one workload pass."""
        i = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name, fn, hook=None):
        open_, close = self._open, self._close
        nid = self.name_id(name)
        stack, span_name = self._stack, self.span_name

        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if hook is not None:
                parent = stack[-1]
                hook(self, args, result, span_name[parent] if parent >= 0 else -1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, **kw) -> None:
        """Replace module.attr in every gmspec namespace that holds it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gmspec" or mod_name.startswith("gmspec.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, **kw))

    def install(self) -> None:
        """Wrap the public entry points of every gmspec module."""
        from gmspec import cli, cohn, exact, farey, gmtree, lattice, snake, spectrum, tables, verify

        fn, meth = self.patch_function, self.patch_method
        meth(farey.FareyTriple, "child", "farey.child")
        fn(gmtree, "enumerate_tree", "gmtree.enumerate_tree", hook=_count_vertices)
        fn(gmtree, "gm_node", "gmtree.gm_node")
        fn(gmtree, "characteristic_number", "gmtree.characteristic_number")
        meth(exact.QuadSurd, "__init__", "exact.surd_new")
        meth(exact.QuadSurd, "_cmp", "exact.surd_cmp")
        meth(exact.QuadSurd, "interval", "exact.interval", hook=_max_bits)
        fn(exact, "decimal_str", "exact.decimal")
        fn(exact, "cf_matrix", "exact.cf_matrix")
        fn(cohn, "cohn_closed_form", "cohn.closed_form")
        fn(cohn, "cohn_recursive", "cohn.recursive")
        fn(lattice, "admissible_sequence", "lattice.admissible_sequence", hook=_sum_entries)
        fn(lattice, "segment_sign_sequence", "lattice.segment_sign_sequence", hook=_sum_entries)
        fn(lattice, "gm_distance", "lattice.gm_distance")
        fn(snake, "continuant", "snake.continuant")
        fn(snake, "count_matchings_bruteforce", "snake.bruteforce")
        fn(snake, "build_snake_graph", "snake.build_snake_graph")
        fn(spectrum, "lagrange_value", "spectrum.lagrange_value")
        fn(spectrum, "alpha_fixed_point", "spectrum.alpha_fixed_point")
        fn(spectrum, "markov_value", "spectrum.markov_value")
        fn(spectrum, "enumerate_spectrum", "spectrum.enumerate_spectrum", hook=_count_values)
        fn(spectrum, "transition_scan", "spectrum.transition_scan", hook=_count_hits)
        for suite in ("factorization", "rotation", "duality", "snake", "squares"):
            fn(verify, f"{suite}_suite", f"verify.{suite}", hook=_count_cases)
        fn(tables, "reproduce_tables", "tables.reproduce_tables")
        fn(cli, "run", "cli.run", hook=_bytes_out)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
        """Per span name: total self time, call count, and the count of calls
        whose direct parent has each name (keyed 'child<-parent')."""
        n = len(self.span_start)
        start, end, parent, name = self.span_start, self.span_end, self.span_parent, self.span_name
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        edges: dict[str, int] = defaultdict(int)
        names = self.names
        for i in range(n):
            nm = names[name[i]]
            self_s[nm] += end[i] - start[i] - child[i]
            calls[nm] += 1
            p = parent[i]
            if p >= 0:
                edges[f"{nm}<-{names[name[p]]}"] += 1
        return self_s, calls, edges

    def write(self, path: str) -> None:
        """Write every span as a CSV row: name,start,end,parent_index."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            names = self.names
            spans = zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            for nid, s, e, p in spans:
                fh.write(f"{names[nid]},{s:.9f},{e:.9f},{p}\n")
