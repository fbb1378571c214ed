"""Span tracer for one starcomp command, installed from outside the package.

Each wrapper replaces a layer function at the name its callers look it up
by (``starcomp.extend.canonical_form``, ``starcomp.kernels.try_int_rank``,
...).  A function imported into several modules is wrapped at each of them,
so every call passes through exactly one wrapper.  A call records a span
(name, start, end, parent) plus the counts its layer metric needs; a span's
self time is its duration minus that of its direct children.

The tracer is single-threaded: traced commands run with ``--threads 1``.
"""

from __future__ import annotations

import importlib
import time
from fractions import Fraction


class TraceError(RuntimeError):
    """A wrapped name is gone, or a layer the workload must use never ran."""


def _scan_masks(args):
    # Both subset scans take (..., lo, hi) as their sixth and seventh arguments.
    return args[6] - args[5]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = {}
        self._keys = {}
        self._patched = []

    # -- recording ---------------------------------------------------------

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def distinct(self, name, key):
        self._keys.setdefault(name, set()).add(key)

    def enclosing(self, name):
        """Index of the innermost open span called `name`, or None."""
        for idx in reversed(self.stack):
            if self.spans[idx][0] == name:
                return idx
        return None

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    # -- installation ------------------------------------------------------

    def wrap(self, module_name, attr, span, after=None):
        """Replace module.attr by a wrapper that records a span (none if `span`
        is None); `after(tracer, args, result)` records counts once it returns."""
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise TraceError(f"{module_name}.{attr} no longer exists; update perfbench/tracer.py")

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs) if span is None else self.call(span, fn, args, kwargs)
            if after is not None:
                after(self, args, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def install(self):
        w = self.wrap
        for site in ("starcomp.cli", "starcomp.multipartite"):
            w(site, "maximal_extensions", "extend.maximal_extensions")
        for site in ("starcomp.cli", "starcomp.extend"):
            w(site, "enumerate_candidates", "extend.enumerate_candidates", _after_candidates)
        w("starcomp.extend", "_subset_scan_exact", "extend.subset_scan_exact", _after_exact_scan)
        w("starcomp.extend", "build_compat_graph", "extend.build_compat_graph", _after_compat)
        w("starcomp.extend", "maximal_cliques", "extend.maximal_cliques", _after_cliques)
        w("starcomp.extend", "assemble_graph", "extend.assemble_graph")
        w("starcomp.extend", "resolvent_via_minpoly", "linalg.resolvent_via_minpoly",
          _distinct_inputs("linalg.resolvent_via_minpoly.distinct"))
        for site in ("starcomp.cli", "starcomp.extend", "starcomp.starsets"):
            w(site, "eig_multiplicity", "linalg.eig_multiplicity",
              _distinct_inputs("linalg.eig_multiplicity.distinct"))
        for site in ("starcomp.cli", "starcomp.multipartite"):
            w(site, "char_poly", "linalg.char_poly")
        w("starcomp.extend", "canonical_form", "graphs.canonical_form", _after_extend_canon)
        w("starcomp.graphs", "canonical_form", "graphs.canonical_form")
        w("starcomp.multipartite", "is_isomorphic", "graphs.is_isomorphic")
        w("starcomp.cli", "find_star_sets", "starsets.find_star_sets", _after_find_star_sets)
        # No span: the big-integer fallback after a bail-out stays in find_star_sets' self time.
        w("starcomp.starsets", "_int_rank", None, _after_subset_test)
        for site in ("starcomp.cli", "starcomp.extend", "starcomp.starsets"):
            w(site, "verify_star_set", "starsets.verify_star_set")
        w("starcomp.kernels", "subset_scan_int64", "kernels.subset_scan_int64", _after_int64_scan)
        w("starcomp.kernels", "try_int_rank", "kernels.try_int_rank", _after_rank)
        w("starcomp.cli", "theorem_check", "multipartite.theorem_check")

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- summary -----------------------------------------------------------

    def layers(self):
        """{span name: [inclusive s, self s, calls]} plus raw counts."""
        out = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, [0.0, 0.0, 0])
            row[0] += end - start
            row[1] += end - start - child_time[idx]
            row[2] += 1
        counts = dict(self.counts)
        for name, keys in self._keys.items():
            counts[name] = len(keys)
        return {"spans": out, "counts": counts}


def _after_candidates(tr, args, result):
    tr.count("extend.candidates", len(result))


def _after_exact_scan(tr, args, result):
    tr.count("extend.exact_scan_masks", _scan_masks(args))


def _after_int64_scan(tr, args, result):
    tr.count("kernels.int64_masks", _scan_masks(args))


def _after_compat(tr, args, result):
    c = len(result.candidates)
    pairs = c * (c - 1) // 2
    tr.count("extend.pairs", pairs)
    tr.count(
        "extend.compatible_pairs",
        sum(1 for i in range(c) for j in range(i + 1, c) if result.compatible(i, j)),
    )


def _after_cliques(tr, args, result):
    tr.count("extend.cliques", len(result))


def _distinct_inputs(name):
    def after(tr, args, result):
        tr.distinct(name, (args[0], Fraction(args[1])))  # (graph, mu)

    return after


def _after_extend_canon(tr, args, result):
    # Canonical forms are deduplicated per maximal_extensions call.
    tr.distinct("extend.unique_graphs", (tr.enclosing("extend.maximal_extensions"), result))


def _after_find_star_sets(tr, args, result):
    tr.count("starsets.star_sets", len(result))


def _after_subset_test(tr, args, result):
    tr.count("starsets.subsets_tested")


def _after_rank(tr, args, result):
    if result is None:
        tr.count("kernels.rank_bailouts")


def layer_metrics(layers, caches, wall_traced, wall_untraced):
    """Per-layer metrics from summed span rows, counts and cache_info totals."""
    spans, counts = layers["spans"], layers["counts"]

    def s(name):
        return spans.get(name, [0.0, 0.0, 0])[0]

    def self_s(name):
        return spans.get(name, [0.0, 0.0, 0])[1]

    def calls(name):
        return spans.get(name, [0.0, 0.0, 0])[2]

    def c(name):
        return counts.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(name):
        hits, misses = caches.get(name, (0, 0))
        return ratio(hits, hits + misses)

    int64_masks = c("kernels.int64_masks")
    masks = int64_masks + c("extend.exact_scan_masks")
    return {
        "extend.enumerate_candidates.s": (s("extend.enumerate_candidates"), "s"),
        "extend.masks": (masks, "count"),
        "extend.candidate_hit_ratio": (ratio(c("extend.candidates"), masks), "ratio"),
        "extend.exact_scan_masks": (c("extend.exact_scan_masks"), "count"),
        "extend.build_compat_graph.s": (s("extend.build_compat_graph"), "s"),
        "extend.compatible_pair_frac": (ratio(c("extend.compatible_pairs"), c("extend.pairs")), "ratio"),
        "extend.maximal_cliques.s": (s("extend.maximal_cliques"), "s"),
        "extend.cliques": (c("extend.cliques"), "count"),
        "extend.assemble_graph.s": (s("extend.assemble_graph"), "s"),
        "extend.assemble_graph.self_s": (self_s("extend.assemble_graph"), "s"),
        "extend.assemble_graph.calls": (calls("extend.assemble_graph"), "count"),
        "extend.unique_graph_frac": (
            ratio(c("extend.unique_graphs"), calls("extend.assemble_graph")), "ratio"),
        "linalg.resolvent_via_minpoly.s": (s("linalg.resolvent_via_minpoly"), "s"),
        "linalg.resolvent_via_minpoly.distinct_frac": (
            ratio(c("linalg.resolvent_via_minpoly.distinct"), calls("linalg.resolvent_via_minpoly")),
            "ratio"),
        "linalg.eig_multiplicity.s": (s("linalg.eig_multiplicity"), "s"),
        "linalg.eig_multiplicity.calls": (calls("linalg.eig_multiplicity"), "count"),
        "linalg.eig_multiplicity.distinct_frac": (
            ratio(c("linalg.eig_multiplicity.distinct"), calls("linalg.eig_multiplicity")), "ratio"),
        "linalg.char_poly.s": (s("linalg.char_poly"), "s"),
        "linalg.resolvent_inverse.hit_ratio": (hit_ratio("resolvent_inverse"), "ratio"),
        "linalg.graph_min_poly.hit_ratio": (hit_ratio("graph_min_poly"), "ratio"),
        "graphs.canonical_form.s": (s("graphs.canonical_form"), "s"),
        "graphs.canonical_form.calls": (calls("graphs.canonical_form"), "count"),
        "graphs.is_isomorphic.s": (s("graphs.is_isomorphic"), "s"),
        "starsets.find_star_sets.s": (s("starsets.find_star_sets"), "s"),
        "starsets.find_star_sets.self_s": (self_s("starsets.find_star_sets"), "s"),
        "starsets.subsets_tested": (c("starsets.subsets_tested"), "count"),
        "starsets.star_set_hit_ratio": (
            ratio(c("starsets.star_sets"), c("starsets.subsets_tested")), "ratio"),
        "starsets.verify_star_set.s": (s("starsets.verify_star_set"), "s"),
        "starsets.verify_star_set.self_s": (self_s("starsets.verify_star_set"), "s"),
        "starsets.verify_star_set.calls": (calls("starsets.verify_star_set"), "count"),
        "kernels.subset_scan_int64.s": (s("kernels.subset_scan_int64"), "s"),
        "kernels.masks_per_s": (ratio(int64_masks, s("kernels.subset_scan_int64")), "1/s"),
        "kernels.try_int_rank.s": (s("kernels.try_int_rank"), "s"),
        "kernels.try_int_rank.calls": (calls("kernels.try_int_rank"), "count"),
        "kernels.rank_bailouts": (c("kernels.rank_bailouts"), "count"),
        "multipartite.theorem_check.self_s": (self_s("multipartite.theorem_check"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "trace.overhead_s": (wall_traced - wall_untraced, "s"),
    }
