"""Maximal graphs with a prescribed star complement, by exhaustive extension.

Given H and a rational mu outside its spectrum, every vertex that could join
a star set is determined by its H-neighborhood b, which must satisfy
<b, b> = mu under the resolvent bilinear form; for a non-main mu also
<b, j> = -1.  Two candidates u, v can coexist exactly when <b_u, b_v> is -1
(the new vertices are adjacent) or 0 (nonadjacent); any other value is
incompatible.  Maximal graphs with star complement H therefore correspond to
maximal cliques of the "not incompatible" relation, with adjacency inside
the added set dictated by the -1/0 split.

The subset scan works in an integer form for every rational mu = p/q: with
(mu I - A)^{-1} = Y / d from the cached resolvent_inverse and g the gcd of d
and the entries of Y, <b, b> = mu iff b^T R b = p d/g for R = q Y/g, and
<b, j> = -1 iff b^T R j = -q d/g.  One split-half scan covers both cases:
in int64, sharded across threads, when mu is integral and every accumulator
provably fits, and over Python ints, as one range, otherwise.
Pair classes use the scaled integer form m(mu) <.,.> of
resolvent_via_minpoly (exact rationals for non-integral mu), compared against
-m(mu) and 0.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .graphs import Graph, canonical_form, is_regular, write_graph6
# eig_multiplicity is not called here; perfbench/tracer.py wraps
# extend.eig_multiplicity, so the name stays importable from this module.
from .linalg import (  # noqa: F401
    SingularResolventError,
    eig_multiplicity,
    format_rational,
    graph_min_poly,
    resolvent_inverse,
    resolvent_via_minpoly,
)
from .starsets import DEFAULT_BUDGET, BudgetExceededError, verify_star_set


class EngineRestrictionError(ValueError):
    """mu in {0, -1} is outside the engine's supported regime."""


class MuIsEigenvalueError(ValueError):
    """mu must avoid the spectrum of the prescribed star complement."""


class IncompatiblePairError(ValueError):
    """A candidate pair with a bilinear value other than -1 or 0 was combined."""


class PairClass(enum.Enum):
    ADJACENT = "adjacent"
    NONADJACENT = "nonadjacent"
    INCOMPATIBLE = "incompatible"


@dataclass(frozen=True)
class Candidate:
    """Prospective star-set vertex, identified by its H-neighborhood."""

    vertices: tuple[int, ...]

    @property
    def mask(self) -> int:
        m = 0
        for v in self.vertices:
            m |= 1 << v
        return m

    def vector(self, n: int) -> np.ndarray:
        vec = np.zeros(n, dtype=object)
        for v in self.vertices:
            vec[v] = 1
        return vec

    def split_type(self, s: int) -> tuple[int, int]:
        """(clique-side degree a, independent-side degree b) for a split H."""
        a = sum(1 for v in self.vertices if v < s)
        return a, len(self.vertices) - a


def _mask_to_candidate(mask: int, n: int) -> Candidate:
    return Candidate(tuple(v for v in range(n) if (mask >> v) & 1))


def _scaled_resolvent(h: Graph, mu: Fraction):
    """(m(mu) (mu I - A)^{-1}, m(mu)) with spectrum membership rejected."""
    try:
        res = resolvent_via_minpoly(h, mu)
    except SingularResolventError:
        raise MuIsEigenvalueError(
            f"mu={format_rational(mu)} is an eigenvalue of the star complement"
        ) from None
    return res, graph_min_poly(h)(mu)


def _subset_scan_exact(res, rj, want_diag, want_j, use_j, lo, hi):
    """The split-half subset scan over Python ints, same masks as the int64 path.

    Used for the integer forms the int64 path cannot take: non-integral mu,
    and integral mu whose accumulators could pass kernels.ACCUMULATOR_LIMIT.
    res and rj are object arrays of Python ints, so every sum stays exact.
    perfbench/tracer.py wraps this name and kernels.subset_scan_int64, so
    the scan is reached by its own name to count each mask once.
    """
    return kernels._subset_scan_numpy(res, rj, want_diag, want_j, use_j, lo, hi).tolist()


def enumerate_candidates(
    h: Graph,
    mu,
    nonmain: bool = True,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> list[Candidate]:
    """All H-neighborhoods b with <b,b> = mu (and <b,j> = -1 when nonmain).

    Exhausts the 2^|V(H)| subsets, in lexicographic order of the vertex
    tuples.  mu in {0, -1} is rejected: there the neighborhoods stop being
    distinct and nonempty and the compatibility reading breaks down.
    """
    mu = Fraction(mu)
    if mu in (0, -1):
        raise EngineRestrictionError(
            f"mu={format_rational(mu)} is not supported by the extension engine"
        )
    total = 1 << h.n
    if total > budget:
        raise BudgetExceededError(
            f"2^{h.n} = {total} subsets exceeds budget {budget}"
        )
    if h.n == 0:
        return []  # <b,b> = 0 != mu for the only subset
    try:
        y, d = resolvent_inverse(h, mu)
    except SingularResolventError:
        # No graph can have H as a star complement for one of H's own
        # eigenvalues, so the candidate set is empty by definition.
        return []
    n = h.n
    p, q = mu.numerator, mu.denominator
    g = math.gcd(d, *y.reshape(-1))
    res = (y // g) * q
    rj = res.sum(axis=1)
    want_diag = p * (d // g)
    want_j = -q * (d // g)
    bounds_ok = (
        q == 1
        and (n + 2) ** 2 * max(abs(v) for v in res.flat) < kernels.ACCUMULATOR_LIMIT
        and max(abs(want_diag), abs(want_j)) < kernels.ACCUMULATOR_LIMIT
    )

    if bounds_ok:
        ranges = _even_ranges(total, threads)
        res64 = res.astype(np.int64)
        rj64 = rj.astype(np.int64)

        def scan(rng):
            lo, hi = rng
            return kernels.subset_scan_int64(
                res64, rj64, np.int64(want_diag), np.int64(want_j), nonmain, lo, hi
            ).tolist()
    else:
        # Object arithmetic holds the GIL, so shards would only repeat the
        # low-bit table: the Python-int scan runs as one range.
        ranges = [(0, total)]

        def scan(rng):
            lo, hi = rng
            return _subset_scan_exact(res, rj, want_diag, want_j, nonmain, lo, hi)

    if threads <= 1 or len(ranges) == 1:
        masks = [m for rng in ranges for m in scan(rng)]
    else:
        masks = []
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for chunk in pool.map(scan, ranges):
                masks.extend(chunk)
    cands = [_mask_to_candidate(m, n) for m in masks]
    cands.sort(key=lambda c: c.vertices)
    return cands


def _even_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, total))
    step = (total + parts - 1) // parts
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _scaled_pair_value(res, u: Candidate, v: Candidate):
    acc = 0
    for i in u.vertices:
        row = res[i]
        for j in v.vertices:
            acc += row[j]
    return acc


def pair_class(h: Graph, mu, u: Candidate, v: Candidate) -> PairClass:
    """Classify a candidate pair by the exact scaled bilinear value."""
    mu = Fraction(mu)
    res, m_mu = _scaled_resolvent(h, mu)
    return _classify(_scaled_pair_value(res, u, v), m_mu)


def _classify(value, m_mu) -> PairClass:
    if value == -m_mu:
        return PairClass.ADJACENT
    if value == 0:
        return PairClass.NONADJACENT
    return PairClass.INCOMPATIBLE


@dataclass(frozen=True)
class CompatTable:
    """Candidates plus the symmetric pairwise classification.

    The diagonal is incompatible by convention: a candidate only ever pairs
    with itself as the same vertex.
    """

    candidates: tuple[Candidate, ...]
    classes: np.ndarray  # object array of PairClass

    def pair(self, i: int, j: int) -> PairClass:
        return self.classes[i, j]

    def compatible(self, i: int, j: int) -> bool:
        return i != j and self.classes[i, j] is not PairClass.INCOMPATIBLE


def build_compat_graph(h: Graph, mu, candidates: Sequence[Candidate]) -> CompatTable:
    """Tabulate pair_class over all candidate pairs with one cached resolvent."""
    mu = Fraction(mu)
    if not candidates:
        empty = np.empty((0, 0), dtype=object)
        empty.setflags(write=False)
        return CompatTable(candidates=(), classes=empty)
    res, m_mu = _scaled_resolvent(h, mu)
    c = len(candidates)
    classes = np.full((c, c), PairClass.INCOMPATIBLE, dtype=object)
    for i in range(c):
        for j in range(i + 1, c):
            cls = _classify(
                _scaled_pair_value(res, candidates[i], candidates[j]), m_mu
            )
            classes[i, j] = cls
            classes[j, i] = cls
    classes.setflags(write=False)
    return CompatTable(candidates=tuple(candidates), classes=classes)


def _bron_kerbosch(neighbors: list[set[int]], n: int) -> list[tuple[int, ...]]:
    """Maximal cliques with max-degree pivoting; deterministic order."""
    cliques: list[tuple[int, ...]] = []

    def expand(r: list[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(
            sorted(p | x), key=lambda v: len(p & neighbors[v])
        )
        for v in sorted(p - neighbors[pivot]):
            expand(r + [v], p & neighbors[v], x & neighbors[v])
            p.remove(v)
            x.add(v)

    expand([], set(range(n)), set())
    return sorted(cliques)


def maximal_cliques(table: CompatTable) -> list[tuple[int, ...]]:
    """Maximal candidate sets that are pairwise not incompatible."""
    n = len(table.candidates)
    if n == 0:
        return []
    neighbors = [
        {j for j in range(n) if table.compatible(i, j)} for i in range(n)
    ]
    return _bron_kerbosch(neighbors, n)


def assemble_graph(
    h: Graph, mu, chosen: Sequence[Candidate]
) -> tuple[Graph, tuple[int, ...]]:
    """Attach the chosen candidates to H; adjacency inside the new set comes
    from the bilinear values (-1 adjacent, 0 nonadjacent).

    The result is re-verified as a star-set certificate before returning.
    """
    mu = Fraction(mu)
    res, m_mu = _scaled_resolvent(h, mu)
    k = len(chosen)
    n = h.n + k
    edges = list(h.edges())
    for i, cand in enumerate(chosen):
        edges.extend((h.n + i, v) for v in cand.vertices)
    for i in range(k):
        for j in range(i + 1, k):
            cls = _classify(_scaled_pair_value(res, chosen[i], chosen[j]), m_mu)
            if cls is PairClass.INCOMPATIBLE:
                raise IncompatiblePairError(
                    f"candidates {chosen[i].vertices} and {chosen[j].vertices} "
                    f"cannot coexist for mu={format_rational(mu)}"
                )
            if cls is PairClass.ADJACENT:
                edges.append((h.n + i, h.n + j))
    g = Graph(n, edges)
    star = tuple(range(h.n, n))
    cert = verify_star_set(g, mu, star)
    if not cert.valid:
        raise AssertionError(
            "assembled graph failed star-set verification; this is a bug"
        )
    return g, star


@dataclass(frozen=True)
class MaximalGraph:
    graph: Graph
    star_vertices: tuple[int, ...]
    witness: tuple[int, ...]  # candidate indices of the clique
    regular: Optional[int]
    canonical: bytes

    def to_json(self) -> dict:
        return {
            "graph6": write_graph6(self.graph),
            "X": list(self.star_vertices),
            "regular": self.regular,
        }


@dataclass(frozen=True)
class ExtensionReport:
    complement: Graph
    mu: Fraction
    nonmain: bool
    regular_only: bool
    maximal_only: bool
    candidates: tuple[Candidate, ...]
    maximal_graphs: tuple[MaximalGraph, ...]

    def to_json(self) -> dict:
        return {
            "H": write_graph6(self.complement),
            "mu": format_rational(self.mu),
            "candidates": len(self.candidates),
            "maximal": [m.to_json() for m in self.maximal_graphs],
            "filters": {
                "nonmain": self.nonmain,
                "regular_only": self.regular_only,
                "maximal_only": self.maximal_only,
            },
        }


def maximal_extensions(
    h: Graph,
    mu,
    nonmain: bool = True,
    regular_only: bool = False,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
    maximal_only: bool = True,
) -> ExtensionReport:
    """Enumerate the maximal graphs having H as a star complement for mu.

    Candidate cliques are deduplicated by canonical form (keeping the
    lexicographically smallest witness) and optionally filtered to regular
    graphs.  Regularity is an isomorphism invariant, so the filter runs
    before the canonical form and leaves the same survivors and witnesses.
    With maximal_only=False every nonempty clique is reported, not just the
    maximal ones; their count, sum(2^|c| - 1) over the maximal cliques c,
    must not exceed budget.
    """
    mu = Fraction(mu)
    cands = enumerate_candidates(h, mu, nonmain=nonmain, budget=budget, threads=threads)
    table = build_compat_graph(h, mu, cands)
    cliques = maximal_cliques(table)
    if not maximal_only:
        subcliques = sum((1 << len(c)) - 1 for c in cliques)
        if subcliques > budget:
            raise BudgetExceededError(
                f"{subcliques} sub-cliques of {len(cliques)} maximal cliques "
                f"exceeds budget {budget}"
            )
        seen = set()
        for clique in cliques:
            for size in range(1, len(clique) + 1):
                seen.update(combinations(clique, size))
        cliques = sorted(seen)
    by_canon: dict[bytes, MaximalGraph] = {}
    order: list[bytes] = []
    for clique in cliques:
        if not clique:
            continue
        graph, star = assemble_graph(h, mu, [cands[i] for i in clique])
        regular = is_regular(graph)
        if regular_only and regular is None:
            continue
        canon = canonical_form(graph)
        if canon in by_canon:
            continue
        by_canon[canon] = MaximalGraph(
            graph=graph,
            star_vertices=star,
            witness=tuple(clique),
            regular=regular,
            canonical=canon,
        )
        order.append(canon)
    found = [by_canon[c] for c in order]
    found.sort(key=lambda m: (m.graph.n, m.canonical))
    return ExtensionReport(
        complement=h,
        mu=mu,
        nonmain=nonmain,
        regular_only=regular_only,
        maximal_only=maximal_only,
        candidates=tuple(cands),
        maximal_graphs=tuple(found),
    )


@dataclass(frozen=True)
class DegreeBalance:
    """The three degree expressions a regular completion must reconcile.

    For H a complete split graph with clique size s and independent part t,
    a regular graph of degree r built over it forces
        r = s + |X|            (independent-part vertex)
        r = s - 1 + t + c      (clique vertex with c neighbors in X)
        r = a + b + d          (star-set vertex with d neighbors in X)
    """

    r_independent: int
    r_clique: int
    r_star: int

    @property
    def consistent(self) -> bool:
        return self.r_independent == self.r_clique == self.r_star

    def to_json(self) -> dict:
        return {
            "r_independent": self.r_independent,
            "r_clique": self.r_clique,
            "r_star": self.r_star,
            "consistent": self.consistent,
        }


def degree_balance(
    s: int, t: int, x_size: int, a: int, b: int, c: int, d: int
) -> DegreeBalance:
    return DegreeBalance(
        r_independent=s + x_size,
        r_clique=s - 1 + t + c,
        r_star=a + b + d,
    )
