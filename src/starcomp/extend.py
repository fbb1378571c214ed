"""Maximal graphs with a prescribed star complement, by exhaustive extension.

Given H and a rational mu outside its spectrum, every vertex that could join
a star set is determined by its H-neighborhood b, which must satisfy
<b, b> = mu under the resolvent bilinear form; for a non-main mu also
<b, j> = -1.  Two candidates u, v can coexist exactly when <b_u, b_v> is -1
(the new vertices are adjacent) or 0 (nonadjacent); any other value is
incompatible.  Maximal graphs with star complement H therefore correspond to
maximal cliques of the "not incompatible" relation, with adjacency inside
the added set dictated by the -1/0 split.

The subset scan reads the cached integer pair (R, D) of resolvent_inverse,
R = D (mu I - A)^{-1} with D mu integral: <b, b> = mu iff b^T R b = mu D,
and <b, j> = -1 iff b^T R j = -D.  One scan covers both cases, with the
form over the low 16 bits of a mask tabulated by doubling and one add and
one compare per pattern of the remaining bits, with no matrix product: in
int64 when mu is integral and every intermediate provably fits, and over
Python ints otherwise.  Pair classes use the scaled form R' = m(mu) R / D
of resolvent_via_minpoly, an integer matrix for integral mu and exact
rationals otherwise: with the candidates as the rows of a 0/1 matrix C,
every scaled pair value m(mu) <b_u, b_v> is an entry of the one product
C R' C^T, compared against -m(mu) and 0.  For integral mu that product runs
in int64 when kernels.int_dtype, the scan's overflow rule, proves that
every entry and m(mu) fit, and over Python ints otherwise; the masks are
the same either way.  build_compat_graph does this once
per run and keeps C and the two resulting masks in a CompatTable;
Bron-Kerbosch reads its rows, and assemble_graph slices the block adjacency
of each clique out of it.

Only one clique per symmetry orbit is assembled.  A transposition of twins
in H (equal adjacency rows, or equal rows plus the identity) is an
automorphism sigma, and <sigma b, sigma c> = <b, c>, <sigma b, j> = <b, j>:
sigma maps candidates to candidates and cliques to cliques of the same
table, and the graphs they assemble are isomorphic.  For K_s + tK_1 these
transpositions generate all of Aut(H) = S_s x S_t.  Before assembly the
sorted clique list is cut to the first clique of each orbit of the group
they generate.  The first clique of an isomorphism class in that list is the
first of its own orbit, so it is still assembled and still the witness, and
the report keeps every byte (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26 (1998)).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .graphs import Graph, canonical_form, is_regular, vertex_set, write_graph6
# eig_multiplicity is not called here; perfbench/tracer.py wraps
# extend.eig_multiplicity, so the name stays importable from this module.
from .linalg import (  # noqa: F401
    PreconditionError,
    SingularResolventError,
    eig_multiplicity,
    format_rational,
    graph_min_poly,
    resolvent_inverse,
    resolvent_via_minpoly,
)
from .starsets import DEFAULT_BUDGET, BudgetExceededError, verify_star_set


class EngineRestrictionError(PreconditionError):
    """mu in {0, -1} is outside the engine's supported regime."""


class MuIsEigenvalueError(PreconditionError):
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


# Masks are decoded DECODE_BITS bits at a time, through a table of the
# 2^DECODE_BITS vertex tuples of each chunk.
DECODE_BITS = 10


def _decode_masks(masks, n: int) -> list[tuple[int, ...]]:
    """The vertex tuple of every mask below 2^n, in input order.

    masks is an int64 array or a list of ints.  Entry m of the table of
    chunk [first, first + width) lists first + i for the set bits i of m;
    joined low chunk first, the chunks' tuples list the vertices in order.
    """
    masks = np.asarray(masks, dtype=np.int64)
    decoded = [()] * len(masks)
    for first in range(0, n, DECODE_BITS):
        width = min(DECODE_BITS, n - first)
        table = [()]
        for v in range(first, first + width):
            table += [t + (v,) for t in table]
        chunk = ((masks >> first) & ((1 << width) - 1)).tolist()
        decoded = list(map(tuple.__add__, decoded, map(table.__getitem__, chunk)))
    return decoded


# perfbench/tracer.py wraps this name and reads its positional i0, i1.
_subset_scan_exact = kernels._subset_scan_numpy


def check_subset_budget(n: int, budget: int) -> int:
    """2^n subsets to scan; BudgetExceededError if that exceeds budget."""
    total = 1 << n
    if total > budget:
        raise BudgetExceededError(f"2^{n} = {total} subsets exceeds budget {budget}")
    return total


def enumerate_candidates(
    h: Graph,
    mu,
    nonmain: bool = True,
    budget: int = DEFAULT_BUDGET,
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
    total = check_subset_budget(h.n, budget)
    if h.n == 0:
        return []  # <b,b> = 0 != mu for the only subset
    try:
        res, den = resolvent_inverse(h, mu)
    except SingularResolventError:
        # No graph can have H as a star complement for one of H's own
        # eigenvalues, so the candidate set is empty by definition.
        return []
    n = h.n
    rj = res.sum(axis=1)
    want_diag = int(mu * den)
    want_j = -den
    # Kept integral-only although int64 would fit many rational mu: every
    # rational mu runs the exact scan, which perfbench's scan workload reaches.
    if mu.denominator == 1 and kernels.int_dtype(res, want_diag, want_j) is np.int64:
        masks = kernels.subset_scan_int64(
            res.astype(np.int64), rj.astype(np.int64),
            np.int64(want_diag), np.int64(want_j), nonmain, 0, total,
        )
    else:
        masks = _subset_scan_exact(res, rj, want_diag, want_j, nonmain, 0, total)
    return list(map(Candidate, sorted(_decode_masks(masks, n))))


@dataclass(frozen=True, eq=False)  # numpy fields: compare by identity
class CompatTable:
    """Candidates of one (H, mu) with every pair classified once.

    attachment holds the candidates' 0/1 rows as uint8; adjacent[i, j] says
    that the pair value is -1 and compat[i, j] that it is -1 or 0.  The
    values come from C R' C^T, in int64 when kernels.int_dtype proves the
    bound and over Python ints otherwise.  All three arrays are read-only,
    and both masks are False on the diagonal: a candidate only ever pairs
    with itself as the same vertex.
    """

    h: Graph
    mu: Fraction
    candidates: tuple[Candidate, ...]
    attachment: np.ndarray
    adjacent: np.ndarray
    compat: np.ndarray

    def pair(self, i: int, j: int) -> PairClass:
        if self.adjacent[i, j]:
            return PairClass.ADJACENT
        return PairClass.NONADJACENT if self.compat[i, j] else PairClass.INCOMPATIBLE

    def compatible(self, i: int, j: int) -> bool:
        return bool(self.compat[i, j])


def build_compat_graph(h: Graph, mu, candidates: Sequence[Candidate]) -> CompatTable:
    """Classify every candidate pair with one product C R' C^T, compared
    against -m(mu) and 0, in the dtype kernels.int_dtype proves safe for an
    integral mu and over Python ints otherwise.  ValueError if a candidate
    has a vertex outside H."""
    mu = Fraction(mu)
    c = np.zeros((len(candidates), h.n), dtype=np.uint8)
    for i, cand in enumerate(candidates):
        c[i, list(vertex_set(h, cand.vertices, "candidate"))] = 1
    adjacent = np.zeros((len(candidates),) * 2, dtype=bool)
    compat = adjacent.copy()
    if candidates:
        try:
            res = resolvent_via_minpoly(h, mu)
        except SingularResolventError:
            raise MuIsEigenvalueError(
                f"mu={format_rational(mu)} is an eigenvalue of the star complement"
            ) from None
        m_mu = graph_min_poly(h)(mu)
        dtype = object
        if mu.denominator == 1:  # then R' and m(mu) are integers
            m_mu = int(m_mu)
            dtype = kernels.int_dtype(res, m_mu)
        cm = c.astype(dtype)
        values = cm @ res.astype(dtype) @ cm.T
        adjacent = values == -m_mu
        compat = adjacent | (values == 0)
        np.fill_diagonal(adjacent, False)
        np.fill_diagonal(compat, False)
    for m in (c, adjacent, compat):
        m.setflags(write=False)
    return CompatTable(h, mu, tuple(candidates), c, adjacent, compat)


def pair_class(h: Graph, mu, u: Candidate, v: Candidate) -> PairClass:
    """Classify a candidate pair by the exact scaled bilinear value."""
    return build_compat_graph(h, mu, [u, v]).pair(0, 1)


def _bron_kerbosch(
    neighbors: list[set[int]], n: int, limit: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """Maximal cliques with max-degree pivoting; deterministic order.

    Raises BudgetExceededError as soon as more than `limit` are found.
    """
    cliques: list[tuple[int, ...]] = []

    def expand(r: list[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            if len(cliques) == limit:
                raise BudgetExceededError(
                    f"more than {limit} maximal cliques exceeds budget {limit}"
                )
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


def maximal_cliques(table: CompatTable, limit: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """Maximal candidate sets that are pairwise not incompatible, at most
    `limit` of them (BudgetExceededError past that)."""
    n = len(table.candidates)
    if n == 0:
        return []
    neighbors = [set(np.flatnonzero(row).tolist()) for row in table.compat]
    return _bron_kerbosch(neighbors, n, limit)


def twin_transpositions(h: Graph) -> list[tuple[int, int]]:
    """Transpositions of twins in H, each an automorphism of H.

    u and v are false twins when their adjacency rows are equal and true
    twins when their rows plus the identity are.  Within each class of equal
    rows the transpositions of consecutive members are returned; they
    generate the symmetric group of the class, so for K_s + tK_1 they
    generate all of S_s x S_t.
    """
    pairs = []
    for rows in (h.adj, h.adj + np.eye(h.n, dtype=h.adj.dtype)):
        last: dict[bytes, int] = {}
        for v in range(h.n):
            key = rows[v].tobytes()
            if key in last:
                pairs.append((last[key], v))
            last[key] = v
    return pairs


def _merge(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Union-find over arrays: join the classes of a[k] and b[k] for every k.

    root must map each index to its class's smallest member, and does so
    again on return: every round hooks the larger of two differing roots
    onto the smaller, then compresses paths until root is idempotent.
    """
    while True:
        ra, rb = root[a], root[b]
        differ = ra != rb
        if not differ.any():
            return
        np.minimum.at(root, np.maximum(ra, rb)[differ], np.minimum(ra, rb)[differ])
        while not np.array_equal(up := root[root], root):
            root[:] = up


def _orbit_representatives(
    table: CompatTable, cliques: list[tuple[int, ...]], generators: list[tuple[int, int]]
) -> list[tuple[int, ...]]:
    """The first clique of each orbit of the group the generators span.

    cliques must be sorted and closed under every generator, as the maximal
    cliques of a table and their sub-cliques are: an automorphism of H keeps
    every pair value, so it maps candidates to candidates and cliques to
    cliques.  The cliques of one size, stacked as rows, are in lex order; a
    generator's images, sorted the same way, must be exactly those rows, and
    the sort then says which clique maps to which.  A missing image raises.
    """
    masks = [c.mask for c in table.candidates]
    index = {m: i for i, m in enumerate(masks)}
    perms = []
    for u, v in generators:
        swap = (1 << u) | (1 << v)
        images = [m ^ swap if (m >> u ^ m >> v) & 1 else m for m in masks]
        if not all(m in index for m in images):
            raise AssertionError(f"({u} {v}) maps a candidate off the table; this is a bug")
        perms.append(np.array([index[m] for m in images], dtype=np.intp))
    root = np.arange(len(cliques))
    for size in sorted({len(c) for c in cliques}):
        at = np.array([i for i, c in enumerate(cliques) if len(c) == size])
        rows = np.array([cliques[i] for i in at], dtype=np.intp).reshape(len(at), size)
        for (u, v), perm in zip(generators, perms):
            images = np.sort(perm[rows], axis=1)
            order = np.lexsort(images.T[::-1])
            if not np.array_equal(images[order], rows):
                raise AssertionError(f"({u} {v}) maps a clique off the list; this is a bug")
            _merge(root, at[order], at)  # clique at[order[k]] maps to clique at[k]
    return [c for i, c in enumerate(cliques) if root[i] == i]


def assemble_graph(
    table: CompatTable, clique: Sequence[int]
) -> tuple[Graph, tuple[int, ...]]:
    """Attach the candidates with the given indices to H; adjacency inside
    the new set is the table's -1/0 split.

    The graph is the block adjacency ((A(H), C_K^T), (C_K, ADJ_K)), sliced
    from the table's attachment matrix and adjacent mask.  The result is
    re-verified as a star-set certificate before returning.
    """
    k = np.asarray(clique, dtype=np.intp)
    bad = np.argwhere(np.triu(~table.compat[np.ix_(k, k)], 1))
    if len(bad):
        i, j = bad[0]  # argwhere is row-major: the first pair in (i, j) order
        raise IncompatiblePairError(
            f"candidates {table.candidates[k[i]].vertices} and "
            f"{table.candidates[k[j]].vertices} "
            f"cannot coexist for mu={format_rational(table.mu)}"
        )
    h, c = table.h, table.attachment[k]
    g = Graph.from_adjacency(np.block([[h.adj, c.T], [c, table.adjacent[np.ix_(k, k)]]]))
    star = tuple(range(h.n, g.n))
    cert = verify_star_set(g, table.mu, star)
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
    maximal_only: bool = True,
) -> ExtensionReport:
    """Enumerate the maximal graphs having H as a star complement for mu.

    Candidate cliques are deduplicated by canonical form (keeping the
    lexicographically smallest witness) and optionally filtered to regular
    graphs.  Regularity is an isomorphism invariant, so the filter runs
    before the canonical form and leaves the same survivors and witnesses.
    budget bounds the 2^|V(H)| subset scan and the number of maximal
    cliques.  With maximal_only=False every nonempty clique is reported, not
    just the maximal ones; their count, sum(2^|c| - 1) over the maximal
    cliques c, must not exceed budget either.

    Only the first clique of each orbit under the twin transpositions of H
    is assembled.  Each orbit lies inside one isomorphism class, so the
    lexicographically smallest witness of every class is the first of its
    orbit and the report does not change.  With maximal_only=False the
    orbits are taken after the sub-cliques are listed, since the first
    sub-clique of a class need not lie in an orbit's first maximal clique.
    An H without twins keeps every clique.
    """
    mu = Fraction(mu)
    cands = enumerate_candidates(h, mu, nonmain=nonmain, budget=budget)
    table = build_compat_graph(h, mu, cands)
    cliques = maximal_cliques(table, budget)
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
    cliques = _orbit_representatives(table, cliques, twin_transpositions(h))
    by_canon: dict[bytes, MaximalGraph] = {}
    for clique in cliques:
        graph, star = assemble_graph(table, clique)
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
    found = sorted(by_canon.values(), key=lambda m: (m.graph.n, m.canonical))
    return ExtensionReport(
        complement=h,
        mu=mu,
        nonmain=nonmain,
        regular_only=regular_only,
        maximal_only=maximal_only,
        candidates=tuple(cands),
        maximal_graphs=tuple(found),
    )
