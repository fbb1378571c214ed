"""Maximal graphs with a prescribed star complement, by exhaustive extension.

Given H and a rational mu outside its spectrum, every vertex that could join
a star set is determined by its H-neighborhood b, which must satisfy
<b, b> = mu under the resolvent bilinear form; for a non-main mu also
<b, j> = -1.  A candidate is just b, written as its ascending tuple of
Python ints.  Two candidates u, v can coexist exactly when <b_u, b_v> is -1
(the new vertices are adjacent) or 0 (nonadjacent); any other value is
incompatible.  Maximal graphs with star complement H therefore correspond to
maximal cliques of the "not incompatible" relation, with adjacency inside
the added set dictated by the -1/0 split.

The subset scan reads the cached integer pair (R, D) of resolvent_inverse,
R = D (mu I - A)^{-1} with D mu integral: <b, b> = mu iff b^T R b = mu D,
and <b, j> = -1 iff b^T R j = -D.  One scan (kernels) covers both cases, in
int64 when mu is integral and every intermediate provably fits, and over
Python ints otherwise.  Pair classes use the scaled form R' = m(mu) R / D of
resolvent_via_minpoly: with the candidates as the rows of a 0/1 matrix C,
every scaled pair value m(mu) <b_u, b_v> is an entry of the one product
C R' C^T, compared against -m(mu) and 0, under the same rule.  The
table takes an integral mu only: <b, b> = mu makes mu a rational
eigenvalue of the integer matrix A(H + v), an integer, so a non-integral
mu has no candidates.  build_compat_graph does this once per run and keeps C and the two masks in
a CompatTable: the masks are the only record of the pair classes (adjacent,
and compat = adjacent or nonadjacent), and assemble_graph slices each
clique's block adjacency from them.

The clique stage runs on the compat rows packed into ints (graphs._bitsets):
Bron-Kerbosch with pivoting (CACM 16 (1973), Algorithm 457) finds the
maximal cliques, and with maximal_only=False a depth-first walk over the
same rows lists every nonempty clique.

Only one clique per symmetry orbit is assembled.  A transposition of twins
in H (equal adjacency rows, or equal rows plus the identity) is an
automorphism sigma, and <sigma b, sigma c> = <b, c>, <sigma b, j> = <b, j>:
sigma maps candidates to candidates and cliques to cliques of the same
table, and the graphs they assemble are isomorphic.  These transpositions
generate the twin group G = Sym(V_1) x ... x Sym(V_k) of the twin classes
V_i; for K_s + tK_1 that is all of Aut(H) = S_s x S_t.  The first clique of
an isomorphism class in sorted order is the first of its own G-orbit, so
keeping the first clique of every G-orbit keeps every witness, and the
report keeps every byte (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26 (1998)).

The maximal cliques are found orbit first.  G maps candidate b to c exactly
when |b & V_i| = |c & V_i| for every i.  Take these candidate orbits in
order of their first candidate r.  The first clique of a G-orbit of cliques
meets some earliest candidate orbit O; an element of G moves one of its
members onto r_O, and r_O precedes every candidate of O and of later
orbits, so that first clique contains r_O and no candidate of an earlier
orbit.  So one Bron-Kerbosch per orbit, from R = {r_O} with the earlier
orbits' candidates in X, lists a short family that still holds it.  The
family is closed under the stabilizer of b_r in G, a Young subgroup
generated by transpositions inside each V_i & b_r and each V_i - b_r, and is
cut to the first clique of each of its orbits, which keeps the first clique
of each G-orbit.  Every clique of root r has r as its least member, so the
roots' lists, in root order, join into one sorted list.  For split:14,3 at
mu = -3 (non-main) that is one search listing 1575 cliques, not 525 525.
maximal_only=False lists every sub-clique and cuts that sorted list under
all of G, since the first sub-clique of a class need not lie in an orbit's
first maximal clique.

maximal_extensions returns its report as the JSON payload that the CLI
writes, and the CLI renders its text report from the same dict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .graphs import Graph, _bitsets, _twin_classes, canonical_form, is_regular, vertex_set
from .graphs import write_graph6
# eig_multiplicity is not called here; perfbench/tracer.py wraps
# extend.eig_multiplicity, so the name stays importable from this module.
from .linalg import (  # noqa: F401
    PreconditionError,
    SingularResolventError,
    eig_multiplicity,
    format_rational,
    graph_min_poly,
    poly_eval,
    resolvent_inverse,
    resolvent_via_minpoly,
)
from .starsets import DEFAULT_BUDGET, BudgetExceededError, verify_star_set


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
    decoded = None
    for first in range(0, n, DECODE_BITS):
        width = min(DECODE_BITS, n - first)
        table = [()]
        for v in range(first, first + width):
            table += [t + (v,) for t in table]
        chunk = map(table.__getitem__, ((masks >> first) & ((1 << width) - 1)).tolist())
        decoded = list(chunk) if decoded is None else list(map(tuple.__add__, decoded, chunk))
    return [()] * len(masks) if decoded is None else decoded


def _lex_order(masks: np.ndarray, n: int) -> np.ndarray:
    """The distinct int64 masks below 2^n, reordered so that their vertex
    tuples are in lexicographic order.

    The key is a set's position in the preorder of the subset trie, whose
    children add one vertex above the parent's largest, in ascending order;
    that preorder is the lexicographic order of the tuples.  Before a
    nonempty S come its |S| proper prefixes and, for each v not in S below
    max(S), the 2^(n-1-v) sets of the subtree that adds v there:
        rank(S) = |S| + sum of 2^(n-1-v) over v not in S, v < max(S)
                = |S| + 2^n - rev(S) - lowbit(rev(S)),
    with rev(S) the sum of 2^(n-1-v) over v in S, whose lowest set bit is
    2^(n-1-max(S)); the empty set ranks 0.  |S| and rev(S) are summed from
    tables over DECODE_BITS bits at a time, so every array has one entry
    per mask.
    """
    size = np.zeros(len(masks), dtype=np.int64)
    rev = size.copy()
    for first in range(0, n, DECODE_BITS):
        width = min(DECODE_BITS, n - first)
        count = np.zeros(1 << width, dtype=np.int64)
        weight = count.copy()
        for i in range(width):
            k = 1 << i
            count[k : 2 * k] = count[:k] + 1
            weight[k : 2 * k] = weight[:k] + (1 << (n - 1 - first - i))
        chunk = (masks >> first) & ((1 << width) - 1)
        size += count[chunk]
        rev += weight[chunk]
    rank = np.where(rev > 0, (1 << n) + size - rev - (rev & -rev), 0)
    # The ranks are distinct, so every sort agrees; numpy's default
    # quicksort maps about 0.2 MiB more of its SIMD code into each process.
    return masks[np.argsort(rank, kind="stable")]


# perfbench/tracer.py wraps this name and reads its positional i0, i1.
_subset_scan_exact = kernels._subset_scan_numpy


# 2^n is written out in a budget error only up to this n; Python refuses to
# convert ints of more than 4300 digits (2^14284) to decimal by default.
BUDGET_DECIMAL_BITS = 64


def check_subset_budget(n: int, budget: int) -> int:
    """2^n subsets to scan; BudgetExceededError if that exceeds budget."""
    total = 1 << n
    if total > budget:
        power = f"2^{n} = {total}" if n <= BUDGET_DECIMAL_BITS else f"2^{n}"
        raise BudgetExceededError(f"{power} subsets exceeds budget {budget}")
    return total


def enumerate_candidates(
    h: Graph,
    mu,
    nonmain: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[int, ...]]:
    """All H-neighborhoods b with <b,b> = mu (and <b,j> = -1 when nonmain).

    Exhausts the 2^|V(H)| subsets.  The candidates come in lexicographic
    order of their vertex tuples: the scan's masks are put in that order in
    numpy (_lex_order) and only then decoded, so no tuple is compared.  mu
    in {0, -1} is rejected: there the neighborhoods stop being distinct and
    nonempty and the compatibility reading breaks down.
    """
    mu = Fraction(mu)
    if mu in (0, -1):
        raise PreconditionError(
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
    if not len(masks):
        return []  # before the chunk tables of _lex_order and _decode_masks
    return _decode_masks(_lex_order(masks, n), n)


class CompatTable(NamedTuple):
    """Candidates of one (H, mu) with every pair classified once.

    attachment holds the candidates' 0/1 rows as uint8; adjacent[i, j] says
    that the pair value is -1 and compat[i, j] that it is -1 or 0.  All
    three arrays are read-only, and both masks are False on the diagonal: a
    candidate only ever pairs with itself as the same vertex.
    """

    h: Graph
    mu: Fraction
    candidates: tuple[tuple[int, ...], ...]
    attachment: np.ndarray
    adjacent: np.ndarray
    compat: np.ndarray

    def compatible(self, i: int, j: int) -> bool:
        return bool(self.compat[i, j])


def build_compat_graph(h: Graph, mu, candidates: Sequence[tuple[int, ...]]) -> CompatTable:
    """Classify every candidate pair with one product C R' C^T, compared
    against -m(mu) and 0, in the dtype kernels.int_dtype proves safe.
    ValueError if a candidate has a vertex outside H or is not strictly
    ascending (its row's order), and, from resolvent_via_minpoly, if the
    list is nonempty and mu is not an integer: a non-integral mu has no
    candidates.  SingularResolventError, from the same call, if mu is an
    eigenvalue of H."""
    mu = Fraction(mu)
    c = np.zeros((len(candidates), h.n), dtype=np.uint8)
    for i, cand in enumerate(candidates):
        if (row := vertex_set(h, cand, "candidate")) != tuple(cand):
            raise ValueError(f"candidate {tuple(cand)} is not strictly ascending")
        c[i, list(row)] = 1
    adjacent = np.zeros((len(candidates),) * 2, dtype=bool)
    compat = adjacent.copy()
    if candidates:
        res = resolvent_via_minpoly(h, mu)
        m_mu = poly_eval(graph_min_poly(h), int(mu))
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


def _bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        yield (low := mask & -mask).bit_length() - 1
        mask ^= low


def maximal_cliques(
    table: CompatTable,
    limit: int = DEFAULT_BUDGET,
    root: int | None = None,
    exclude: int = 0,
    rows: list[int] | None = None,
) -> list[tuple[int, ...]]:
    """Maximal candidate sets that are pairwise not incompatible, sorted, at
    most `limit` of them (BudgetExceededError past that): Bron-Kerbosch on
    the compat rows as ints, pivoting on the first vertex of P | X with the
    most neighbours in P and branching in bit order.

    With a root, only the maximal cliques that contain candidate `root` and
    no candidate of the bitmask `exclude` are listed: the search starts
    from R = {root}, P = compat(root) minus exclude and X = compat(root)
    within exclude, so a clique that an excluded candidate extends is not
    maximal and is not listed either.  `rows`, the compat rows as ints
    (graphs._bitsets), spares a caller with many roots rebuilding them.
    """
    nbr = _bitsets(table.compat) if rows is None else rows
    index = list(range(len(nbr))).__getitem__  # one int object per candidate
    cliques: list[tuple[int, ...]] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p | x:
            if len(cliques) == limit:
                raise BudgetExceededError(
                    f"more than {limit} maximal cliques exceeds budget {limit}"
                )
            cliques.append(tuple(map(index, _bits(r))))
        elif p:
            pivot = max(_bits(p | x), key=lambda v: (p & nbr[v]).bit_count())
            for v in _bits(p & ~nbr[pivot]):
                expand(r | 1 << v, p & nbr[v], x & nbr[v])
                p, x = p ^ 1 << v, x | 1 << v

    if root is not None:
        expand(1 << root, nbr[root] & ~exclude, nbr[root] & exclude)
    elif nbr:
        expand(0, (1 << len(nbr)) - 1, 0)
    return sorted(cliques)


def all_cliques(table: CompatTable) -> list[tuple[int, ...]]:
    """Every nonempty clique of the compat rows, once each and in lexicographic
    order: a depth-first walk that extends a clique only by higher bits."""
    nbr = _bitsets(table.compat)
    index = list(range(len(nbr)))
    out: list[tuple[int, ...]] = []

    def walk(r: tuple[int, ...], cand: int) -> None:
        for v in _bits(cand):
            out.append(r + (index[v],))
            walk(out[-1], cand & nbr[v] & -2 << v)

    walk((), (1 << len(nbr)) - 1)
    return out


def _twin_parts(h: Graph) -> list[int]:
    """The twin classes of H (graphs._twin_classes) as vertex bitmasks, in
    order of their first vertex."""
    parts: dict[int, int] = {}
    for v, first in enumerate(_twin_classes(_bitsets(h.adj))):
        parts[first] = parts.get(first, 0) | 1 << v
    return list(parts.values())


def _consecutive(mask: int) -> list[tuple[int, int]]:
    """The transpositions of consecutive members of a vertex bitmask; they
    generate its symmetric group."""
    vs = list(_bits(mask))
    return list(zip(vs, vs[1:]))


def twin_transpositions(h: Graph) -> list[tuple[int, int]]:
    """Transpositions of twins in H, each an automorphism of H.

    u and v are twins when their open or their closed neighbourhoods are
    equal (graphs._twin_classes).  Within each twin class the transpositions
    of consecutive members are returned; they generate the symmetric group
    of the class, so for K_s + tK_1 they generate all of S_s x S_t.
    """
    return [pair for part in _twin_parts(h) for pair in _consecutive(part)]


def _orbit_roots(table: CompatTable) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """The roots of the orbit-first clique search, one per orbit of the twin
    group G = Sym(V_1) x ... x Sym(V_k) on the table's candidates, the V_i
    being the twin classes of H.

    G maps b to c exactly when |b & V_i| = |c & V_i| for every i; that count
    vector, the attachment row times the classes' 0/1 columns, is the
    orbit's key.  The orbits come in order of their first candidate r, each
    as (r, the bitmask of the candidates in earlier orbits, the consecutive
    transpositions inside each V_i & b_r and each V_i - b_r); the last
    generate the stabilizer of b_r in G.
    """
    n, parts = table.h.n, _twin_parts(table.h)
    columns = np.array([[part >> v & 1 for part in parts] for v in range(n)], dtype=np.intp)
    counts = table.attachment @ columns.reshape(n, len(parts))
    orbits: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(map(tuple, counts.tolist())):
        orbits.setdefault(key, []).append(i)
    twins = [part for part in parts if part & (part - 1)]  # classes of 2 or more
    roots, earlier = [], 0
    for members in orbits.values():
        b = sum(1 << v for v in table.candidates[members[0]])
        stabilizer = [pair for part in twins for pair in _consecutive(part & b) + _consecutive(part & ~b)]
        roots.append((members[0], earlier, stabilizer))
        earlier |= sum(1 << i for i in members)
    return roots


def _transposition_perms(table: CompatTable):
    """A lookup from a transposition (u, v) of H's vertices to the
    permutation of candidate indices that it induces, built on first use
    from the candidates' H-neighbourhoods as ints.  A transposition that
    maps a candidate off the table raises."""
    masks: list[int] = []
    index: dict[int, int] = {}
    built: dict[tuple[int, int], np.ndarray] = {}

    def perm(pair: tuple[int, int]) -> np.ndarray:
        if not index:
            masks.extend(_bitsets(table.attachment))
            index.update((m, i) for i, m in enumerate(masks))
        if pair not in built:
            u, v = pair
            swap = (1 << u) | (1 << v)
            images = [m ^ swap if (m >> u ^ m >> v) & 1 else m for m in masks]
            if not all(m in index for m in images):
                raise AssertionError(f"({u} {v}) maps a candidate off the table; this is a bug")
            built[pair] = np.array([index[m] for m in images], dtype=np.intp)
        return built[pair]

    return perm


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
    cliques: list[tuple[int, ...]], generators: list[tuple[int, int]], perm
) -> list[tuple[int, ...]]:
    """The first clique of each orbit of the group the generators span.

    generators are transpositions of H's vertices and perm is
    _transposition_perms of the table.  cliques must be sorted and closed
    under every generator: an automorphism of H keeps every pair value, so
    it maps candidates to candidates and cliques to cliques, and the
    maximal cliques of a table, their sub-cliques, and the maximal cliques
    through a root that avoid a union of orbits are each closed under the
    automorphisms that fix that root and those orbits.  The cliques of one
    size, stacked as rows, are in lex order; a generator's images, sorted
    the same way, must be exactly those rows, and the sort then says which
    clique maps to which.  A missing image raises.  A list of at most one
    clique is returned as it is.
    """
    if len(cliques) < 2 or not generators:
        return cliques
    root = np.arange(len(cliques))
    for size in sorted({len(c) for c in cliques}):
        at = np.array([i for i, c in enumerate(cliques) if len(c) == size])
        rows = np.array([cliques[i] for i in at], dtype=np.intp).reshape(len(at), size)
        for u, v in generators:
            images = np.sort(perm((u, v))[rows], axis=1)
            order = np.lexsort(images.T[::-1])
            if not np.array_equal(images[order], rows):
                raise AssertionError(f"({u} {v}) maps a clique off the list; this is a bug")
            _merge(root, at[order], at)  # clique at[order[k]] maps to clique at[k]
    return [c for i, c in enumerate(cliques) if root[i] == i]


def assemble_graph(table: CompatTable, clique: Sequence[int]) -> Graph:
    """Attach the candidates with the given indices to H; adjacency inside
    the new set is the table's -1/0 split.  The added vertices, the star
    set, are h.n, ..., g.n - 1 in the clique's order.

    The graph is the block adjacency ((A(H), C_K^T), (C_K, ADJ_K)), sliced
    from the table's attachment rows (0/1) and adjacent mask (symmetric, no
    diagonal), so it is a graph and is wrapped unchecked.  The result is
    re-verified as a star-set certificate before returning.  ValueError if
    an index is outside [0, len(table.candidates)), negative ones included,
    or if two of the candidates cannot coexist.
    """
    k = np.asarray(clique, dtype=np.intp)
    if ((k < 0) | (k >= len(table.candidates))).any():
        raise ValueError(
            f"clique {k.tolist()} has an index outside [0, {len(table.candidates)})"
        )
    bad = np.argwhere(np.triu(~table.compat[np.ix_(k, k)], 1))
    if len(bad):
        i, j = bad[0]  # argwhere is row-major: the first pair in (i, j) order
        raise ValueError(
            f"candidates {table.candidates[k[i]]} and {table.candidates[k[j]]} "
            f"cannot coexist for mu={format_rational(table.mu)}"
        )
    h, c = table.h, table.attachment[k]
    g = Graph._of(np.block([[h.adj, c.T], [c, table.adjacent[np.ix_(k, k)]]]))
    if not verify_star_set(g, table.mu, [range(h.n, g.n)])[0]["valid"]:
        raise AssertionError(
            "assembled graph failed star-set verification; this is a bug"
        )
    return g


def maximal_extensions(
    h: Graph,
    mu,
    nonmain: bool = True,
    regular_only: bool = False,
    budget: int = DEFAULT_BUDGET,
    maximal_only: bool = True,
) -> dict:
    """Enumerate the maximal graphs having H as a star complement for mu.

    Returns the report's JSON payload {"H", "mu", "candidates" (their
    count), "maximal", "filters"}: one {"graph6", "X", "regular"} per
    isomorphism class, X being the added vertices and regular the common
    degree or None, ordered by canonical form.  A canonical form is graph6,
    whose size prefix sorts by vertex count first.

    Candidate cliques are deduplicated by canonical form, each class
    reported as the graph that its lexicographically smallest clique, the
    witness, assembles, and optionally filtered to regular graphs.
    Regularity is an isomorphism invariant, so the filter runs before the
    canonical form and leaves the same survivors and witnesses.
    budget bounds the 2^|V(H)| subset scan and the number of maximal
    cliques that the search lists, summed over its roots.  With
    maximal_only=False every nonempty clique is reported, not just the
    maximal ones; their count, sum(2^|c| - 1) over the maximal cliques c,
    must not exceed budget either.

    The maximal cliques are found orbit first (module docstring): one
    root-restricted search per orbit of the twin group on the candidates,
    each list cut to the first clique of each orbit of its root's
    stabilizer.  That keeps the first clique of every orbit of the whole
    group, so every witness.  With maximal_only=False the orbits are taken
    after all sub-cliques are listed, since the first sub-clique of a class
    need not lie in an orbit's first maximal clique.  An H without twins
    keeps every clique.
    """
    mu = Fraction(mu)
    cands = enumerate_candidates(h, mu, nonmain=nonmain, budget=budget)
    table = build_compat_graph(h, mu, cands)
    perm = _transposition_perms(table)
    if maximal_only:
        rows = _bitsets(table.compat)
        listed = 0
        # Every clique listed from root r has r as its least member, so the
        # roots' lists, taken in root order, join into one sorted list.
        cliques = []
        for r, earlier, stabilizer in _orbit_roots(table):
            try:
                found = maximal_cliques(table, budget - listed, r, earlier, rows)
            except BudgetExceededError:
                raise BudgetExceededError(
                    f"more than {budget} maximal cliques exceeds budget {budget}"
                ) from None
            listed += len(found)
            cliques += _orbit_representatives(found, stabilizer, perm)
    else:
        maximal = maximal_cliques(table, budget)
        subcliques = sum((1 << len(c)) - 1 for c in maximal)
        if subcliques > budget:
            raise BudgetExceededError(
                f"{subcliques} sub-cliques of {len(maximal)} maximal cliques "
                f"exceeds budget {budget}"
            )
        cliques = _orbit_representatives(all_cliques(table), twin_transpositions(h), perm)
    by_canon: dict[bytes, dict] = {}
    for clique in cliques:
        graph = assemble_graph(table, clique)
        regular = is_regular(graph)
        if regular_only and regular is None:
            continue
        canon = canonical_form(graph)
        if canon not in by_canon:
            by_canon[canon] = {
                "graph6": write_graph6(graph),
                "X": list(range(h.n, graph.n)),
                "regular": regular,
            }
    return {
        "H": write_graph6(h),
        "mu": format_rational(mu),
        "candidates": len(cands),
        "maximal": [by_canon[canon] for canon in sorted(by_canon)],
        "filters": {
            "nonmain": nonmain,
            "regular_only": regular_only,
            "maximal_only": maximal_only,
        },
    }
