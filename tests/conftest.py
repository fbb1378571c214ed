"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own algorithms: ranks and
null spaces by Gauss-Jordan elimination over Fractions, isomorphism by
backtracking permutation search, characteristic polynomials by Leibniz expansion over all
permutations and by Faddeev-LeVerrier over Fractions, minimal polynomials by Krylov elimination on the powers of A, the scaled
resolvent as a polynomial in A instead of an inverse, the star-set residual
as the Fraction block product B^T (mu I - C)^{-1} B, attachment candidates
by evaluating the bilinear form on every subset, star sets by ranking
every complement, graph6 decoded bit by bit, brute-force star-set
extension search by building every possible graph and counting eigenvalue multiplicities, polynomial gcds by the Euclidean algorithm over Fractions,
maximal extensions without the symmetry reduction, assembling every
clique, and canonical codes from the whole individualization-refinement
tree with no automorphism pruning, refined by the classic colour numbering
(each round re-ranks every vertex by its old colour and sorted neighbour
colours) instead of the package's ordered cells.

For H = K_s + tK_1 it also holds the paper's stated closed forms, each
expanded by hand as the paper prints it: the minimal polynomial, the
cocktail-party spectrum as a product over its roots, the resolvent blocks,
the diagonal quintic, the non-main linear relation, the quadratic in a and
the forced type at t + mu = 0.  The package computes
from the block-resolvent coefficients alone; the tests check its results
against these formulas.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm
from typing import Optional

import numpy as np
import pytest

from starcomp import (
    BlockSpec,
    Candidate,
    Graph,
    Polynomial,
    TypeVector,
    adjacency_matrix,
    assemble_graph,
    build_compat_graph,
    canonical_form,
    coeffs,
    eig_multiplicity,
    enumerate_candidates,
    induced_subgraph,
    is_regular,
    kernels,
    make_complete_split,
    resolvent_bilinear,
)
from starcomp.extend import ExtensionReport, MaximalGraph, maximal_cliques
from starcomp.graphs import MAX_VERTICES, Graph6Error
from starcomp.multipartite import MuIsSplitEigenvalueError


def fraction_echelon(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by plain Gauss-Jordan elimination over
    Fraction, and its pivot columns."""
    m = [[Fraction(v) for v in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[int] = []
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def fraction_rank(rows) -> int:
    """Rank as the pivot count of fraction_echelon; the rank oracle."""
    return len(fraction_echelon(rows)[1])


def fraction_null_space(rows) -> list[list[int]]:
    """The null-space basis of an integer row list with n columns, as n rows;
    the oracle for linalg._null_space.  Column t is the solution with x_f = 1
    on the t-th free column f and 0 on the other free columns, read off the
    Fraction echelon form and scaled to a primitive integer vector."""
    m, pivots = fraction_echelon(rows)
    n = len(rows[0]) if rows else 0
    cols = []
    for f in sorted(set(range(n)) - set(pivots)):
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for i, c in enumerate(pivots):
            x[c] = -m[i][f]
        scale = lcm(*(v.denominator for v in x))
        ints = [int(v * scale) for v in x]
        content = gcd(*ints)
        cols.append([v // content for v in ints])
    return [[col[v] for col in cols] for v in range(n)]


@pytest.fixture
def bareiss_calls(monkeypatch) -> list[int]:
    """Records the pivot_cols argument of every kernels._bareiss call."""
    calls: list[int] = []
    original = kernels._bareiss

    def counted(m, pivot_cols):
        calls.append(pivot_cols)
        return original(m, pivot_cols)

    monkeypatch.setattr(kernels, "_bareiss", counted)
    return calls


def fraction_inverse(m) -> np.ndarray:
    """Inverse by plain Gauss-Jordan elimination over Fraction; the inverse
    oracle.  Raises ZeroDivisionError on a singular matrix."""
    n = len(m)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        out[i, :] = aug[i][n:]
    return out


def identity_matrix(n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=object)
    for i in range(n):
        m[i, i] = 1
    return m


def random_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_graph_with_twins(n: int, twins: int, rng: random.Random) -> Graph:
    """A random graph on n vertices, then `twins` vertices each added as a
    false twin (same neighbours) or a true twin (same neighbours plus the
    edge) of a uniformly chosen earlier vertex."""
    adj = random_graph(n, rng).adj.astype(bool).tolist()
    for _ in range(twins):
        v = rng.randrange(len(adj))
        row = adj[v][:]
        row[v] = rng.random() < 0.5  # a true twin is adjacent to v
        for u, bit in enumerate(row):
            adj[u].append(bit)
        adj.append(row + [False])
    return Graph.from_adjacency(np.array(adj, dtype=np.uint8))


def bitwise_parse_graph6(text: str) -> Graph:
    """graph6 decoded bit by bit in Python, with the package's error
    messages and byte offsets: the oracle for graphs.parse_graph6."""
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<") :]
    data = text.encode("ascii", errors="replace")
    if len(data) == 0:
        raise Graph6Error("empty graph6 string", 0)
    for pos, byte in enumerate(data):
        if byte < 63 or byte > 126:
            raise Graph6Error(f"invalid graph6 byte {byte!r}", pos)
    if data[0] == 126:
        if len(data) < 2 or data[1] == 126:
            raise Graph6Error("graph6 size prefix for n > 258047 not supported", 0)
        if len(data) < 4:
            raise Graph6Error("truncated graph6 size prefix", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
        body_offset = 4
    else:
        n = data[0] - 63
        body = data[1:]
        body_offset = 1
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds bound {MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise Graph6Error(
            f"graph6 body has {len(body)} bytes, expected {expect} for n={n}",
            body_offset + min(len(body), expect),
        )
    adj = np.zeros((n, n), dtype=np.uint8)
    k = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[k // 6]
            bit = (byte - 63) >> (5 - k % 6) & 1
            adj[i, j] = bit
            adj[j, i] = bit
            k += 1
    while k < 6 * len(body):
        if (body[k // 6] - 63) >> (5 - k % 6) & 1:
            raise Graph6Error("nonzero padding bit", body_offset + k // 6)
        k += 1
    return Graph.from_adjacency(adj)


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking search over vertex bijections; the n <= 10 oracle."""
    if g.n != h.n:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    n = g.n
    ga, ha = g.adj, h.adj
    mapping = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or g.degree(v) != h.degree(w):
                continue
            if all(ga[v, u] == ha[w, mapping[u]] for u in range(v)):
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return extend(0)


# Colour refinement by the classic numbering: a vertex's new colour is the
# rank of (old colour, sorted neighbour colours).  graphs._canon_search
# refines ordered cells instead and must give the same partitions in the
# same order; these are the oracle it is checked against.


def _refine(neighbors: list[tuple[int, ...]], colors: list[int]) -> list[int]:
    """Stable color refinement: split classes by multisets of neighbor colors.

    New color ids are assigned from the sorted signature order, so they depend
    only on the structure of the partition, never on vertex labels.
    """
    n = len(colors)
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in neighbors[v])))
            for v in range(n)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[sigs[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _individualize(colors: list[int], w: int) -> list[int]:
    sigs = [(colors[v], 1 if v == w else 0) for v in range(len(colors))]
    order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
    return [order[sigs[v]] for v in range(len(colors))]


def colour_cells(colors: list[int]) -> list[list[int]]:
    """The colour classes in colour order, each sorted."""
    cells: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    return cells


def _encode(adj: np.ndarray, position: list[int]) -> int:
    """Adjacency bits packed as one big int, read in canonical position order."""
    n = len(position)
    vert_at = [0] * n
    for v, p in enumerate(position):
        vert_at[p] = v
    code = 0
    for i in range(n):
        vi = vert_at[i]
        for j in range(i + 1, n):
            code = (code << 1) | int(adj[vi, vert_at[j]])
    return code


def unpruned_canon_code(g: Graph) -> tuple[int, list[int]]:
    """Minimum adjacency code over every leaf of the individualization-
    refinement tree that graphs._canon_search walks (same partitions, here
    from the colour numbering, same target cell: the first smallest
    nontrivial cell), with no automorphism pruning and no backjump.
    Returns the code and the first leaf (vertex -> position) attaining it.
    The tree has at least |Aut(g)| leaves."""
    neighbors = [g.neighbors(v) for v in range(g.n)]

    def leaves(colors):
        colors = _refine(neighbors, colors)
        split = [cell for cell in colour_cells(colors) if len(cell) > 1]
        if not split:
            yield _encode(g.adj, colors), colors
            return
        for w in min(split, key=len):
            yield from leaves(_individualize(colors, w))

    return min(leaves([0] * g.n), key=lambda leaf: leaf[0])


def leibniz_char_poly(adj) -> Polynomial:
    """det(xI - A) by summing over all permutations; independent of
    Berkowitz and Faddeev-LeVerrier.  Only sensible for n <= 7."""
    arr = np.asarray(adj, dtype=object)
    n = arr.shape[0]
    x = Polynomial([0, 1])
    entries = [
        [
            x - Polynomial([arr[i, j]]) if i == j else Polynomial([-arr[i, j]])
            for j in range(n)
        ]
        for i in range(n)
    ]
    total = Polynomial([])
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            v = start
            while not seen[v]:
                seen[v] = True
                v = perm[v]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = Polynomial([sign])
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + term
    return total


def faddeev_leverrier_char_poly(m) -> Polynomial:
    """det(xI - M) by the Faddeev-LeVerrier recurrence over Fractions:
    M_k = M (M_{k-1} + c_{k-1} I), c_k = -tr(M_k) / k."""
    arr = np.asarray(m, dtype=object)
    n = arr.shape[0]
    cs = [Fraction(1)]  # coefficient of x^n, then x^{n-1}, ...
    aux = identity_matrix(n)
    for k in range(1, n + 1):
        aux = arr @ aux
        ck = Fraction(-sum(aux[i, i] for i in range(n)), k)
        cs.append(ck)
        for i in range(n):
            aux[i, i] += ck
    return Polynomial(list(reversed(cs)))


def krylov_min_poly(m) -> Polynomial:
    """Minimal polynomial from the first linear dependence among I, M, M^2,
    ..., by Fraction elimination on the vectorized powers, tracking the
    combination so the dependence is read off directly.  Any square M."""
    arr = np.asarray(m, dtype=object)
    n = arr.shape[0]
    if n == 0:
        return Polynomial([1])
    basis: list[tuple[int, list[Fraction], list[Fraction]]] = []
    power = identity_matrix(n)
    k = 0
    while True:
        vec = [Fraction(v) for v in power.reshape(-1)]
        combo = [Fraction(0)] * k + [Fraction(1)]
        for pivot, bvec, bcombo in basis:
            f = vec[pivot]
            if f == 0:
                continue
            vec = [a - f * b for a, b in zip(vec, bvec)]
            for i, c in enumerate(bcombo):
                combo[i] -= f * c
        pivot = next((i for i, v in enumerate(vec) if v != 0), None)
        if pivot is None:
            return Polynomial(combo)
        inv = 1 / vec[pivot]
        vec = [v * inv for v in vec]
        combo_n = [c * inv for c in combo]
        basis.append((pivot, vec, combo_n))
        power = power @ arr
        k += 1


def euclid_poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean remainder sequence over Fractions, built on
    Polynomial.__divmod__ rather than the package's integer pseudo-remainder
    gcd; the zero polynomial only for 0 and 0."""
    while b.degree >= 0:
        a, b = b, divmod(a, b)[1]
    if a.degree < 0:
        return a
    return Polynomial([c / a.coeffs[-1] for c in a.coeffs])


def minpoly_scaled_resolvent(h: Graph, mu) -> np.ndarray:
    """m(mu) (mu I - A)^{-1} as a polynomial in A, with no matrix inverse.

    With m(x) = x^{d+1} + c_d x^d + ... + c_0 the minimal polynomial of A,
    m(x) - m(mu) = (x - mu) q(x), and m(A) = 0 gives q(A) = m(mu) (mu I - A)^{-1}.
    Synthetic division yields q = sum_i a_i x^i with a_d = 1 and
    a_j = mu a_{j+1} + c_{j+1}.  Assumes mu is not an eigenvalue of h.
    """
    mu = Fraction(mu)
    n = h.n
    if n == 0:
        return np.zeros((0, 0), dtype=object)
    adj = adjacency_matrix(h)
    m = krylov_min_poly(adj)
    d = m.degree - 1
    a = [Fraction(0)] * (d + 1)
    a[d] = Fraction(1)
    for j in range(d - 1, -1, -1):
        a[j] = mu * a[j + 1] + m.coeff(j + 1)
    out = identity_matrix(n) * a[d]
    for j in range(d - 1, -1, -1):
        out = out @ adj
        for i in range(n):
            out[i, i] += a[j]
    return out


def block_residual(g: Graph, mu, star) -> np.ndarray | None:
    """(mu I - A_X) - B^T (mu I - C)^{-1} B over Fractions, the inverse taken
    from the polynomial oracle; None when mu is an eigenvalue of C = A(G - X)."""
    mu = Fraction(mu)
    star = sorted(star)
    comp = [v for v in range(g.n) if v not in set(star)]
    h = induced_subgraph(g, comp)
    m_mu = krylov_min_poly(adjacency_matrix(h))(mu)
    if m_mu == 0:
        return None
    inv = minpoly_scaled_resolvent(h, mu) / m_mu
    adj = adjacency_matrix(g)
    a_x = adj[np.ix_(star, star)]
    b = adj[np.ix_(comp, star)]
    return mu * identity_matrix(len(star)) - a_x - b.T @ inv @ b


def complement_rank_star_sets(g: Graph, mu) -> list[tuple[int, ...]]:
    """Every k-subset X (k the multiplicity of mu) in combinations order
    whose complement has full Fraction rank in A - mu I, that is with mu not
    an eigenvalue of G - X; no eigenspace basis is formed."""
    mu = Fraction(mu)
    shifted = [[int(v) - (mu if i == j else 0) for j, v in enumerate(r)]
               for i, r in enumerate(g.adj)]
    k = g.n - fraction_rank(shifted)
    hits = []
    for star in combinations(range(g.n), k):
        keep = [v for v in range(g.n) if v not in star]
        if fraction_rank([[shifted[i][j] for j in keep] for i in keep]) == len(keep):
            hits.append(star)
    return hits


def exhaustive_candidates(h: Graph, mu, nonmain: bool) -> list[tuple[int, ...]]:
    """Every H-neighborhood b with <b, b> = mu (and <b, j> = -1 if nonmain),
    by evaluating resolvent_bilinear on each of the 2^n subsets in turn."""
    out = []
    ones = np.ones(h.n, dtype=object)
    for mask in range(1 << h.n):
        vec = np.array([(mask >> v) & 1 for v in range(h.n)], dtype=object)
        if resolvent_bilinear(h, mu, vec, vec) != mu:
            continue
        if nonmain and resolvent_bilinear(h, mu, vec, ones) != -1:
            continue
        out.append(tuple(v for v in range(h.n) if (mask >> v) & 1))
    return sorted(out)


def attachment_pattern(masks: tuple[int, ...], adjacency: frozenset) -> tuple:
    """Canonical label of an attachment: neighborhood masks of the added
    vertices plus the adjacency among them, minimized over relabelings."""
    k = len(masks)
    best = None
    for perm in permutations(range(k)):
        pm = tuple(masks[perm[i]] for i in range(k))
        pa = frozenset(
            (min(perm.index(a), perm.index(b)), max(perm.index(a), perm.index(b)))
            for a, b in adjacency
        )
        key = (pm, tuple(sorted(pa)))
        if best is None or key < best:
            best = key
    return best


def brute_force_extensions(h: Graph, mu, k: int) -> set[tuple]:
    """Every way to add k vertices to h so mu gets multiplicity exactly k.

    Enumerates all neighborhood masks for the new vertices and all adjacency
    patterns among them, keeps the graphs where eig_multiplicity(G, mu) == k,
    and returns their canonical attachment patterns.  Assumes mu is not an
    eigenvalue of h, so each hit is a genuine star-set extension.
    """
    mu = Fraction(mu)
    n = h.n
    base_edges = h.edges()
    found = set()
    all_masks = range(1 << n)
    if k == 1:
        for m1 in all_masks:
            g = _attach(h, base_edges, [m1], frozenset())
            if eig_multiplicity(g, mu) == 1:
                found.add(attachment_pattern((m1,), frozenset()))
    elif k == 2:
        for m1 in all_masks:
            for m2 in range(m1, 1 << n):
                for e in (frozenset(), frozenset({(0, 1)})):
                    g = _attach(h, base_edges, [m1, m2], e)
                    if eig_multiplicity(g, mu) == 2:
                        found.add(attachment_pattern((m1, m2), e))
    elif k == 3:
        pair_opts = [(0, 1), (0, 2), (1, 2)]
        for m1 in all_masks:
            for m2 in range(m1, 1 << n):
                for m3 in range(m2, 1 << n):
                    for bits in range(8):
                        e = frozenset(
                            pair_opts[i] for i in range(3) if (bits >> i) & 1
                        )
                        g = _attach(h, base_edges, [m1, m2, m3], e)
                        if eig_multiplicity(g, mu) == 3:
                            found.add(attachment_pattern((m1, m2, m3), e))
    else:
        raise ValueError("brute force supports k <= 3")
    return found


def unreduced_extensions(
    h: Graph, mu, nonmain: bool, regular_only: bool, maximal_only: bool
) -> ExtensionReport:
    """maximal_extensions with no symmetry reduction: every clique (every
    nonempty sub-clique unless maximal_only) is assembled, and the first
    clique of each isomorphism class in sorted order is its witness."""
    mu = Fraction(mu)
    cands = enumerate_candidates(h, mu, nonmain=nonmain)
    table = build_compat_graph(h, mu, cands)
    cliques = maximal_cliques(table)
    if not maximal_only:
        cliques = sorted(
            {sub for c in cliques for k in range(1, len(c) + 1) for sub in combinations(c, k)}
        )
    by_canon = {}
    for clique in cliques:
        graph, star = assemble_graph(table, clique)
        regular = is_regular(graph)
        if regular_only and regular is None:
            continue
        canon = canonical_form(graph)
        by_canon.setdefault(canon, MaximalGraph(graph, star, tuple(clique), regular, canon))
    return ExtensionReport(
        complement=h,
        mu=mu,
        nonmain=nonmain,
        regular_only=regular_only,
        maximal_only=maximal_only,
        candidates=tuple(cands),
        maximal_graphs=tuple(sorted(by_canon.values(), key=lambda m: (m.graph.n, m.canonical))),
    )


def _attach(h: Graph, base_edges, masks, internal) -> Graph:
    n = h.n
    edges = list(base_edges)
    for i, mask in enumerate(masks):
        edges.extend((n + i, v) for v in range(n) if (mask >> v) & 1)
    edges.extend((n + a, n + b) for a, b in internal)
    return Graph(n + len(masks), edges)


def split_graph_corpus() -> list[Graph]:
    return [make_complete_split(s, t) for s in (2, 3) for t in (2, 3)]


# ---------------------------------------------------------------------------
# The paper's closed forms for H = K_s + tK_1
# ---------------------------------------------------------------------------


def split_type(c: Candidate, s: int) -> tuple[int, int]:
    """(clique-side degree a, independent-side degree b) for a split H."""
    a = sum(1 for v in c.vertices if v < s)
    return a, len(c.vertices) - a


def minpoly_formula(spec: BlockSpec) -> Polynomial:
    """x^4 + (2-s) x^3 + (1-s-st) x^2 - st x, monic of degree 4."""
    s, t = spec.s, spec.t
    return Polynomial([0, -s * t, 1 - s - s * t, 2 - s, 1])


def expected_spectrum_from_roots(s: int) -> Polynomial:
    """The cocktail-party graph CP(s + 1)'s characteristic polynomial,
    (x - 2s) x^{s+1} (x + 2)^s, multiplied out from its 2s + 2 roots."""
    return Polynomial.from_roots([2 * s] + [0] * (s + 1) + [-2] * s)


def resolvent_block(spec: BlockSpec, mu) -> np.ndarray:
    """m(mu)(mu I - A(H))^{-1} assembled from the closed-form blocks: the
    object matrix ((alpha J + beta mu I, delta J), (delta J, gamma J +
    beta (mu+1) I)) with diagonal blocks of sizes s and t."""
    c = coeffs(spec, mu)
    mu = Fraction(mu)
    s, n = spec.s, spec.s + spec.t
    out = np.full((n, n), c.delta, dtype=object)
    out[:s, :s] = c.alpha
    out[s:, s:] = c.gamma
    out[range(n), range(n)] = (
        [c.alpha + c.beta * mu] * s + [c.gamma + c.beta * (mu + 1)] * spec.t
    )
    return out


def diag_constraint(spec: BlockSpec, mu, a: int, b: int) -> Fraction:
    """mu m(mu) - m(mu) <b_u, b_u> for a type-(a,b) candidate, expanded.

    Zero exactly when the type satisfies the diagonal condition <b,b> = mu:

        mu^5 + (2-s) mu^4 + (1-b-s-st-a) mu^3
        + (as - 2b - 2ab + bs - st - a^2 - a) mu^2
        + (bs - 2ab - b - a^2 t - b^2 s + ast + bst) mu - s b^2 + stb
    """
    mu = Fraction(mu)
    s, t = spec.s, spec.t
    return (
        mu**5
        + (2 - s) * mu**4
        + (1 - b - s - s * t - a) * mu**3
        + (a * s - 2 * b - 2 * a * b + b * s - s * t - a * a - a) * mu**2
        + (b * s - 2 * a * b - b - a * a * t - b * b * s + a * s * t + b * s * t) * mu
        - s * b * b
        + s * t * b
    )


def nonmain_constraint(spec: BlockSpec, mu, a: int, b: int) -> Fraction:
    """a(mu+t) + b(mu+1) - [s(mu+t) - mu(mu+1)]; zero iff <b,j> = -1 holds."""
    mu = Fraction(mu)
    s, t = spec.s, spec.t
    return a * (mu + t) + b * (mu + 1) - (s * (mu + t) - mu * (mu + 1))


def quadratic_in_a(spec: BlockSpec, mu) -> Polynomial:
    """The polynomial in a obtained by eliminating b from the two constraints.

        (t + mu) a^2 + (t + 2mu - 2st - 2smu + tmu + 2mu^2) a
        + mu - st - 2smu + s^2 t - 2smu^2 + s^2 mu + 3mu^2 + 3mu^3
        + mu^4 - stmu

    Integer roots in [0, s] are the admissible clique-side degrees, provided
    mu is not itself an eigenvalue of H (otherwise no candidate of any type
    exists regardless of roots).  When t + mu = 0 the leading coefficient
    vanishes and the a-coefficient becomes mu(mu+1), leaving a linear
    equation.  mu = -1 is rejected: the elimination divides by mu + 1.
    """
    mu = Fraction(mu)
    s, t = spec.s, spec.t
    if mu == -1:
        raise MuIsSplitEigenvalueError(
            f"mu=-1 is an eigenvalue of K_{s} + {t}K_1"
        )
    const = (
        mu
        - s * t
        - 2 * s * mu
        + s * s * t
        - 2 * s * mu * mu
        + s * s * mu
        + 3 * mu * mu
        + 3 * mu**3
        + mu**4
        - s * t * mu
    )
    linear = t + 2 * mu - 2 * s * t - 2 * s * mu + t * mu + 2 * mu * mu
    return Polynomial([const, linear, t + mu])


def corollary_ab(spec: BlockSpec, mu) -> Optional[TypeVector]:
    """The forced candidate type in the t + mu = 0 regime.

    a = -mu^2 - 2mu + s - 1 and b = -mu = t; returns None when that a falls
    outside [0, s], which means no candidate of any type exists.
    """
    mu = Fraction(mu)
    if spec.t + mu != 0:
        raise ValueError("closed-form type requires t + mu = 0")
    a = -mu * mu - 2 * mu + spec.s - 1
    if a.denominator != 1:
        return None
    a = int(a)
    if not 0 <= a <= spec.s:
        return None
    return TypeVector(a=a, b=spec.t)
