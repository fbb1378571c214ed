"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own algorithms: ranks by
Gaussian elimination over Fractions, isomorphism by backtracking permutation
search, characteristic polynomials by Leibniz expansion over all
permutations and by Faddeev-LeVerrier over Fractions, minimal polynomials by Krylov elimination on the powers of A, the scaled
resolvent as a polynomial in A instead of an inverse, the star-set residual
as the Fraction block product B^T (mu I - C)^{-1} B, attachment candidates
by evaluating the bilinear form on every subset, star sets by ranking
every complement, brute-force star-set extension search by building every
possible graph and counting eigenvalue multiplicities, polynomial gcds by the Euclidean algorithm over Fractions,
maximal extensions without the symmetry reduction, assembling every
clique, and canonical codes from the whole individualization-refinement
tree with no automorphism pruning.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from starcomp import (
    Graph,
    Polynomial,
    adjacency_matrix,
    assemble_graph,
    build_compat_graph,
    canonical_form,
    eig_multiplicity,
    enumerate_candidates,
    induced_subgraph,
    is_regular,
    make_complete_split,
    resolvent_bilinear,
)
from starcomp.extend import ExtensionReport, MaximalGraph, maximal_cliques
from starcomp.graphs import _encode, _individualize, _refine


def fraction_rank(rows) -> int:
    """Rank by plain Gaussian elimination over Fraction; the rank oracle."""
    m = [[Fraction(v) for v in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    for c in range(nc):
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
        r += 1
        if r == nr:
            break
    return r


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


def unpruned_canon_code(g: Graph) -> tuple[int, list[int]]:
    """Minimum adjacency code over every leaf of the individualization-
    refinement tree that graphs._canon_search walks (same refinement, same
    target cell: the first smallest nontrivial cell), with no automorphism
    pruning and no backjump.  Returns the code and the first leaf (vertex ->
    position) attaining it.  The tree has at least |Aut(g)| leaves."""
    neighbors = [g.neighbors(v) for v in range(g.n)]

    def leaves(colors):
        colors = _refine(neighbors, colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        split = [cells[c] for c in sorted(cells) if len(cells[c]) > 1]
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
