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
colours) instead of the package's ordered cells.  The command line is parsed
by the argparse parser the package was first built with, instead of its own
table.  The polynomial oracles hold a polynomial as a tuple of Fractions,
low degree first, and use the few operations defined here (poly_trim,
poly_add, poly_mul, poly_divmod, poly_from_roots, poly_at), not the
package's.  Helpers that only tests call live here too: the small graph
constructions (empty, complete, path and cycle graphs, p disjoint edges,
complement, join and disjoint union), a vertex's neighbours and degree,
induced subgraphs, deleting vertices, the sub-star-set check built on the
package's certificate, and the eigenspace basis reconstructed from a star
set.

For H = K_s + tK_1 it also holds the paper's stated closed forms, each
expanded by hand as the paper prints it: the minimal polynomial, the
cocktail-party spectrum as a product over its roots, the resolvent blocks,
the diagonal quintic, the non-main linear relation, the quadratic in a and
the forced type at t + mu = 0, with the block resolvent's coefficients
(coeffs) and the scaled pair value of two candidate types
(closed_bilinear) read off them.  The package computes none of them: it
reads the twin-quotient resolvent (linalg.quotient_form), and the tests
check its results against these formulas.
"""

from __future__ import annotations

import argparse
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm
from typing import Optional

import numpy as np
import pytest

from starcomp import __version__, kernels
from starcomp.cli import (
    cmd_candidates,
    cmd_explore,
    cmd_extend,
    cmd_spectrum,
    cmd_starsets,
    cmd_theorem,
)
from starcomp.extend import (
    assemble_graph,
    build_compat_graph,
    enumerate_candidates,
    maximal_cliques,
)
from starcomp.graphs import (
    Graph,
    Graph6Error,
    MAX_VERTICES,
    canonical_form,
    vertex_set,
    write_graph6,
)
from starcomp.linalg import (
    SingularResolventError,
    eig_multiplicity,
    resolvent_bilinear,
    resolvent_inverse,
)
from starcomp.starsets import DEFAULT_BUDGET, verify_star_set


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


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def matching_graph(p: int) -> Graph:
    """p disjoint edges: vertices 2i and 2i+1 are matched."""
    return Graph(2 * p, ((2 * i, 2 * i + 1) for i in range(p)))


def complement(g: Graph) -> Graph:
    adj = 1 - g.adj
    np.fill_diagonal(adj, 0)
    return Graph.from_adjacency(adj)


def join(g: Graph, h: Graph) -> Graph:
    """Graph join: disjoint union plus all edges between the two parts."""
    n = g.n + h.n
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[: g.n, : g.n] = g.adj
    adj[g.n :, g.n :] = h.adj
    adj[: g.n, g.n :] = 1
    adj[g.n :, : g.n] = 1
    return Graph.from_adjacency(adj)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[: g.n, : g.n] = g.adj
    adj[g.n :, g.n :] = h.adj
    return Graph.from_adjacency(adj)


def neighbors(g: Graph, v: int) -> tuple[int, ...]:
    return tuple(int(u) for u in np.nonzero(g.adj[v])[0])


def degree(g: Graph, v: int) -> int:
    return int(g.adj[v].sum())


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced on `vertices`, relabeled 0..k-1 in sorted order."""
    idx = np.array(vertex_set(g, vertices), dtype=np.intp)
    return Graph._of(g.adj[idx][:, idx])


def delete_vertices(g: Graph, vertices) -> Graph:
    drop = set(int(v) for v in vertices)
    return induced_subgraph(g, [v for v in range(g.n) if v not in drop])


def bitwise_parse_graph6(text: str) -> Graph:
    """graph6 decoded bit by bit in Python, with the package's error
    messages and byte offsets, counted from the start of text with any
    >>graph6<< header included: the oracle for graphs.parse_graph6."""
    skip = len(">>graph6<<") if text.startswith(">>graph6<<") else 0
    for pos, char in enumerate(text[skip:], skip):
        if ord(char) > 127:
            raise Graph6Error(f"non-ASCII character {char!r}", pos)
    text = text[skip:]
    data = text.encode("ascii")
    if len(data) == 0:
        raise Graph6Error("empty graph6 string", skip)
    for pos, byte in enumerate(data, skip):
        if byte < 63 or byte > 126:
            raise Graph6Error(f"invalid graph6 byte {byte!r}", pos)
    if data[0] == 126:
        if len(data) < 2 or data[1] == 126:
            raise Graph6Error("graph6 size prefix for n > 258047 not supported", skip)
        if len(data) < 4:
            raise Graph6Error("truncated graph6 size prefix", skip + len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
        body_offset = skip + 4
    else:
        n = data[0] - 63
        body = data[1:]
        body_offset = skip + 1
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds bound {MAX_VERTICES}", skip)
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
            if used[w] or degree(g, v) != degree(h, w):
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
    nbrs = [neighbors(g, v) for v in range(g.n)]

    def leaves(colors):
        colors = _refine(nbrs, colors)
        split = [cell for cell in colour_cells(colors) if len(cell) > 1]
        if not split:
            yield _encode(g.adj, colors), colors
            return
        for w in min(split, key=len):
            yield from leaves(_individualize(colors, w))

    return min(leaves([0] * g.n), key=lambda leaf: leaf[0])


def poly_trim(coeffs) -> tuple[Fraction, ...]:
    """A polynomial over Fractions, low degree first: the coefficients as
    Fractions with the trailing zeros dropped, the zero polynomial ().  It
    compares equal to the package's tuple of ints for the same polynomial."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a, b) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def poly_mul(a, b) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_divmod(a, b) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(quotient, remainder) of schoolbook long division over Fractions."""
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(poly_trim(a))
    q = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = factor = rem[k + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            rem[k + i] -= factor * c
    return poly_trim(q), poly_trim(rem)


def poly_from_roots(roots) -> tuple[Fraction, ...]:
    """prod (x - r) over the roots, multiplied out."""
    poly = (Fraction(1),)
    for r in roots:
        poly = poly_mul(poly, (-Fraction(r), 1))
    return poly


def poly_at(poly, x) -> Fraction:
    """The polynomial at x, summing c_k x^k term by term."""
    x = Fraction(x)
    return sum((c * x**k for k, c in enumerate(poly)), Fraction(0))


def leibniz_char_poly(adj) -> tuple[Fraction, ...]:
    """det(xI - A) by summing over all permutations; independent of
    Berkowitz and Faddeev-LeVerrier.  Only sensible for n <= 7."""
    arr = np.asarray(adj, dtype=object)
    n = arr.shape[0]
    entries = [
        [(-arr[i, j], 1) if i == j else (-arr[i, j],) for j in range(n)]
        for i in range(n)
    ]
    total: tuple[Fraction, ...] = ()
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
        term = (Fraction(sign),)
        for i in range(n):
            term = poly_mul(term, entries[i][perm[i]])
        total = poly_add(total, term)
    return total


def faddeev_leverrier_char_poly(m) -> tuple[Fraction, ...]:
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
    return poly_trim(reversed(cs))


def krylov_min_poly(m) -> tuple[Fraction, ...]:
    """Minimal polynomial from the first linear dependence among I, M, M^2,
    ..., by Fraction elimination on the vectorized powers, tracking the
    combination so the dependence is read off directly.  Any square M."""
    arr = np.asarray(m, dtype=object)
    n = arr.shape[0]
    if n == 0:
        return (Fraction(1),)
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
            return poly_trim(combo)
        inv = 1 / vec[pivot]
        vec = [v * inv for v in vec]
        combo_n = [c * inv for c in combo]
        basis.append((pivot, vec, combo_n))
        power = power @ arr
        k += 1


def euclid_poly_gcd(a, b) -> tuple[Fraction, ...]:
    """Monic gcd by the Euclidean remainder sequence over Fractions, built on
    poly_divmod rather than the package's integer pseudo-remainder gcd; the
    zero polynomial only for 0 and 0."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


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
    adj = h.adj.astype(object)
    m = krylov_min_poly(adj)
    d = len(m) - 2
    a = [Fraction(0)] * (d + 1)
    a[d] = Fraction(1)
    for j in range(d - 1, -1, -1):
        a[j] = mu * a[j + 1] + m[j + 1]
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
    m_mu = poly_at(krylov_min_poly(h.adj), mu)
    if m_mu == 0:
        return None
    inv = minpoly_scaled_resolvent(h, mu) / m_mu
    adj = g.adj.astype(object)
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


def substar_check(g: Graph, mu, star_set, removed) -> bool:
    """Whether X \\ U remains a star set for mu in G \\ U (U a proper subset of X)."""
    star = set(vertex_set(g, star_set, "star set"))
    drop = set(int(v) for v in removed)
    if not drop <= star:
        raise ValueError("removed vertices must lie inside the star set")
    if drop == star:
        raise ValueError("removed set must be a proper subset of the star set")
    keep = [v for v in range(g.n) if v not in drop]
    reduced_star = [i for i, v in enumerate(keep) if v in star]
    return verify_star_set(induced_subgraph(g, keep), mu, [reduced_star])[0]["valid"]


class InvalidStarSetError(ValueError):
    """eigenspace_from_star was given a set that is not a star set."""

    def __init__(self, certificate):
        super().__init__(
            f"{certificate['X']} is not a star set for mu={certificate['mu']}"
        )
        self.certificate = certificate


def eigenspace_from_star(g: Graph, mu, star_set) -> list[np.ndarray]:
    """Eigenspace basis reconstructed from a star set.

    For each u in X the vector with e_u on X and (mu I - C)^{-1} B e_u, that
    is R B e_u / D, on the complement is an exact eigenvector; together they
    span the eigenspace.  Every returned vector is re-checked against
    A v = mu v.
    """
    mu = Fraction(mu)
    (cert,) = verify_star_set(g, mu, [star_set])
    if not cert["valid"]:
        raise InvalidStarSetError(cert)
    star = cert["X"]
    drop = set(star)
    comp = [v for v in range(g.n) if v not in drop]
    r, den = resolvent_inverse(induced_subgraph(g, comp), mu)
    adj = g.adj.astype(object)
    b = adj[np.ix_(comp, star)]
    basis = []
    for idx in range(len(star)):
        tail = r @ b[:, idx]
        vec = np.zeros(g.n, dtype=object)
        vec[star[idx]] = Fraction(1)
        for pos, v in zip(comp, tail):
            vec[pos] = Fraction(v, den)
        if not np.all(adj @ vec == mu * vec):
            raise AssertionError("reconstructed vector is not an eigenvector")
        basis.append(vec)
    return basis


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
) -> tuple[dict, list[tuple[int, ...]]]:
    """maximal_extensions' payload with no symmetry reduction, and the
    witness of each reported graph: every clique (every nonempty sub-clique
    unless maximal_only) is assembled, and the first clique of each
    isomorphism class in sorted order is its witness.  The payload is built
    here, key by key, with the graphs ordered by (vertex count, canonical
    form)."""
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
        graph = assemble_graph(table, clique)
        degrees = set(graph.adj.sum(axis=1).tolist())
        regular = degrees.pop() if len(degrees) == 1 else None
        if regular_only and regular is None:
            continue
        by_canon.setdefault((graph.n, canonical_form(graph)), (graph, regular, tuple(clique)))
    found = [by_canon[key] for key in sorted(by_canon)]
    payload = {
        "H": write_graph6(h),
        "mu": str(mu),
        "candidates": len(cands),
        "maximal": [
            {"graph6": write_graph6(g), "X": list(range(h.n, g.n)), "regular": regular}
            for g, regular, _ in found
        ],
        "filters": {
            "nonmain": nonmain,
            "regular_only": regular_only,
            "maximal_only": maximal_only,
        },
    }
    return payload, [witness for *_, witness in found]


def decoded_witnesses(h: Graph, candidates, payload: dict) -> list[tuple[int, ...]]:
    """The witness clique of each graph in an extension payload, read back
    from its graph6: row h.n + i of the assembled adjacency, on H's columns,
    is the attachment of the witness's i-th candidate."""
    index = {tuple(c): i for i, c in enumerate(candidates)}
    return [
        tuple(
            index[tuple(np.flatnonzero(row[: h.n]).tolist())]
            for row in bitwise_parse_graph6(m["graph6"]).adj[h.n :]
        )
        for m in payload["maximal"]
    ]


def _attach(h: Graph, base_edges, masks, internal) -> Graph:
    n = h.n
    edges = list(base_edges)
    for i, mask in enumerate(masks):
        edges.extend((n + i, v) for v in range(n) if (mask >> v) & 1)
    edges.extend((n + a, n + b) for a, b in internal)
    return Graph(n + len(masks), edges)


# ---------------------------------------------------------------------------
# The command line as argparse built it
# ---------------------------------------------------------------------------


def _version() -> str:
    return __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starcomp",
        description="Exact star-complement toolkit for graph eigenvalue structure.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    threads_help = "at least 1, otherwise ignored: every search runs on one thread"

    def add_common(p, mu=True):
        p.add_argument("--graph", required=True, help="graph6 string, split:s,t, or cocktail:p")
        if mu:
            p.add_argument("--mu", required=True, help="rational eigenvalue, p or p/q")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="subset-test budget")
        p.add_argument("--threads", type=int, default=1, help=threads_help)

    p = sub.add_parser("spectrum", help="factored characteristic polynomial with main/non-main tags")
    p.add_argument("--graph", required=True, help="graph6 string, split:s,t, or cocktail:p")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("starsets", help="exhaustive star-set search for an eigenvalue")
    add_common(p)
    p.set_defaults(func=cmd_starsets)

    p = sub.add_parser("candidates", help="enumerate attachment candidates for a star complement")
    add_common(p)
    p.add_argument("--nonmain", action="store_true", help="require <b, j> = -1")
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("extend", help="maximal graphs with the given star complement")
    add_common(p)
    p.add_argument("--nonmain", action="store_true", help="require <b, j> = -1")
    p.add_argument("--regular-only", action="store_true", help="keep only regular graphs")
    p.add_argument(
        "--include-nonmaximal",
        action="store_true",
        help="also report graphs from non-maximal candidate cliques (counted against --budget)",
    )
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("theorem", help="run the cocktail-party classification check")
    p.add_argument("--s", type=int, required=True, help="clique size of the star complement")
    p.add_argument("--t-max", type=int, required=True, help="check t = 2..t_max with mu = -t")
    p.add_argument("--threads", type=int, default=1, help=threads_help)
    p.set_defaults(func=cmd_theorem)

    p = sub.add_parser("explore", help="integer solutions of the two type constraints")
    p.add_argument("--s", required=True, help="clique-size range lo..hi (lo >= 2)")
    p.add_argument("--t", required=True, help="independent-part range lo..hi (lo >= 2)")
    p.add_argument("--mu", required=True, help="integer eigenvalue range lo..hi")
    p.set_defaults(func=cmd_explore)

    return parser


# ---------------------------------------------------------------------------
# The paper's closed forms for H = K_s + tK_1
# ---------------------------------------------------------------------------


def split_type(c: tuple[int, ...], s: int) -> tuple[int, int]:
    """(clique-side degree a, independent-side degree b) for a split H."""
    a = sum(1 for v in c if v < s)
    return a, len(c) - a


def minpoly_formula(s: int, t: int) -> tuple[Fraction, ...]:
    """x^4 + (2-s) x^3 + (1-s-st) x^2 - st x, monic of degree 4."""
    return poly_trim([0, -s * t, 1 - s - s * t, 2 - s, 1])


def expected_spectrum_from_roots(s: int) -> tuple[Fraction, ...]:
    """The cocktail-party graph CP(s + 1)'s characteristic polynomial,
    (x - 2s) x^{s+1} (x + 2)^s, multiplied out from its 2s + 2 roots."""
    return poly_from_roots([2 * s] + [0] * (s + 1) + [-2] * s)


def coeffs(s: int, t: int, mu) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
    """(alpha, beta, gamma, delta, m(mu)) of the block resolvent of K_s + tK_1:

        m(mu)(mu I - A)^{-1} = (alpha J + beta mu I     delta J               )
                               (delta J                 gamma J + beta(mu+1) I)

    with alpha = mu^2 + mu t, beta = mu^2 - (s-1) mu - st, gamma = s(mu+1),
    delta = mu^2 + mu and m(mu) = mu (mu+1) beta.  ValueError unless
    s, t >= 2; SingularResolventError if mu is an eigenvalue of K_s + tK_1:
    mu in {0, -1} or beta = 0."""
    if s < 2 or t < 2:
        raise ValueError("the split star complement requires s >= 2 and t >= 2")
    mu = Fraction(mu)
    beta = mu * mu - (s - 1) * mu - s * t
    if mu in (0, -1) or beta == 0:
        raise SingularResolventError(
            f"mu={mu} is an eigenvalue of K_{s} + {t}K_1"
        )
    return mu * mu + mu * t, beta, s * (mu + 1), mu * mu + mu, mu * (mu + 1) * beta


def closed_bilinear(
    s: int,
    t: int,
    mu,
    u: tuple[int, int],
    v: tuple[int, int],
    y_overlap: int,
    z_overlap: int,
) -> Fraction:
    """Scaled bilinear value m(mu) <b_u, b_v> from types and overlaps.

    With u of type (a, b), v of type (e, f), |Y1 cap Y2| = y_overlap and
    |Z1 cap Z2| = z_overlap:

        alpha a e + beta mu y_overlap + delta (a f + e b)
        + gamma b f + beta (mu+1) z_overlap

    ValueError on a type or an overlap that no two subsets realize.
    """
    alpha, beta, gamma, delta, _ = coeffs(s, t, mu)
    mu = Fraction(mu)
    (a, b), (e, f) = u, v
    if not (0 <= a <= s and 0 <= e <= s):
        raise ValueError("clique-side type out of range")
    if not (0 <= b <= t and 0 <= f <= t):
        raise ValueError("independent-side type out of range")
    if not (max(0, a + e - s) <= y_overlap <= min(a, e)):
        raise ValueError("clique overlap out of range")
    if not (max(0, b + f - t) <= z_overlap <= min(b, f)):
        raise ValueError("independent overlap out of range")
    return (
        alpha * a * e
        + beta * mu * y_overlap
        + delta * (a * f + e * b)
        + gamma * b * f
        + beta * (mu + 1) * z_overlap
    )


def resolvent_block(s: int, t: int, mu) -> np.ndarray:
    """m(mu)(mu I - A(H))^{-1} assembled from the closed-form blocks: the
    object matrix ((alpha J + beta mu I, delta J), (delta J, gamma J +
    beta (mu+1) I)) with diagonal blocks of sizes s and t."""
    alpha, beta, gamma, delta, _ = coeffs(s, t, mu)
    mu = Fraction(mu)
    n = s + t
    out = np.full((n, n), delta, dtype=object)
    out[:s, :s] = alpha
    out[s:, s:] = gamma
    out[range(n), range(n)] = [alpha + beta * mu] * s + [gamma + beta * (mu + 1)] * t
    return out


def diag_constraint(s: int, t: int, mu, a: int, b: int) -> Fraction:
    """mu m(mu) - m(mu) <b_u, b_u> for a type-(a,b) candidate, expanded.

    Zero exactly when the type satisfies the diagonal condition <b,b> = mu:

        mu^5 + (2-s) mu^4 + (1-b-s-st-a) mu^3
        + (as - 2b - 2ab + bs - st - a^2 - a) mu^2
        + (bs - 2ab - b - a^2 t - b^2 s + ast + bst) mu - s b^2 + stb
    """
    mu = Fraction(mu)
    return (
        mu**5
        + (2 - s) * mu**4
        + (1 - b - s - s * t - a) * mu**3
        + (a * s - 2 * b - 2 * a * b + b * s - s * t - a * a - a) * mu**2
        + (b * s - 2 * a * b - b - a * a * t - b * b * s + a * s * t + b * s * t) * mu
        - s * b * b
        + s * t * b
    )


def nonmain_constraint(s: int, t: int, mu, a: int, b: int) -> Fraction:
    """a(mu+t) + b(mu+1) - [s(mu+t) - mu(mu+1)]; zero iff <b,j> = -1 holds."""
    mu = Fraction(mu)
    return a * (mu + t) + b * (mu + 1) - (s * (mu + t) - mu * (mu + 1))


def quadratic_in_a(s: int, t: int, mu) -> tuple[Fraction, ...]:
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
    if mu == -1:
        raise SingularResolventError(
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
    return poly_trim([const, linear, t + mu])


def corollary_ab(s: int, t: int, mu) -> Optional[tuple[int, int]]:
    """The forced candidate type in the t + mu = 0 regime.

    a = -mu^2 - 2mu + s - 1 and b = -mu = t; returns None when that a falls
    outside [0, s], which means no candidate of any type exists.
    """
    mu = Fraction(mu)
    if t + mu != 0:
        raise ValueError("closed-form type requires t + mu = 0")
    a = -mu * mu - 2 * mu + s - 1
    if a.denominator != 1:
        return None
    a = int(a)
    if not 0 <= a <= s:
        return None
    return a, t
