"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own algorithms: isomorphism
by backtracking permutation search, characteristic polynomials by Leibniz
expansion over all permutations, the scaled resolvent as a polynomial in A
instead of an inverse, and brute-force star-set extension search by building
every possible graph and counting eigenvalue multiplicities.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from starcomp import (
    Graph,
    Polynomial,
    adjacency_matrix,
    eig_multiplicity,
    kernels,
    make_complete_split,
    min_poly,
)
from starcomp.linalg import identity_matrix


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # JIT-compile the int64 kernels once so timed tests measure the
    # algorithms, not compilation.
    kernels.warmup()


def random_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


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


def leibniz_char_poly(adj) -> Polynomial:
    """det(xI - A) by summing over all permutations; independent of the
    Faddeev-LeVerrier route.  Only sensible for n <= 7."""
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
    m = min_poly(adj)
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


def _attach(h: Graph, base_edges, masks, internal) -> Graph:
    n = h.n
    edges = list(base_edges)
    for i, mask in enumerate(masks):
        edges.extend((n + i, v) for v in range(n) if (mask >> v) & 1)
    edges.extend((n + a, n + b) for a, b in internal)
    return Graph(n + len(masks), edges)


def split_graph_corpus() -> list[Graph]:
    return [make_complete_split(s, t) for s in (2, 3) for t in (2, 3)]
