"""Heavier randomized cross-validation of the delicate algorithms.

The canonical-form search prunes by discovered automorphisms and the clique
enumerator pivots; both are easy to get subtly wrong, so they get hammered
against independent oracles here.
"""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from starcomp.extend import CompatTable, all_cliques, build_compat_graph, maximal_cliques
from starcomp.graphs import (
    Graph,
    canonical_form,
    is_isomorphic,
    make_cocktail,
    make_complete_split,
    parse_graph6,
    relabel,
    write_graph6,
)
from starcomp.linalg import eig_multiplicity
from starcomp.starsets import BudgetExceededError, find_star_sets, verify_star_set

from conftest import (
    brute_isomorphic,
    complement,
    cycle_graph,
    disjoint_union,
    fraction_rank,
    join,
    random_graph,
)


def shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def circulant(n, jumps):
    edges = set()
    for v in range(n):
        for j in jumps:
            edges.add(tuple(sorted((v, (v + j) % n))))
    return Graph(n, edges)


class TestCanonicalFormStress:
    def test_structured_family_relabelings(self):
        rng = random.Random(2024)
        family = [
            make_cocktail(5),
            make_cocktail(6),
            circulant(10, (1, 2)),
            circulant(12, (1, 3, 4)),
            circulant(13, (1, 5)),
            join(cycle_graph(4), cycle_graph(4)),
            disjoint_union(cycle_graph(5), cycle_graph(5)),
            disjoint_union(cycle_graph(4), cycle_graph(6)),
            complement(circulant(9, (1, 2))),
            make_complete_split(5, 5),
            Graph(9, [(i, j) for i in range(9) for j in range(i + 1, 9)
                      if (i - j) % 9 in (1, 8, 3, 6)]),  # Paley-like circulant
        ]
        for g in family:
            base = canonical_form(g)
            for _ in range(8):
                assert canonical_form(shuffled(g, rng)) == base

    def test_near_isomorphic_pairs_distinguished(self):
        # same degree sequence, one edge swapped: must never collide
        rng = random.Random(31337)
        tried = 0
        while tried < 40:
            g = random_graph(8, rng)
            edges = g.edges()
            non_edges = [
                (i, j)
                for i in range(8)
                for j in range(i + 1, 8)
                if not g.adj[i, j]
            ]
            if not edges or not non_edges:
                continue
            old = rng.choice(edges)
            new = rng.choice(non_edges)
            h_edges = [e for e in edges if e != old] + [new]
            h = Graph(8, h_edges)
            if sorted(g.degrees()) != sorted(h.degrees()):
                continue
            tried += 1
            assert is_isomorphic(g, h) == brute_isomorphic(g, h)

    def test_exhaustive_small_vs_brute_force(self):
        rng = random.Random(47)
        for _ in range(150):
            n = rng.randint(2, 7)
            g = random_graph(n, rng, p=rng.choice([0.2, 0.5, 0.8]))
            h = shuffled(g, rng) if rng.random() < 0.6 else random_graph(n, rng)
            assert is_isomorphic(g, h) == brute_isomorphic(g, h), (
                write_graph6(g),
                write_graph6(h),
            )

    def test_vf2_cross_check_mid_size(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(53)
        for _ in range(80):
            n = rng.randint(8, 12)
            g = random_graph(n, rng, p=rng.choice([0.3, 0.5]))
            h = shuffled(g, rng) if rng.random() < 0.5 else random_graph(n, rng, p=0.5)
            ng = nx.Graph(g.edges())
            ng.add_nodes_from(range(g.n))
            nh = nx.Graph(h.edges())
            nh.add_nodes_from(range(h.n))
            assert is_isomorphic(g, h) == nx.is_isomorphic(ng, nh)

    def test_disconnected_and_isolated_vertices(self):
        rng = random.Random(61)
        for _ in range(30):
            pieces = [random_graph(rng.randint(1, 4), rng) for _ in range(3)]
            g = pieces[0]
            for p in pieces[1:]:
                g = disjoint_union(g, p)
            assert canonical_form(shuffled(g, rng)) == canonical_form(g)


class TestGraph6LongForm:
    def test_random_round_trips_above_62(self):
        rng = random.Random(8)
        for n in (63, 64, 67, 70):
            g = random_graph(n, rng, p=0.1)
            assert parse_graph6(write_graph6(g)) == g

    def test_networkx_agrees_on_long_form(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(9)
        g = random_graph(65, rng, p=0.05)
        theirs = nx.from_graph6_bytes(write_graph6(g).encode())
        assert theirs.number_of_nodes() == g.n
        assert sorted(tuple(sorted(e)) for e in theirs.edges()) == g.edges()
        back = nx.to_graph6_bytes(theirs, header=False).decode().strip()
        assert parse_graph6(back) == g


def naive_cliques(neighbors, n):
    """Every clique, the empty one included, by filtering every subset;
    oracle for n <= 16."""
    return [
        set(sub)
        for size in range(n + 1)
        for sub in combinations(range(n), size)
        if all(b in neighbors[a] for a, b in combinations(sub, 2))
    ]


def naive_maximal_cliques(neighbors, n):
    """All maximal cliques by filtering every subset; oracle for n <= 16."""
    cliques = naive_cliques(neighbors, n)
    maximal = [
        tuple(sorted(c))
        for c in cliques
        if not any(c < other for other in cliques)
    ]
    return sorted(set(maximal))


def relation_table(neighbors, n):
    """A CompatTable on n one-vertex candidates whose compat mask is the
    symmetric relation `neighbors`; only compat is read by the clique stage."""
    compat = np.zeros((n, n), dtype=bool)
    for a in range(n):
        compat[a, list(neighbors[a])] = True
    return CompatTable(
        Graph(1), Fraction(1), ((0,),) * n,
        np.ones((n, 1), dtype=np.uint8), np.zeros((n, n), dtype=bool), compat,
    )


def random_relation(n, rng, p=0.5):
    neighbors = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                neighbors[i].add(j)
                neighbors[j].add(i)
    return neighbors


class TestBronKerboschStress:
    def test_against_naive_enumeration(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(0, 10)
            neighbors = random_relation(n, rng)
            # no candidates, no cliques: not even the empty one
            want = naive_maximal_cliques(neighbors, n) if n else []
            assert maximal_cliques(relation_table(neighbors, n)) == want

    def test_clique_lists_and_limit_against_naive(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=150, deadline=None)
        @given(
            st.integers(1, 10),
            st.randoms(use_true_random=False),
            st.sampled_from([0.2, 0.5, 0.8]),
        )
        def check(n, rng, p):
            neighbors = random_relation(n, rng, p)
            table = relation_table(neighbors, n)
            every = sorted(tuple(sorted(c)) for c in naive_cliques(neighbors, n) if c)
            assert all_cliques(table) == every
            maximal = naive_maximal_cliques(neighbors, n)
            count = len(maximal)
            assert maximal_cliques(table, count) == maximal
            below = count - 1
            with pytest.raises(
                BudgetExceededError,
                match=f"^more than {below} maximal cliques exceeds budget {below}$",
            ):
                maximal_cliques(table, below)
            # from a root: the maximal cliques through it that avoid exclude
            root = rng.randrange(n)
            exclude = rng.getrandbits(n) & ~(1 << root)
            assert maximal_cliques(table, root=root, exclude=exclude) == [
                c for c in maximal if root in c and not any(exclude >> v & 1 for v in c)
            ]

        check()


class TestBigIntegerFallback:
    def test_star_search_with_huge_rational_mu(self):
        # q A - p I with q = 2^32: Bareiss minors far past int64, through
        # the same public API
        g = make_cocktail(3)
        mu = Fraction(1, 1 << 32)
        assert eig_multiplicity(g, mu) == 0
        (cert,) = verify_star_set(g, mu, [()])
        assert cert["valid"] and cert["checks"]["multiplicity"] == 0

    def test_multiplicity_agrees_across_scales(self):
        # same eigenvalue question asked with an equivalent huge scaling
        rng = random.Random(44)
        for _ in range(10):
            g = random_graph(rng.randint(2, 6), rng)
            for mu in (-2, 0, 1):
                small = eig_multiplicity(g, mu)
                big = eig_multiplicity(g, Fraction(mu * (10**40), 10**40))
                assert small == big

    def test_find_star_sets_identical_under_forced_fallback(self):
        # the search against complements ranked by the Fraction oracle; -2
        # has multiplicity 2 in the octahedron
        g = make_cocktail(3)
        fast = find_star_sets(g, -2)
        slow = [
            star for star in combinations(range(g.n), 2)
            if fraction_rank([
                [int(g.adj[i, j]) + 2 * (i == j) for j in range(g.n) if j not in star]
                for i in range(g.n) if i not in star
            ]) == g.n - 2
        ]
        assert fast == slow == sorted(tuple(sorted(e)) for e in g.edges())


class TestOrderInvariance:
    def test_candidate_order_does_not_change_results(self):
        h = make_complete_split(3, 2)
        mu = Fraction(-2)
        from starcomp.extend import assemble_graph, enumerate_candidates

        cands = enumerate_candidates(h, mu, nonmain=True)
        baseline = None
        rng = random.Random(77)
        for _ in range(5):
            order = cands[:]
            rng.shuffle(order)
            table = build_compat_graph(h, mu, order)
            graphs = []
            for clique in maximal_cliques(table):
                g = assemble_graph(table, clique)
                graphs.append(canonical_form(g))
            key = sorted(graphs)
            if baseline is None:
                baseline = key
            assert key == baseline
