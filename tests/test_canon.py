import random
from itertools import combinations

import pytest

from starcomp import (
    Graph,
    canonical_form,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_isomorphic,
    make_cocktail,
    matching_graph,
    path_graph,
    relabel,
)
from starcomp.graphs import CACHE_SIZE, UnsupportedSizeError

from conftest import brute_isomorphic, random_graph


def shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_cocktail_equals_matching_complement():
    assert is_isomorphic(make_cocktail(3), complement(matching_graph(3)))


def test_c4_vs_star_not_isomorphic():
    assert not is_isomorphic(cycle_graph(4), Graph(4, [(0, 1), (0, 2), (0, 3)]))


def test_relabeling_invariance_100_trials():
    rng = random.Random(42)
    corpus = [
        make_cocktail(3),
        complete_graph(5),
        path_graph(6),
        cycle_graph(7),
        random_graph(8, rng),
        random_graph(9, rng, p=0.3),
    ]
    for trial in range(100):
        g = corpus[trial % len(corpus)]
        assert canonical_form(shuffled(g, rng)) == canonical_form(g)


def test_refinement_equivalent_but_not_isomorphic():
    # both 2-regular on 6 vertices; color refinement alone cannot split them
    two_triangles = disjoint_union(cycle_graph(3), cycle_graph(3))
    hexagon = cycle_graph(6)
    assert not is_isomorphic(two_triangles, hexagon)
    assert brute_isomorphic(two_triangles, hexagon) is False


def test_cocktail_vertex_transitivity():
    rng = random.Random(5)
    for p in (2, 3, 4, 5):
        g = make_cocktail(p)
        forms = {canonical_form(shuffled(g, rng)) for _ in range(10)}
        assert forms == {canonical_form(g)}


def test_size_bound():
    with pytest.raises(UnsupportedSizeError):
        canonical_form(Graph(65))


def test_cache_is_bounded():
    # more distinct labelled graphs than the cache holds: it stays at the
    # bound, and the graph canonised last is still a hit
    edges = list(combinations(range(6), 2))
    for mask in range(CACHE_SIZE + 50):
        g = Graph(6, [e for k, e in enumerate(edges) if (mask >> k) & 1])
        form = canonical_form(g)
        assert canonical_form.cache_info().currsize <= CACHE_SIZE
    assert canonical_form.cache_info().currsize == CACHE_SIZE
    hits = canonical_form.cache_info().hits
    assert canonical_form(g) == form
    assert canonical_form.cache_info().hits == hits + 1


def test_agrees_with_brute_force_small():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 7)
        g = random_graph(n, rng)
        h = shuffled(g, rng)
        assert is_isomorphic(g, h)
        assert brute_isomorphic(g, h)
        other = random_graph(n, rng)
        assert is_isomorphic(g, other) == brute_isomorphic(g, other)


def test_agrees_with_brute_force_n10():
    # same degree sequences, checked against the permutation-search oracle
    rng = random.Random(7)
    pairs = 0
    while pairs < 8:
        g = random_graph(10, rng)
        h = random_graph(10, rng)
        if sorted(g.degrees()) != sorted(h.degrees()):
            continue
        pairs += 1
        assert is_isomorphic(g, h) == brute_isomorphic(g, h)
    g = random_graph(10, rng)
    assert is_isomorphic(g, shuffled(g, rng))


def test_petersen_self_isomorphism():
    petersen = Graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )
    rng = random.Random(13)
    assert is_isomorphic(petersen, shuffled(petersen, rng))
    assert not is_isomorphic(petersen, make_cocktail(5))


def test_networkx_vf2_cross_check():
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_graph(n, rng)
        h = shuffled(g, rng) if rng.random() < 0.5 else random_graph(n, rng)
        ng = nx.Graph(g.edges())
        ng.add_nodes_from(range(g.n))
        nh = nx.Graph(h.edges())
        nh.add_nodes_from(range(h.n))
        assert is_isomorphic(g, h) == nx.is_isomorphic(ng, nh)
