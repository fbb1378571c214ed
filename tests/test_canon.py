import math
import random
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from starcomp import graphs
from starcomp.extend import maximal_extensions
from starcomp.graphs import (
    CACHE_SIZE,
    CANON_MAX_VERTICES,
    Graph,
    _bitsets,
    _canon_search,
    _individualize,
    _initial_cells,
    _merge_orbits,
    _root,
    canonical_form,
    is_isomorphic,
    make_cocktail,
    make_complete_split,
    parse_graph6,
    relabel,
    write_graph6,
)

from conftest import (
    _individualize as colour_individualize,
    _refine as colour_refine,
    brute_isomorphic,
    colour_cells,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    matching_graph,
    neighbors,
    path_graph,
    random_graph,
    random_graph_with_twins,
    unpruned_canon_code,
)

PETERSEN = parse_graph6("IheA@GUAo")


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
    with pytest.raises(ValueError, match=r"canonical form supported up to n=64, got n=65"):
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


def hypercube(d: int) -> Graph:
    edges = [(v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1]
    return Graph(1 << d, edges)


def disjoint_cliques(sizes) -> Graph:
    g = empty_graph(0)
    for k in sizes:
        g = disjoint_union(g, complete_graph(k))
    return g


# The unpruned tree has at least |Aut| leaves: 2^p p! for cocktail:p and
# s! t! for split:s,t, so the symmetric families stay below about 4000.
SPLIT_SIZES = [
    (s, t)
    for s in range(1, 7)
    for t in range(1, 7)
    if math.factorial(s) * math.factorial(t) <= 2880
]

symmetric_graphs = st.one_of(
    st.builds(make_cocktail, st.integers(1, 5)),
    st.sampled_from(SPLIT_SIZES).map(lambda size: make_complete_split(*size)),
    st.just(PETERSEN),
    st.just(hypercube(4)),
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(disjoint_cliques),
)

# Unions of cycles are 2-regular, so refinement leaves non-automorphic
# vertices in one cell: siblings differ, and a wrong backjump or orbit
# rule skips subtrees holding smaller codes.
cycle_unions = (
    st.lists(st.integers(3, 6), min_size=2, max_size=3)
    .filter(lambda lengths: sum(lengths) <= 13)
    .map(lambda lengths: reduce(disjoint_union, map(cycle_graph, lengths)))
)


# Random graphs come from seeded G(n, 1/2) draws, which are nearly always
# asymmetric; Hypothesis-driven coin flips shrink towards K_n, whose tree
# has n! leaves.
seeds = st.integers(0, 2**32 - 1).map(random.Random)


@settings(max_examples=80, deadline=None)
# labelings on which a backjump to the root loses the minimum code
@example(reduce(disjoint_union, map(cycle_graph, (3, 3, 4))), random.Random(0))
@example(complement(reduce(disjoint_union, map(cycle_graph, (3, 4, 5)))), random.Random(3))
@given(
    st.one_of(
        st.builds(random_graph, st.integers(0, 12), seeds),
        st.builds(random_graph_with_twins, st.integers(1, 7), st.integers(0, 4), seeds),
        symmetric_graphs,
        cycle_unions,
        cycle_unions.map(complement),
    ),
    seeds,
)
def test_pruned_search_matches_unpruned_tree(g, rng):
    assert_matches_unpruned_tree(shuffled(g, rng))


def assert_matches_unpruned_tree(g):
    code, leaf = unpruned_canon_code(g)
    assert _canon_search(g)[0] == code
    assert canonical_form(g) == write_graph6(relabel(g, leaf)).encode("ascii")


@settings(max_examples=60, deadline=None)
# n = CANON_MAX_VERTICES, where the counts packed into a refinement key
# reach their widest
@example(make_complete_split(CANON_MAX_VERTICES // 2, CANON_MAX_VERTICES // 2), random.Random(0))
@given(
    st.one_of(
        st.builds(random_graph, st.integers(0, 14), seeds, st.sampled_from([0.2, 0.5])),
        st.builds(random_graph_with_twins, st.integers(1, 7), st.integers(0, 6), seeds),
        cycle_unions,
        cycle_unions.map(complement),
    ),
    seeds,
)
def test_ordered_cells_match_colour_refinement(g, rng):
    # The root's cells, and those after individualising each vertex of the
    # target cell, are the colour classes of the colour-numbering oracle in
    # colour order.  The walk goes down the first child until the cells are
    # discrete, so every depth is checked.
    g = shuffled(g, rng)
    lists = [neighbors(g, v) for v in range(g.n)]
    nbr = _bitsets(g.adj)
    colors = colour_refine(lists, [0] * g.n)
    cells = _initial_cells(nbr)
    assert cells == colour_cells(colors)
    while len(cells) < g.n:
        target = min(
            (i for i, cell in enumerate(cells) if len(cell) > 1), key=lambda i: len(cells[i])
        )
        for w in cells[target]:
            child = colour_refine(lists, colour_individualize(colors, w))
            assert _individualize(nbr, cells, target, w) == colour_cells(child)
        w = cells[target][0]
        colors = colour_refine(lists, colour_individualize(colors, w))
        cells = _individualize(nbr, cells, target, w)


def twin_classes(g):
    """Classes of vertices pairwise swapped by a transposition that is an
    automorphism of g, found by relabelling; these are g's twin classes."""
    classes: list[list[int]] = []
    for v in range(g.n):
        for cls in classes:
            swap = list(range(g.n))
            swap[cls[0]], swap[v] = v, cls[0]
            if relabel(g, swap) == g:
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def few_leaves_with_twins(g):
    # A class of 3 to 5 twins.  The unpruned tree has at least the product
    # of the classes' factorials as leaves, and at most 6 times that over
    # 3000 draws like these, so a product of at most 480 keeps it near the
    # 4000 leaves of SPLIT_SIZES.
    sizes = [len(cls) for cls in twin_classes(g)]
    return 3 <= max(sizes) <= 5 and math.prod(map(math.factorial, sizes)) <= 480


@settings(max_examples=60, deadline=None)
@given(
    st.builds(random_graph_with_twins, st.integers(1, 6), st.integers(2, 6), seeds).filter(
        few_leaves_with_twins
    ),
    seeds,
)
def test_twin_classes_match_unpruned_tree(g, rng):
    # The twin rule skips whole twin classes at every node; classes of
    # false and true twins of size 3 to 5 beside other vertices of their
    # cell must still give the unpruned tree's minimum code and bytes.
    assert_matches_unpruned_tree(shuffled(g, rng))


def search_nodes(g):
    """Children _canon_search individualizes: its search nodes below the root."""
    calls = 0

    def spy(*args):
        nonlocal calls
        calls += 1
        return _individualize(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_individualize", spy)
        _canon_search(g)
    return calls


def test_twin_rule_prunes_the_search():
    # Without the twin rule these searches take 560, 44 and 54 nodes, since
    # leaf automorphisms find a twin swap only at two leaves with equal
    # codes.  With it they take 32, 8 and 18.  The 13-vertex graph's root
    # cell holds two vertices that no automorphism swaps, and each of the
    # two subtrees is a path of 9 nodes, so the bound is 2n rather than n.
    report = maximal_extensions(make_complete_split(8, 3), -3, nonmain=False)
    extensions = [parse_graph6(m["graph6"]) for m in report["maximal"]]
    assert [g.n for g in extensions] == [12, 13]
    for g in [make_complete_split(17, 17), *extensions]:
        assert search_nodes(g) <= 2 * g.n


def recorded(sigma):
    """An automorphism as the search records it: (sigma, moved-vertex mask)."""
    return sigma, sum(1 << v for v, u in enumerate(sigma) if u != v)


def test_orbits_skip_automorphisms_moving_the_prefix():
    # In C_4 with vertex 0 individualized, the target cell is {1, 3}.  The
    # half-turn maps it onto itself but moves 0, so it must not join 1 and
    # 3; the reflection through 0 fixes 0 and does.
    c4 = cycle_graph(4)
    half_turn, reflection = [2, 3, 0, 1], [0, 3, 2, 1]
    for sigma in (half_turn, reflection):
        assert relabel(c4, sigma) == c4
    parent = {1: 1, 3: 3}
    _merge_orbits(parent, [recorded(half_turn)], (0,), [1, 3])
    assert _root(parent, 1) != _root(parent, 3)
    _merge_orbits(parent, [recorded(reflection)], (0,), [1, 3])
    assert _root(parent, 1) == _root(parent, 3)


def used_automorphisms(g):
    """(sigma, node prefix, target cell) for every recorded automorphism
    that _canon_search hands to _merge_orbits and that fixes the prefix."""
    calls = []

    def spy(parent, autos, fixed, cell):
        calls.append((list(autos), fixed, list(cell)))
        return _merge_orbits(parent, autos, fixed, cell)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_merge_orbits", spy)
        _canon_search(g)
    used = []
    for autos, fixed, cell in calls:
        for sigma, moved in autos:
            assert recorded(sigma) == (sigma, moved)
            if all(sigma[x] == x for x in fixed):
                used.append((sigma, fixed, cell))
    return used


@settings(max_examples=40, deadline=None)
@given(st.one_of(symmetric_graphs, cycle_unions, cycle_unions.map(complement)), seeds)
def test_used_automorphisms_map_the_target_cell_onto_itself(g, rng):
    # Every recorded automorphism that fixes a node's prefix, and so joins
    # orbits there, is an automorphism of g and maps the node's target cell
    # onto itself: the union-find over that cell alone sees whole orbits.
    g = shuffled(g, rng)
    for sigma, fixed, cell in used_automorphisms(g):
        assert relabel(g, sigma) == g
        assert sorted(sigma[v] for v in cell) == cell


def test_petersen_search_uses_automorphisms():
    # the property above is not vacuous: Petersen's search joins orbits
    # below the root as well as at it
    depths = {len(fixed) for _, fixed, _ in used_automorphisms(PETERSEN)}
    assert 0 in depths and max(depths) > 0


# Canonical bytes recorded before the search gained its backjump and orbit
# rules.  They order the maximal graphs in every report, so they must not
# change with the pruning.
PINNED_FORMS = [
    (make_cocktail(9), b"Q~~~~~~~v|~n}~|~|~}~~n~|~~w"),
    (
        make_complete_split(17, 17),
        b"a??????????????????????B~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~w",
    ),
    (PETERSEN, b"IQosb?K?w"),
]


@pytest.mark.parametrize("g,form", PINNED_FORMS, ids=["cocktail:9", "split:17,17", "petersen"])
def test_pinned_canonical_bytes(g, form):
    assert canonical_form(g) == form


def test_pinned_extend_maximal_graphs():
    report = maximal_extensions(make_complete_split(8, 3), -3, nonmain=False)
    assert [canonical_form(parse_graph6(m["graph6"])) for m in report["maximal"]] == [
        b"K?\\~~~~~~~~~",
        b"L}q||}~^z~n~^~",
    ]
