"""Acceptance suite: the eight exit criteria, each timed against its budget.

Every criterion prints one pass/fail line (run with -s to see them all).
All comparisons are exact; there are no numeric tolerances anywhere.
"""

import time
from fractions import Fraction
from itertools import combinations

import pytest

from starcomp.extend import (
    assemble_graph,
    build_compat_graph,
    enumerate_candidates,
    maximal_extensions,
)
from starcomp.graphs import (
    is_isomorphic,
    is_regular,
    make_cocktail,
    make_complete_split,
    parse_graph6,
)
from starcomp.linalg import char_poly, eig_multiplicity, graph_min_poly, min_poly
from starcomp.starsets import find_star_sets, verify_star_set

from conftest import (
    attachment_pattern,
    brute_force_extensions,
    complement,
    cycle_graph,
    diag_constraint,
    eigenspace_from_star,
    fraction_inverse,
    identity_matrix,
    induced_subgraph,
    matching_graph,
    minpoly_formula,
    nonmain_constraint,
    path_graph,
    poly_at,
    poly_from_roots,
    quadratic_in_a,
    resolvent_block,
    split_type,
)


def finish(name: str, limit: float, t0: float) -> None:
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit
    verdict = "PASS" if ok else "FAIL (over time budget)"
    print(f"[acceptance] {name}: {verdict} ({elapsed:.2f}s / limit {limit:g}s)")
    assert ok, f"{name}: {elapsed:.2f}s exceeded the {limit:g}s budget"


def beta_of(s: int, t: int, mu: int) -> int:
    return mu * mu - (s - 1) * mu - s * t


def test_criterion_1_resolvent_identity():
    """Closed-form scaled resolvent equals m(mu) (mu I - A)^{-1} exactly."""
    t0 = time.perf_counter()
    checked = 0
    for s in range(2, 7):
        for t in range(2, 7):
            h = make_complete_split(s, t)
            m = graph_min_poly(h)
            adj = h.adj.astype(object)
            for mu in range(-5, 6):
                if mu in (0, -1) or beta_of(s, t, mu) == 0:
                    continue
                direct = fraction_inverse(
                    Fraction(mu) * identity_matrix(h.n) - adj
                ) * poly_at(m, mu)
                block = resolvent_block(s, t, mu)
                assert (block == direct).all(), (s, t, mu)
                checked += 1
    assert checked > 200
    finish("criterion 1 (resolvent identity)", 10.0, t0)


def test_criterion_2_minimal_polynomial():
    """Printed minimal polynomial equals the computed one, s,t in [2,8]."""
    t0 = time.perf_counter()
    for s in range(2, 9):
        for t in range(2, 9):
            assert minpoly_formula(s, t) == min_poly(
                make_complete_split(s, t).adj
            ), (s, t)
    finish("criterion 2 (minimal polynomial)", 5.0, t0)


@pytest.fixture(scope="module")
def theorem_runs():
    t0 = time.perf_counter()
    runs = {}
    for s in (2, 3, 4, 5):
        for t in (2, 3, 4):
            runs[(s, t)] = maximal_extensions(
                make_complete_split(s, t),
                Fraction(-t),
                nonmain=True,
                regular_only=True,
            )
    return runs, time.perf_counter() - t0


def test_criterion_3_theorem_reproduction(theorem_runs):
    """mu = -t yields exactly the cocktail-party graph at t = 2, nothing else."""
    runs, build_time = theorem_runs
    t0 = time.perf_counter() - build_time
    for (s, t), report in runs.items():
        if t == 2:
            assert len(report["maximal"]) == 1, (s, t)
            found = report["maximal"][0]
            graph = parse_graph6(found["graph6"])
            expected = complement(matching_graph(s + 1))
            assert is_isomorphic(graph, expected), (s, t)
            assert found["regular"] == 2 * s, (s, t)
            assert len(found["X"]) == s, (s, t)
            spectrum = poly_from_roots([2 * s] + [0] * (s + 1) + [-2] * s)
            assert char_poly(graph.adj) == spectrum, (s, t)
        else:
            assert report["maximal"] == [], (s, t)
    finish("criterion 3 (theorem reproduction)", 60.0, t0)


def test_criterion_4_forced_candidate_type():
    """All non-main candidates at mu = -t have (a, b) = (-mu^2-2mu+s-1, t)."""
    t0 = time.perf_counter()
    for s in range(2, 7):
        for t in range(2, 5):
            mu = -t
            cands = enumerate_candidates(
                make_complete_split(s, t), Fraction(mu), nonmain=True
            )
            a_expected = -mu * mu - 2 * mu + s - 1
            if 0 <= a_expected <= s:
                assert cands, (s, t)
                for c in cands:
                    assert split_type(c, s) == (a_expected, t), (s, t)
            else:
                assert cands == [], (s, t)
    finish("criterion 4 (forced candidate type)", 30.0, t0)


def test_criterion_5_constraint_consistency():
    """Candidates satisfy both constraints; (2,3,-2) has none, by the quadratic."""
    t0 = time.perf_counter()
    for s in range(2, 7):
        for t in range(2, 5):
            mu = Fraction(-t)
            for c in enumerate_candidates(
                make_complete_split(s, t), mu, nonmain=True
            ):
                a, b = split_type(c, s)
                assert diag_constraint(s, t, mu, a, b) == 0
                assert nonmain_constraint(s, t, mu, a, b) == 0
    quad = quadratic_in_a(2, 3, -2)
    assert quad == (4, -3, 1)
    disc = quad[1] ** 2 - 4 * quad[2] * quad[0]
    assert disc < 0  # no real roots at all
    assert enumerate_candidates(make_complete_split(2, 3), -2, nonmain=True) == []
    finish("criterion 5 (constraint consistency)", 5.0, t0)


def test_criterion_6_star_set_census():
    """Octahedron star sets for -2 are exactly its 12 edges."""
    t0 = time.perf_counter()
    g = make_cocktail(3)
    stars = find_star_sets(g, -2)
    edges = sorted(tuple(sorted(e)) for e in g.edges())
    assert stars == edges and len(stars) == 12
    split22 = make_complete_split(2, 2)
    for star, cert in zip(stars, verify_star_set(g, -2, stars), strict=True):
        assert cert["valid"]
        rest = induced_subgraph(g, [v for v in range(6) if v not in star])
        assert is_isomorphic(rest, split22)
    antipodal = [(0, 1), (2, 3), (4, 5)]
    for pair, cert in zip(antipodal, verify_star_set(g, -2, antipodal), strict=True):
        assert not cert["valid"]
        assert cert["checks"]["complement_multiplicity"] == 1  # witness: -2 in the C_4 left over
        rest = induced_subgraph(g, [v for v in range(6) if v not in pair])
        assert is_isomorphic(rest, cycle_graph(4))
        assert eig_multiplicity(rest, -2) == 1
    finish("criterion 6 (star-set census)", 1.0, t0)


def _engine_patterns(h, mu, k):
    """All k-cliques of the compatibility relation, as attachment patterns."""
    cands = enumerate_candidates(h, mu, nonmain=False)
    table = build_compat_graph(h, mu, cands)
    patterns = set()
    cliques = []
    for idxs in combinations(range(len(cands)), k):
        if all(table.compatible(i, j) for i, j in combinations(idxs, 2)):
            cliques.append(idxs)
            masks = tuple(sum(1 << v for v in cands[i]) for i in idxs)
            adjacency = frozenset(
                (a, b)
                for a, b in combinations(range(k), 2)
                if table.adjacent[idxs[a], idxs[b]]
            )
            patterns.add(attachment_pattern(masks, adjacency))
    return table, cliques, patterns


@pytest.fixture(scope="module")
def oracle_runs():
    t0 = time.perf_counter()
    graphs = [
        make_complete_split(2, 2),
        make_complete_split(3, 2),
        cycle_graph(5),
        path_graph(4),
    ]
    runs = []
    for h in graphs:
        for mu in range(-3, 4):
            if mu in (0, -1) or eig_multiplicity(h, mu) > 0:
                continue
            per_k = {}
            for k in (1, 2):
                table, cliques, patterns = _engine_patterns(h, mu, k)
                assert patterns == brute_force_extensions(h, mu, k), (h, mu, k)
                per_k[k] = (table, cliques)
            runs.append((h, Fraction(mu), per_k))
    return runs, time.perf_counter() - t0


def test_criterion_7_oracle_completeness(oracle_runs):
    """Engine k-cliques (k <= 2) match brute-force extension enumeration."""
    runs, build_time = oracle_runs
    t0 = time.perf_counter() - build_time
    assert len(runs) >= 16  # 4 graphs x at least 4 admissible mu each
    finish("criterion 7 (oracle completeness)", 120.0, t0)


def test_criterion_8_eigenspace_reconstruction(theorem_runs, oracle_runs):
    """Exact eigenvectors, orthogonal to the ones vector when non-main."""
    t0 = time.perf_counter()
    assembled = []
    for (s, t), report in theorem_runs[0].items():
        for m in report["maximal"]:
            assembled.append((parse_graph6(m["graph6"]), Fraction(-t), m["X"]))
    for h, mu, per_k in oracle_runs[0]:
        for k, (table, cliques) in per_k.items():
            for idxs in cliques:
                g = assemble_graph(table, idxs)
                assembled.append((g, mu, range(table.h.n, g.n)))
    assert assembled
    for g, mu, star in assembled:
        vectors = eigenspace_from_star(g, mu, star)  # re-checks A v = mu v
        assert len(vectors) == eig_multiplicity(g, mu)
        adj = g.adj.astype(object)
        for v in vectors:
            assert (adj @ v == mu * v).all()
        r = is_regular(g)
        if r is not None and mu != r:
            for v in vectors:
                assert sum(v) == 0
    finish("criterion 8 (eigenspace reconstruction)", 10.0, t0)
