from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from starcomp import (
    PairClass,
    assemble_graph,
    build_compat_graph,
    cycle_graph,
    degree_balance,
    eig_multiplicity,
    enumerate_candidates,
    is_isomorphic,
    is_regular,
    make_cocktail,
    make_complete_split,
    maximal_extensions,
    pair_class,
    path_graph,
    resolvent_bilinear,
    verify_star_set,
)
import starcomp.extend as extend_module
from starcomp import kernels
from starcomp.extend import (
    Candidate,
    EngineRestrictionError,
    IncompatiblePairError,
    MuIsEigenvalueError,
    maximal_cliques,
)
from starcomp.starsets import BudgetExceededError

from conftest import (
    attachment_pattern,
    brute_force_extensions,
    exhaustive_candidates,
    random_graph,
)


class TestEnumerateCandidates:
    def test_split_2_2(self):
        h = make_complete_split(2, 2)
        cands = enumerate_candidates(h, -2, nonmain=True)
        assert [c.vertices for c in cands] == [(0, 2, 3), (1, 2, 3)]
        assert all(c.split_type(2) == (1, 2) for c in cands)
        assert [c.vertices for c in cands] == exhaustive_candidates(h, -2, True)

    def test_split_2_3_no_candidates(self):
        assert enumerate_candidates(make_complete_split(2, 3), -2, nonmain=True) == []

    def test_split_5_3(self):
        h = make_complete_split(5, 3)
        cands = enumerate_candidates(h, -3, nonmain=True)
        assert len(cands) == 5
        assert all(c.split_type(5) == (1, 3) for c in cands)
        assert [c.vertices for c in cands] == exhaustive_candidates(h, -3, True)

    def test_generic_graph_matches_oracle(self):
        for h, mu in [(cycle_graph(5), -2), (path_graph(4), -2), (cycle_graph(5), 3)]:
            for nonmain in (True, False):
                got = [
                    c.vertices
                    for c in enumerate_candidates(h, mu, nonmain=nonmain)
                ]
                assert got == exhaustive_candidates(h, mu, nonmain)

    def test_rational_mu_exact_path(self):
        h = cycle_graph(5)
        mu = Fraction(5, 2)
        got = [c.vertices for c in enumerate_candidates(h, mu, nonmain=False)]
        assert got == exhaustive_candidates(h, mu, False)

    def test_rational_mu_exact_path_threaded(self):
        # the Fraction-based scan shards the same way as the int64 kernel
        h = cycle_graph(5)
        mu = Fraction(5, 2)
        single = enumerate_candidates(h, mu, nonmain=False, threads=1)
        for threads in (2, 4, 7):
            assert enumerate_candidates(h, mu, nonmain=False, threads=threads) == single

    def test_candidates_distinct_nonempty(self):
        for h, mu in [
            (make_complete_split(2, 2), -2),
            (make_complete_split(3, 2), -2),
            (cycle_graph(5), -2),
        ]:
            cands = enumerate_candidates(h, mu, nonmain=False)
            assert all(c.vertices for c in cands)
            assert len({c.vertices for c in cands}) == len(cands)

    def test_mu_zero_and_minus_one_rejected(self):
        with pytest.raises(EngineRestrictionError):
            enumerate_candidates(cycle_graph(5), 0)
        with pytest.raises(EngineRestrictionError):
            enumerate_candidates(cycle_graph(5), -1)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_candidates(make_cocktail(5), -3, budget=100)

    def test_thread_determinism(self):
        h = make_complete_split(3, 2)
        base = [c.vertices for c in enumerate_candidates(h, -2)]
        for threads in (2, 5, 8):
            got = [
                c.vertices for c in enumerate_candidates(h, -2, threads=threads)
            ]
            assert got == base

    @pytest.mark.parametrize("nonmain", [False, True])
    @pytest.mark.parametrize("s,t,mu", [(6, 6, -2), (6, 5, -2), (5, 6, 2), (5, 3, -3)])
    def test_thread_determinism_across_blocks(self, s, t, mu, nonmain):
        # 3 threads cut the mask space at indices that are neither powers of
        # two nor multiples of the split-half scan's 2^LOW_BITS blocks
        h = make_complete_split(s, t)
        base = enumerate_candidates(h, mu, nonmain=nonmain, threads=1)
        for threads in (2, 3):
            assert enumerate_candidates(h, mu, nonmain=nonmain, threads=threads) == base

    @pytest.mark.parametrize("nonmain", [False, True])
    @pytest.mark.parametrize(
        "s,t,mu",
        [(3, 4, -2), (4, 3, -4), (3, 2, -2), (5, 3, -3), (6, 5, -2), (6, 6, -2)],
    )
    def test_exact_scan_matches_int64_scan(self, monkeypatch, s, t, mu, nonmain):
        # with the accumulator limit forced down, integral mu takes the
        # Python-int scan; it must return what the int64 kernel returns
        h = make_complete_split(s, t)
        calls = []

        def spy(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(kernels, "subset_scan_int64",
                            spy("int64", kernels.subset_scan_int64))
        monkeypatch.setattr(extend_module, "_subset_scan_exact",
                            spy("exact", extend_module._subset_scan_exact))
        fast = enumerate_candidates(h, mu, nonmain=nonmain, threads=3)
        assert set(calls) == {"int64"}
        calls.clear()
        monkeypatch.setattr(kernels, "ACCUMULATOR_LIMIT", 1)
        exact = enumerate_candidates(h, mu, nonmain=nonmain, threads=3)
        assert set(calls) == {"exact"}
        assert exact == fast
        if s + t <= 8:
            assert [c.vertices for c in exact] == exhaustive_candidates(h, mu, nonmain)

    def test_exact_and_int64_scans_find_candidates(self):
        # the differential cases above are not all vacuous
        assert len(enumerate_candidates(make_complete_split(5, 3), -3)) == 5
        assert len(enumerate_candidates(make_complete_split(6, 6), -2, nonmain=False)) == 210

    def test_non_integral_mu_has_no_candidates(self):
        # <b, b> = mu makes mu an eigenvalue of the integer matrix A(H + v),
        # and a rational eigenvalue of an integer matrix is an integer
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=30, deadline=None)
        @given(
            st.integers(1, 6),
            st.randoms(use_true_random=False),
            st.integers(-12, 12),
            st.integers(2, 5),
            st.booleans(),
        )
        def check(n, rng, p, q, nonmain):
            mu = Fraction(p, q)
            if mu.denominator == 1:
                return
            h = random_graph(n, rng)
            assert enumerate_candidates(h, mu, nonmain=nonmain) == []
            assert exhaustive_candidates(h, mu, nonmain) == []

        check()


class TestPairClass:
    def test_split_2_2_pair_adjacent(self):
        h = make_complete_split(2, 2)
        u, v = enumerate_candidates(h, -2, nonmain=True)
        assert pair_class(h, -2, u, v) is PairClass.ADJACENT

    def test_split_5_3_incompatible(self):
        h = make_complete_split(5, 3)
        cands = enumerate_candidates(h, -3, nonmain=True)
        assert pair_class(h, -3, cands[0], cands[1]) is PairClass.INCOMPATIBLE

    def test_self_pair_incompatible(self):
        h = make_complete_split(2, 2)
        u, _ = enumerate_candidates(h, -2, nonmain=True)
        assert pair_class(h, -2, u, u) is PairClass.INCOMPATIBLE

    def test_classification_matches_exact_values(self):
        h = cycle_graph(5)
        mu = -2
        cands = enumerate_candidates(h, mu, nonmain=False)
        ones = np.ones(h.n, dtype=object)
        for u in cands:
            for v in cands:
                value = resolvent_bilinear(h, mu, u.vector(h.n), v.vector(h.n))
                cls = pair_class(h, mu, u, v)
                if value == -1:
                    assert cls is PairClass.ADJACENT
                elif value == 0:
                    assert cls is PairClass.NONADJACENT
                else:
                    assert cls is PairClass.INCOMPATIBLE


class TestCompatTable:
    def test_2_2_table(self):
        h = make_complete_split(2, 2)
        cands = enumerate_candidates(h, -2, nonmain=True)
        table = build_compat_graph(h, -2, cands)
        assert table.pair(0, 1) is PairClass.ADJACENT
        assert table.pair(1, 0) is PairClass.ADJACENT
        assert table.pair(0, 0) is PairClass.INCOMPATIBLE

    def test_empty(self):
        table = build_compat_graph(make_complete_split(2, 2), -2, [])
        assert table.candidates == ()
        assert maximal_cliques(table) == []

    def test_5_3_all_incompatible(self):
        h = make_complete_split(5, 3)
        cands = enumerate_candidates(h, -3, nonmain=True)
        table = build_compat_graph(h, -3, cands)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert table.pair(i, j) is PairClass.INCOMPATIBLE
        assert maximal_cliques(table) == [(i,) for i in range(5)]


class TestAssemble:
    def test_both_candidates_build_octahedron(self):
        h = make_complete_split(2, 2)
        cands = enumerate_candidates(h, -2, nonmain=True)
        g, star = assemble_graph(h, -2, cands)
        assert g.n == 6
        assert is_regular(g) == 4
        assert star == (4, 5)
        assert is_isomorphic(g, make_cocktail(3))

    def test_single_candidate(self):
        h = make_complete_split(2, 2)
        cands = enumerate_candidates(h, -2, nonmain=True)
        g, star = assemble_graph(h, -2, cands[:1])
        assert g.n == h.n + 1
        cert = verify_star_set(g, -2, star)
        assert cert.valid and cert.multiplicity == 1

    def test_empty_choice(self):
        h = make_complete_split(2, 2)
        g, star = assemble_graph(h, -2, [])
        assert g == h and star == ()

    def test_incompatible_rejected(self):
        h = make_complete_split(5, 3)
        cands = enumerate_candidates(h, -3, nonmain=True)
        with pytest.raises(IncompatiblePairError):
            assemble_graph(h, -3, cands[:2])


class TestMuInSpectrum:
    @pytest.mark.parametrize(
        "h, mu",
        [
            (cycle_graph(4), -2),
            (cycle_graph(4), 2),
            (make_cocktail(3), -2),
            (make_complete_split(2, 2), 0),
        ],
        ids=["C4-mu-2", "C4-mu2", "octahedron-mu-2", "split22-mu0"],
    )
    def test_pair_class_and_assemble_reject_eigenvalue(self, h, mu):
        assert eig_multiplicity(h, mu) > 0
        u, v = Candidate((0,)), Candidate((1, 2))
        message = "is an eigenvalue of the star complement"
        with pytest.raises(MuIsEigenvalueError, match=message):
            pair_class(h, mu, u, v)
        with pytest.raises(MuIsEigenvalueError, match=message):
            assemble_graph(h, mu, [u, v])
        with pytest.raises(MuIsEigenvalueError, match=message):
            build_compat_graph(h, mu, [u, v])


class TestMaximalExtensions:
    def test_octahedron_from_2_2(self):
        rep = maximal_extensions(
            make_complete_split(2, 2), -2, nonmain=True, regular_only=True
        )
        assert len(rep.maximal_graphs) == 1
        found = rep.maximal_graphs[0]
        assert is_isomorphic(found.graph, make_cocktail(3))
        assert len(found.star_vertices) == 2
        assert found.regular == 4

    def test_5_3_none_regular(self):
        rep = maximal_extensions(
            make_complete_split(5, 3), -3, nonmain=True, regular_only=True
        )
        assert len(rep.candidates) == 5
        assert rep.maximal_graphs == ()

    def test_2_2_without_regular_filter(self):
        rep = maximal_extensions(
            make_complete_split(2, 2), -2, nonmain=True, regular_only=False
        )
        assert len(rep.maximal_graphs) == 1
        assert is_isomorphic(rep.maximal_graphs[0].graph, make_cocktail(3))

    def test_soundness_every_graph_verifies(self):
        for h, mu in [
            (make_complete_split(3, 2), -2),
            (cycle_graph(5), -2),
            (path_graph(4), -3),
        ]:
            rep = maximal_extensions(h, mu, nonmain=False)
            for m in rep.maximal_graphs:
                assert verify_star_set(m.graph, mu, m.star_vertices).valid

    def test_include_nonmaximal(self):
        rep = maximal_extensions(
            make_complete_split(2, 2), -2, nonmain=True, maximal_only=False
        )
        # the 2-clique plus its two 1-subsets, up to isomorphism
        assert len(rep.maximal_graphs) == 2
        sizes = sorted(len(m.star_vertices) for m in rep.maximal_graphs)
        assert sizes == [1, 2]

    def test_include_nonmaximal_budget(self, monkeypatch):
        # split:4,2 at mu = -2 has 12 maximal cliques with 180 nonempty
        # sub-cliques in all, above its 2^6 subset scan
        h = make_complete_split(4, 2)
        cliques = maximal_cliques(build_compat_graph(h, -2, enumerate_candidates(h, -2, False)))
        threshold = sum((1 << len(c)) - 1 for c in cliques)
        assert threshold == 180 > 1 << h.n
        rep = maximal_extensions(h, -2, nonmain=False, maximal_only=False, budget=threshold)
        assert rep.maximal_graphs

        def untouched(*args):
            raise AssertionError("sub-cliques materialised past the budget")

        monkeypatch.setattr(extend_module, "combinations", untouched)
        monkeypatch.setattr(extend_module, "assemble_graph", untouched)
        with pytest.raises(BudgetExceededError, match="180 sub-cliques"):
            maximal_extensions(h, -2, nonmain=False, maximal_only=False, budget=threshold - 1)

    @pytest.mark.parametrize("maximal_only", [True, False])
    def test_regular_filter_runs_before_canonical_form(self, monkeypatch, maximal_only):
        canonised = []
        real = extend_module.canonical_form

        def counting(graph):
            canonised.append(graph)
            return real(graph)

        monkeypatch.setattr(extend_module, "canonical_form", counting)
        h = make_complete_split(3, 2)
        runs = {}
        for regular_only in (False, True):
            canonised.clear()
            rep = maximal_extensions(
                h, -2, nonmain=False, regular_only=regular_only, maximal_only=maximal_only
            )
            runs[regular_only] = (rep, list(canonised))
        (full, all_canon), (kept, regular_canon) = runs[False], runs[True]
        assert any(m.regular is None for m in full.maximal_graphs)
        assert regular_canon and all(is_regular(g) is not None for g in regular_canon)
        assert len(regular_canon) < len(all_canon)

        def summary(graphs):
            return [(m.to_json(), m.witness, m.canonical) for m in graphs]

        assert summary(kept.maximal_graphs) == summary(
            m for m in full.maximal_graphs if m.regular is not None
        )

    def test_thread_invariance(self):
        h = make_complete_split(3, 2)
        base = maximal_extensions(h, -2, nonmain=True).to_json()
        for threads in (2, 8):
            assert maximal_extensions(h, -2, nonmain=True, threads=threads).to_json() == base


class TestDegreeBalance:
    def test_consistent_case(self):
        bal = degree_balance(2, 2, 2, 1, 2, 1, 1)
        assert (bal.r_independent, bal.r_clique, bal.r_star) == (4, 4, 4)
        assert bal.consistent

    def test_inconsistent_case(self):
        bal = degree_balance(5, 3, 1, 1, 3, 0, 0)
        assert (bal.r_independent, bal.r_clique, bal.r_star) == (6, 7, 4)
        assert not bal.consistent

    def test_degenerate_zeros(self):
        bal = degree_balance(3, 2, 0, 0, 0, 0, 0)
        assert (bal.r_independent, bal.r_clique, bal.r_star) == (3, 4, 0)
        assert not bal.consistent


class TestOracleCompleteness:
    """Engine cliques against brute-force enumeration of all extensions."""

    def engine_patterns(self, h, mu, k):
        cands = enumerate_candidates(h, mu, nonmain=False)
        table = build_compat_graph(h, mu, cands)
        out = set()
        for idxs in combinations(range(len(cands)), k):
            if all(
                table.compatible(i, j) for i, j in combinations(idxs, 2)
            ):
                masks = tuple(cands[i].mask for i in idxs)
                adjacency = frozenset(
                    (a, b)
                    for a, b in combinations(range(k), 2)
                    if table.pair(idxs[a], idxs[b]) is PairClass.ADJACENT
                )
                out.add(attachment_pattern(masks, adjacency))
        return out

    @pytest.mark.parametrize(
        "h,mu",
        [
            (make_complete_split(2, 2), -2),
            (make_complete_split(2, 2), 3),
            (cycle_graph(5), -2),
            (path_graph(4), -2),
        ],
    )
    def test_one_and_two_vertex_extensions(self, h, mu):
        assert eig_multiplicity(h, mu) == 0
        for k in (1, 2):
            assert self.engine_patterns(h, mu, k) == brute_force_extensions(h, mu, k)

    def test_three_vertex_extensions(self):
        for h, mu in [(make_complete_split(2, 2), -2), (path_graph(4), -2)]:
            assert self.engine_patterns(h, mu, 3) == brute_force_extensions(h, mu, 3)

    def test_random_complements_one_vertex(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=25, deadline=None)
        @given(st.integers(0, 2**6 - 1), st.sampled_from([-2, 2, 3]))
        def check(edge_bits, mu):
            pairs = list(combinations(range(4), 2))
            h_edges = [pairs[i] for i in range(6) if (edge_bits >> i) & 1]
            from starcomp import Graph

            h = Graph(4, h_edges)
            if eig_multiplicity(h, mu) > 0:
                assert enumerate_candidates(h, mu, nonmain=False) == []
                return
            assert self.engine_patterns(h, mu, 1) == brute_force_extensions(h, mu, 1)

        check()
