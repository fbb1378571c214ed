import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from starcomp import (
    BlockSpec,
    Graph,
    PairClass,
    assemble_graph,
    build_compat_graph,
    cycle_graph,
    eig_multiplicity,
    enumerate_candidates,
    is_isomorphic,
    is_regular,
    make_cocktail,
    make_complete_split,
    maximal_extensions,
    pair_class,
    parse_graph6,
    path_graph,
    relabel,
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
    _orbit_representatives,
    maximal_cliques,
    twin_transpositions,
)
from starcomp.starsets import BudgetExceededError

from conftest import (
    attachment_pattern,
    brute_force_extensions,
    diag_constraint,
    exhaustive_candidates,
    nonmain_constraint,
    random_graph,
    random_graph_with_twins,
    split_type,
    unreduced_extensions,
)


class TestEnumerateCandidates:
    def test_split_2_2(self):
        h = make_complete_split(2, 2)
        cands = enumerate_candidates(h, -2, nonmain=True)
        assert [c.vertices for c in cands] == [(0, 2, 3), (1, 2, 3)]
        assert all(split_type(c, 2) == (1, 2) for c in cands)
        assert [c.vertices for c in cands] == exhaustive_candidates(h, -2, True)

    def test_split_2_3_no_candidates(self):
        assert enumerate_candidates(make_complete_split(2, 3), -2, nonmain=True) == []

    @pytest.mark.parametrize("n", [1, 9, 10, 11, 19, 20, 23])
    def test_mask_decode_matches_bits(self, n):
        # chunk boundaries at 10 and 20 bits, full and empty masks included
        rng = random.Random(n)
        masks = [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(500)]
        want = [tuple(v for v in range(n) if (m >> v) & 1) for m in masks]
        assert extend_module._decode_masks(np.array(masks, dtype=np.int64), n) == want
        assert extend_module._decode_masks(masks, n) == want
        assert extend_module._decode_masks(np.empty(0, dtype=np.int64), n) == []

    def test_split_5_3(self):
        h = make_complete_split(5, 3)
        cands = enumerate_candidates(h, -3, nonmain=True)
        assert len(cands) == 5
        assert all(split_type(c, 5) == (1, 3) for c in cands)
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

    @pytest.mark.parametrize("nonmain", [False, True])
    @pytest.mark.parametrize("s,t,mu", [
        (6, 6, -2), (6, 5, -2), (5, 6, 2), (5, 3, -3),
        (13, 5, 1), (14, 4, -4), (16, 2, -2), (15, 4, -4),
    ])
    def test_split_candidates_across_blocks(self, s, t, mu, nonmain):
        # from 2^17 masks the int64 scan runs over several outer blocks of
        # 2^(LOW_BITS + INNER_BITS) masks; on K_s + tK_1 the candidates are
        # exactly the neighbourhoods of the types (a, b) that solve the closed
        # type constraints, C(s, a) C(t, b) of each
        h = make_complete_split(s, t)
        spec = BlockSpec(s, t)
        want = {
            (a, b): comb(s, a) * comb(t, b)
            for a in range(s + 1)
            for b in range(t + 1)
            if diag_constraint(spec, mu, a, b) == 0
            and (not nonmain or nonmain_constraint(spec, mu, a, b) == 0)
        }
        cands = enumerate_candidates(h, mu, nonmain=nonmain)
        assert cands or s + t < 18
        assert Counter(split_type(c, s) for c in cands) == want
        assert [c.vertices for c in cands] == sorted({c.vertices for c in cands})

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
        fast = enumerate_candidates(h, mu, nonmain=nonmain)
        assert set(calls) == {"int64"}
        calls.clear()
        monkeypatch.setattr(kernels, "ACCUMULATOR_LIMIT", 1)
        exact = enumerate_candidates(h, mu, nonmain=nonmain)
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

    @pytest.mark.parametrize("bad", [(-1,), (9,), (0, 6)])
    def test_out_of_range_candidate_rejected(self, bad):
        # -1 would index vertex 5 and 9 would raise numpy's IndexError
        h = make_complete_split(3, 3)
        with pytest.raises(ValueError, match=r"out of range for n=6"):
            pair_class(h, -3, Candidate(bad), Candidate((0,)))
        with pytest.raises(ValueError, match=r"out of range for n=6"):
            build_compat_graph(h, -3, [Candidate((0,)), Candidate(bad)])

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
        assert maximal_cliques(table, 5) == [(i,) for i in range(5)]
        with pytest.raises(BudgetExceededError, match="^more than 4 maximal cliques exceeds budget 4$"):
            maximal_cliques(table, 4)

    def test_clique_budget_stops_the_search(self):
        # 40 candidates on 8 vertices with more than 200 000 maximal cliques:
        # Bron-Kerbosch stops at the budget instead of listing them all
        h = parse_graph6("G]~MUO")
        with pytest.raises(BudgetExceededError, match="more than 4096 maximal cliques"):
            maximal_extensions(h, 1, nonmain=True, budget=4096)

    @pytest.mark.parametrize("mu", [-2, Fraction(-5, 2)])
    def test_table_matches_exact_values(self, mu):
        # the one-product table, entry by entry, against resolvent_bilinear
        h = cycle_graph(5)
        cands = [Candidate(c) for k in (1, 2, 3) for c in combinations(range(5), k)]
        table = build_compat_graph(h, mu, cands)
        by_value = {-1: PairClass.ADJACENT, 0: PairClass.NONADJACENT}
        for i, u in enumerate(cands):
            for j, v in enumerate(cands):
                value = resolvent_bilinear(h, mu, u.vector(5), v.vector(5))
                want = by_value.get(value, PairClass.INCOMPATIBLE) if i != j else PairClass.INCOMPATIBLE
                assert table.pair(i, j) is want

    @staticmethod
    def compare_with_bilinear(h, mu, extra_masks=()):
        """Check every entry of the table against resolvent_bilinear, and every
        maximal clique's assembled graph against the table; return the
        number of star-vertex pairs and edges the assemblies checked."""
        n = h.n
        incompatible = PairClass.INCOMPATIBLE
        by_value = {-1: PairClass.ADJACENT, 0: PairClass.NONADJACENT}
        cands = enumerate_candidates(h, mu, nonmain=False)
        # arbitrary subsets as well, so that every class shows up
        extra = [
            Candidate(tuple(v for v in range(n) if (mask >> v) & 1))
            for mask in (m % (1 << n) or 1 for m in extra_masks)
        ]
        mixed = build_compat_graph(h, mu, cands + extra)
        vecs = [c.vector(n) for c in mixed.candidates]
        for i, u in enumerate(vecs):
            for j, v in enumerate(vecs):
                value = resolvent_bilinear(h, mu, u, v)
                want = by_value.get(value, incompatible) if i != j else incompatible
                assert mixed.pair(i, j) is want
                assert mixed.compatible(i, j) is (want is not incompatible)
        table = build_compat_graph(h, mu, cands)
        pairs = edges = 0
        for clique in maximal_cliques(table):
            g, star = assemble_graph(table, clique)
            assert star == tuple(range(n, n + len(clique)))
            assert np.array_equal(g.adj[:n, :n], h.adj)
            for a, i in enumerate(clique):
                assert np.array_equal(g.adj[n + a, :n], cands[i].vector(n))
                for b, j in enumerate(clique[a + 1:], a + 1):
                    adjacent = table.pair(i, j) is PairClass.ADJACENT
                    assert bool(g.adj[n + a, n + b]) is adjacent
                    pairs += 1
                    edges += adjacent
        return pairs, edges

    @pytest.mark.parametrize("h,mu", [
        (make_complete_split(2, 2), -2), (make_complete_split(3, 2), -2), (cycle_graph(5), -2),
    ])
    def test_table_and_assembly_match_bilinear_fixed(self, h, mu):
        # the random cases below often have no clique of two candidates
        pairs, edges = self.compare_with_bilinear(h, mu, [3, 5, 6, 7, 11])
        assert pairs and edges

    def test_table_and_assembly_match_bilinear(self):
        # random H (n <= 7) and integral mu outside spec(H)
        from hypothesis import assume, given, settings, strategies as st

        @settings(max_examples=60, deadline=None)
        @given(
            st.integers(1, 7),
            st.randoms(use_true_random=False),
            st.integers(-4, 4),
            st.lists(st.integers(1, 127), max_size=6),
        )
        def check(n, rng, mu, extra):
            assume(mu not in (0, -1))
            h = random_graph(n, rng)
            assume(eig_multiplicity(h, mu) == 0)
            self.compare_with_bilinear(h, mu, extra)

        check()

    @staticmethod
    def int64_and_exact_tables(monkeypatch, h, mu, cands):
        """Build the table as the overflow rule chooses and again with int64
        ruled out, require equal fields, and return the dtypes that
        kernels.int_dtype chose for the two builds (none for a rational mu)."""
        chosen = []
        real = kernels.int_dtype

        def spy(*args):
            chosen.append(real(*args))
            return chosen[-1]

        with monkeypatch.context() as m:
            m.setattr(kernels, "int_dtype", spy)
            fast = build_compat_graph(h, mu, cands)
            m.setattr(kernels, "ACCUMULATOR_LIMIT", 1)
            exact = build_compat_graph(h, mu, cands)
        for field in ("attachment", "adjacent", "compat"):
            assert np.array_equal(getattr(fast, field), getattr(exact, field)), field
        assert fast.attachment.dtype == exact.attachment.dtype == np.uint8
        return chosen

    @pytest.mark.parametrize("nonmain", [False, True])
    @pytest.mark.parametrize("s,t,mu", [(2, 2, -2), (6, 2, -2), (5, 3, -3), (7, 3, -3), (3, 5, 1)])
    def test_int64_table_matches_exact_table(self, monkeypatch, s, t, mu, nonmain):
        h = make_complete_split(s, t)
        cands = enumerate_candidates(h, mu, nonmain=nonmain)
        assert cands
        assert self.int64_and_exact_tables(monkeypatch, h, mu, cands) == [np.int64, object]

    def test_int64_table_matches_exact_table_on_cycle(self, monkeypatch):
        cands = [Candidate(c) for k in (1, 2, 3) for c in combinations(range(5), k)]
        chosen = self.int64_and_exact_tables(monkeypatch, cycle_graph(5), -2, cands)
        assert chosen == [np.int64, object]

    def test_rational_mu_table_is_exact(self, monkeypatch):
        # R' holds Fractions for a rational mu: the overflow rule is not asked
        cands = [Candidate(c) for k in (1, 2, 3) for c in combinations(range(5), k)]
        for h in (cycle_graph(5), make_complete_split(4, 8)):
            assert self.int64_and_exact_tables(monkeypatch, h, Fraction(-5, 2), cands) == []

    def test_int64_table_matches_exact_table_random(self, monkeypatch):
        # random H (n <= 7), integral mu outside spec(H), arbitrary extra subsets
        from hypothesis import assume, given, settings, strategies as st

        @settings(max_examples=40, deadline=None)
        @given(
            st.integers(1, 7),
            st.randoms(use_true_random=False),
            st.integers(-4, 4),
            st.lists(st.integers(1, 127), min_size=1, max_size=6),
        )
        def check(n, rng, mu, extra):
            assume(mu not in (0, -1))
            h = random_graph(n, rng)
            assume(eig_multiplicity(h, mu) == 0)
            cands = enumerate_candidates(h, mu, nonmain=False) + [
                Candidate(tuple(v for v in range(n) if (mask >> v) & 1))
                for mask in (m % (1 << n) or 1 for m in extra)
            ]
            chosen = self.int64_and_exact_tables(monkeypatch, h, mu, cands)
            assert chosen == [np.int64, object]

        check()


class TestAssemble:
    def test_both_candidates_build_octahedron(self):
        h = make_complete_split(2, 2)
        cands = enumerate_candidates(h, -2, nonmain=True)
        g, star = assemble_graph(build_compat_graph(h, -2, cands), (0, 1))
        assert g.n == 6
        assert is_regular(g) == 4
        assert star == (4, 5)
        assert is_isomorphic(g, make_cocktail(3))

    def test_single_candidate(self):
        h = make_complete_split(2, 2)
        cands = enumerate_candidates(h, -2, nonmain=True)
        g, star = assemble_graph(build_compat_graph(h, -2, cands), (0,))
        assert g.n == h.n + 1
        cert = verify_star_set(g, -2, star)
        assert cert.valid and cert.multiplicity == 1

    def test_empty_choice(self):
        h = make_complete_split(2, 2)
        cands = enumerate_candidates(h, -2, nonmain=True)
        g, star = assemble_graph(build_compat_graph(h, -2, cands), ())
        assert g == h and star == ()

    def test_incompatible_rejected(self):
        h = make_complete_split(5, 3)
        cands = enumerate_candidates(h, -3, nonmain=True)
        with pytest.raises(IncompatiblePairError):
            assemble_graph(build_compat_graph(h, -3, cands), (0, 1))

    def test_incompatible_reports_first_pair(self):
        # the error names the first incompatible pair in (i, j) order
        h = make_complete_split(2, 2)
        chosen = enumerate_candidates(h, -2, nonmain=True) + [Candidate((0,)), Candidate((1,))]
        vecs = [c.vector(h.n) for c in chosen]
        i, j = next(
            (i, j) for i, j in combinations(range(len(chosen)), 2)
            if resolvent_bilinear(h, -2, vecs[i], vecs[j]) not in (-1, 0)
        )
        message = f"candidates {chosen[i].vertices} and {chosen[j].vertices} cannot"
        with pytest.raises(IncompatiblePairError, match=re.escape(message)):
            assemble_graph(build_compat_graph(h, -2, chosen), range(len(chosen)))


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
            assemble_graph(build_compat_graph(h, mu, [u, v]), (0, 1))
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

class TestOrbitReduction:
    @pytest.fixture
    def assembled(self, monkeypatch):
        """The cliques maximal_extensions assembles, in call order."""
        calls = []
        real = extend_module.assemble_graph

        def counting(table, clique):
            calls.append(tuple(clique))
            return real(table, clique)

        monkeypatch.setattr(extend_module, "assemble_graph", counting)
        return calls

    def test_twin_transpositions_are_automorphisms(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=60, deadline=None)
        @given(st.integers(1, 6), st.integers(0, 4), st.randoms(use_true_random=False))
        def check(n, twins, rng):
            h = random_graph_with_twins(n, twins, rng)
            pairs = twin_transpositions(h)
            for u, v in pairs:
                perm = list(range(h.n))
                perm[u], perm[v] = v, u
                assert relabel(h, perm) == h
            # the transpositions join exactly the twins, of either kind
            cls = list(range(h.n))
            for u, v in pairs:
                cls = [cls[u] if c == cls[v] else c for c in cls]
            closed = h.adj + np.eye(h.n, dtype=h.adj.dtype)
            for u, v in combinations(range(h.n), 2):
                twin = np.array_equal(h.adj[u], h.adj[v]) or np.array_equal(closed[u], closed[v])
                assert (cls[u] == cls[v]) is twin

        check()

    @pytest.mark.parametrize("s,t", [(1, 2), (2, 2), (3, 4), (8, 3), (12, 8)])
    def test_split_generators_transitive_on_blocks(self, s, t):
        cls = list(range(s + t))
        for u, v in twin_transpositions(make_complete_split(s, t)):
            cls = [cls[u] if c == cls[v] else c for c in cls]
        assert cls == [0] * s + [s] * t

    def test_no_twins_assembles_every_clique(self, assembled):
        # C5 has automorphisms but no twins, so the reduction is the identity
        h = cycle_graph(5)
        assert twin_transpositions(h) == []
        table = build_compat_graph(h, 1, enumerate_candidates(h, 1, nonmain=False))
        cliques = maximal_cliques(table)
        assert len(cliques) == 11
        maximal_extensions(h, 1, nonmain=False)
        assert assembled == cliques

    def test_missing_image_raises(self):
        h = make_complete_split(8, 3)
        table = build_compat_graph(h, -3, enumerate_candidates(h, -3, nonmain=False))
        cliques = maximal_cliques(table)
        with pytest.raises(AssertionError, match="off the list"):
            _orbit_representatives(table, cliques[1:], twin_transpositions(h))

    def test_extend_workload_assembles_two_cliques(self, assembled):
        # extend split:8,3 --mu=-3: 63 maximal cliques in two isomorphism classes
        h = make_complete_split(8, 3)
        table = build_compat_graph(h, -3, enumerate_candidates(h, -3, nonmain=False))
        assert len(maximal_cliques(table)) == 63
        rep = maximal_extensions(h, -3, nonmain=False)
        assert len(assembled) == 2
        oracle = unreduced_extensions(h, -3, nonmain=False, regular_only=False, maximal_only=True)
        assert rep.to_json() == oracle.to_json()
        assert [m.witness for m in rep.maximal_graphs] == [m.witness for m in oracle.maximal_graphs]

    def test_nonmaximal_reduces_after_expansion(self):
        # A triangle plus two isolated vertices at mu = 1: the first
        # sub-clique of some class lies in no orbit-first maximal clique, so
        # reducing before the sub-cliques are listed changes a witness.
        h = Graph(5, [(0, 3), (0, 4), (3, 4)])
        rep = maximal_extensions(h, 1, nonmain=False, maximal_only=False)
        oracle = unreduced_extensions(h, 1, nonmain=False, regular_only=False, maximal_only=False)
        assert rep.to_json() == oracle.to_json()
        assert [m.witness for m in rep.maximal_graphs] == [m.witness for m in oracle.maximal_graphs]

    def test_matches_unreduced_oracle(self, assembled):
        # random H with planted true and false twins, under every filter setting
        from hypothesis import assume, example, given, settings, strategies as st

        reduced = []

        @settings(max_examples=80, deadline=None)
        # a fixed H on which the reduction assembles 2 of 4 maximal cliques,
        # so the check below never depends on what Hypothesis happens to draw
        @example(2, 2, random.Random(0), 1, False, False, True)
        @given(
            st.integers(1, 5),
            st.integers(1, 3),
            st.randoms(use_true_random=False),
            st.sampled_from([-4, -3, -2, 1, 2, 3]),
            st.booleans(),
            st.booleans(),
            st.booleans(),
        )
        def check(n, twins, rng, mu, nonmain, regular_only, maximal_only):
            h = random_graph_with_twins(n, twins, rng)
            assume(eig_multiplicity(h, mu) == 0)
            assembled.clear()
            try:
                rep = maximal_extensions(
                    h, mu, nonmain=nonmain, regular_only=regular_only,
                    maximal_only=maximal_only, budget=4096,
                )
            except BudgetExceededError:
                assume(False)
            oracle = unreduced_extensions(h, mu, nonmain, regular_only, maximal_only)
            assert rep.to_json() == oracle.to_json()
            assert [m.witness for m in rep.maximal_graphs] == [
                m.witness for m in oracle.maximal_graphs
            ]
            if maximal_only:
                table = build_compat_graph(h, mu, rep.candidates)
                reduced.append(len(assembled) < len(maximal_cliques(table)))

        check()
        assert any(reduced)


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
