import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

import starcomp.extend as extend_module
from starcomp import kernels
from starcomp.extend import (
    CompatTable,
    _orbit_representatives,
    _orbit_roots,
    _transposition_perms,
    assemble_graph,
    build_compat_graph,
    enumerate_candidates,
    maximal_cliques,
    maximal_extensions,
    twin_transpositions,
)
from starcomp.graphs import (
    Graph,
    is_isomorphic,
    is_regular,
    make_cocktail,
    make_complete_split,
    parse_graph6,
    relabel,
    write_graph6,
)
from starcomp.linalg import (
    PreconditionError,
    SingularResolventError,
    eig_multiplicity,
    resolvent_bilinear,
)
from starcomp.starsets import BudgetExceededError, verify_star_set

from conftest import (
    attachment_pattern,
    brute_force_extensions,
    cycle_graph,
    decoded_witnesses,
    diag_constraint,
    exhaustive_candidates,
    nonmain_constraint,
    path_graph,
    random_graph,
    random_graph_with_twins,
    split_type,
    unreduced_extensions,
)


class TestEnumerateCandidates:
    def test_split_2_2(self):
        h = make_complete_split(2, 2)
        cands = enumerate_candidates(h, -2, nonmain=True)
        assert cands == [(0, 2, 3), (1, 2, 3)]
        assert all(split_type(c, 2) == (1, 2) for c in cands)
        assert cands == exhaustive_candidates(h, -2, True)

    def test_split_2_3_no_candidates(self, monkeypatch):
        # a scan with no hits returns before the mask tables are built
        def unreachable(*args):
            raise AssertionError("mask tables built for an empty scan")

        monkeypatch.setattr(extend_module, "_lex_order", unreachable)
        assert enumerate_candidates(make_complete_split(2, 3), -2, nonmain=True) == []

    @pytest.mark.parametrize("n", [1, 9, 10, 11, 19, 20, 23])
    def test_mask_decode_matches_bits(self, n):
        # chunk boundaries at 10 and 20 bits, full and empty masks included
        rng = random.Random(n)
        masks = [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(500)]
        want = [tuple(v for v in range(n) if (m >> v) & 1) for m in masks]
        assert extend_module._decode_masks(np.array(masks, dtype=np.int64), n) == want
        decoded = extend_module._decode_masks(masks, n)
        assert decoded == want
        assert all(type(v) is int for t in decoded for v in t)
        assert extend_module._decode_masks(np.empty(0, dtype=np.int64), n) == []

    @pytest.mark.parametrize("scan", ["int64", "exact"])
    def test_candidates_are_ascending_tuples_of_plain_ints(self, monkeypatch, scan):
        # the rows cli.write_json writes in one pass: a list of nonempty
        # tuples of plain ints (no numpy scalars), each strictly ascending
        if scan == "exact":
            monkeypatch.setattr(kernels, "ACCUMULATOR_LIMIT", 1)
        cands = enumerate_candidates(make_complete_split(6, 5), -2, nonmain=False)
        assert type(cands) is list and len(cands) == 385
        assert all(type(c) is tuple and c for c in cands)
        assert all(type(v) is int for c in cands for v in c)
        assert all(a < b for c in cands for a, b in zip(c, c[1:]))

    def test_lex_order_matches_sorted_tuples(self):
        # three decode chunks at n = 23; the first and last vertex alone,
        # the full set and every single vertex in each draw
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=200, deadline=None)
        @given(st.integers(1, 23).flatmap(
            lambda n: st.tuples(st.just(n), st.sets(st.integers(1, (1 << n) - 1), max_size=300))
        ))
        def check(args):
            n, drawn = args
            masks = list(drawn | {1, 1 << (n - 1), (1 << n) - 1} | {1 << v for v in range(n)})
            random.Random(len(masks)).shuffle(masks)
            ordered = extend_module._lex_order(np.array(masks, dtype=np.int64), n)
            assert extend_module._decode_masks(ordered, n) == sorted(
                extend_module._decode_masks(masks, n)
            )

        check()

    def test_relabelled_split_matches_oracle(self):
        # the twin classes straddle the vertex order, so the ordering sees
        # masks that are not intervals: 385 and 60 candidates
        perm = list(range(11))
        random.Random(6).shuffle(perm)
        h = relabel(make_complete_split(6, 5), perm)
        for mu, nonmain in [(-2, False), (1, True)]:
            got = enumerate_candidates(h, mu, nonmain=nonmain)
            assert got == exhaustive_candidates(h, mu, nonmain)
            assert len(got) == {-2: 385, 1: 60}[mu]

    def test_split_5_3(self):
        h = make_complete_split(5, 3)
        cands = enumerate_candidates(h, -3, nonmain=True)
        assert len(cands) == 5
        assert all(split_type(c, 5) == (1, 3) for c in cands)
        assert cands == exhaustive_candidates(h, -3, True)

    def test_generic_graph_matches_oracle(self):
        for h, mu in [(cycle_graph(5), -2), (path_graph(4), -2), (cycle_graph(5), 3)]:
            for nonmain in (True, False):
                got = enumerate_candidates(h, mu, nonmain=nonmain)
                assert got == exhaustive_candidates(h, mu, nonmain)

    def test_rational_mu_exact_path(self):
        h = cycle_graph(5)
        mu = Fraction(5, 2)
        got = enumerate_candidates(h, mu, nonmain=False)
        assert got == exhaustive_candidates(h, mu, False)

    def test_candidates_distinct_nonempty(self):
        for h, mu in [
            (make_complete_split(2, 2), -2),
            (make_complete_split(3, 2), -2),
            (cycle_graph(5), -2),
        ]:
            cands = enumerate_candidates(h, mu, nonmain=False)
            assert all(cands)
            assert len(set(cands)) == len(cands)

    def test_mu_zero_and_minus_one_rejected(self):
        for mu in (0, -1):
            message = f"^mu={mu} is not supported by the extension engine$"
            with pytest.raises(PreconditionError, match=message):
                enumerate_candidates(cycle_graph(5), mu)

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
        want = {
            (a, b): comb(s, a) * comb(t, b)
            for a in range(s + 1)
            for b in range(t + 1)
            if diag_constraint(s, t, mu, a, b) == 0
            and (not nonmain or nonmain_constraint(s, t, mu, a, b) == 0)
        }
        cands = enumerate_candidates(h, mu, nonmain=nonmain)
        assert cands or s + t < 18
        assert Counter(split_type(c, s) for c in cands) == want
        assert cands == sorted(set(cands))

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
            assert exact == exhaustive_candidates(h, mu, nonmain)

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
        table = build_compat_graph(h, -2, enumerate_candidates(h, -2, nonmain=True))
        assert table.adjacent[0, 1] and table.compat[0, 1]

    def test_split_5_3_incompatible(self):
        h = make_complete_split(5, 3)
        table = build_compat_graph(h, -3, enumerate_candidates(h, -3, nonmain=True)[:2])
        assert not table.compat[0, 1]

    def test_self_pair_incompatible(self):
        h = make_complete_split(2, 2)
        u, _ = enumerate_candidates(h, -2, nonmain=True)
        # <b, b> = mu = -2: two copies of one candidate cannot coexist
        table = build_compat_graph(h, -2, [u, u])
        assert not table.compat.any() and not table.adjacent.any()

    @pytest.mark.parametrize("bad", [(-1,), (9,), (0, 6)])
    def test_out_of_range_candidate_rejected(self, bad):
        # -1 would index vertex 5 and 9 would raise numpy's IndexError
        h = make_complete_split(3, 3)
        with pytest.raises(ValueError, match=r"out of range for n=6"):
            build_compat_graph(h, -3, [bad, (0,)])
        with pytest.raises(ValueError, match=r"out of range for n=6"):
            build_compat_graph(h, -3, [(0,), bad])

    @pytest.mark.parametrize("bad", [(1.0, 2.0), (0, 2.5)])
    def test_non_integer_candidate_rejected(self, bad):
        # (1.0, 2.0) would pass as (1, 2) if vertices were read by int()
        h = cycle_graph(5)
        with pytest.raises(ValueError, match=r"^candidate vertices must be integers"):
            build_compat_graph(h, -2, [(0,), bad])

    @pytest.mark.parametrize("bad", [(3, 1, 1), (1, 0)])
    def test_unsorted_candidate_rejected(self, bad):
        # its attachment row would be {1, 3} or {0, 1}, not the tuple kept
        h = cycle_graph(5)
        with pytest.raises(ValueError, match=re.escape(f"candidate {bad} is not strictly ascending")):
            build_compat_graph(h, -2, [bad, (0,)])

    def test_classification_matches_exact_values(self):
        # C_5's five candidates at mu = -2: each pair's class, read from the
        # table's masks, against resolvent_bilinear; a candidate with itself
        # has <b, b> = mu and is incompatible
        h = cycle_graph(5)
        mu = -2
        cands = enumerate_candidates(h, mu, nonmain=False)
        assert len(cands) == 5
        table = build_compat_graph(h, mu, cands)
        for i in range(len(cands)):
            for j in range(len(cands)):
                value = resolvent_bilinear(h, mu, table.attachment[i], table.attachment[j])
                assert table.adjacent[i, j] == (value == -1)
                assert table.compat[i, j] == (value in (-1, 0))


class TestCompatTable:
    def test_2_2_table(self):
        h = make_complete_split(2, 2)
        cands = enumerate_candidates(h, -2, nonmain=True)
        table = build_compat_graph(h, -2, cands)
        assert table.adjacent.tolist() == table.compat.tolist() == [[False, True], [True, False]]

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
                    assert not table.compat[i, j]
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

    def test_clique_budget_counts_the_orbit_first_search(self):
        # split:14,3 at mu = -3 has 525 525 maximal cliques in one orbit; the
        # search lists only those through the orbit's first candidate, which
        # fit in a budget that the 2^17-subset scan needs anyway
        rep = maximal_extensions(make_complete_split(14, 3), -3, nonmain=True, budget=131072)
        assert (rep["candidates"], len(rep["maximal"])) == (1001, 1)

    def test_clique_budget_sums_over_roots(self):
        # 443 maximal cliques; the search lists 147 from the first root and
        # 27 from the second, so the budget binds at their sum, 174
        h = parse_graph6("F||Fo")
        rep = maximal_extensions(h, -2, nonmain=False, budget=174)
        assert rep == unreduced_extensions(h, -2, False, False, True)[0]
        with pytest.raises(BudgetExceededError, match="^more than 173 maximal cliques exceeds budget 173$"):
            maximal_extensions(h, -2, nonmain=False, budget=173)

    @pytest.mark.parametrize("mu", [-2, pytest.param(1, id="mu1")])
    def test_table_matches_exact_values(self, mu):
        # the one-product table, entry by entry, against resolvent_bilinear
        h = cycle_graph(5)
        cands = [c for k in (1, 2, 3) for c in combinations(range(5), k)]
        table = build_compat_graph(h, mu, cands)
        assert [tuple(np.flatnonzero(row)) for row in table.attachment] == cands
        for i in range(len(cands)):
            for j in range(len(cands)):
                value = resolvent_bilinear(h, mu, table.attachment[i], table.attachment[j])
                assert table.adjacent[i, j] == (i != j and value == -1)
                assert table.compat[i, j] == (i != j and value in (-1, 0))

    @staticmethod
    def compare_with_bilinear(h, mu, extra_masks=()):
        """Check every entry of the table against resolvent_bilinear, and every
        maximal clique's assembled graph against the table; return the
        number of star-vertex pairs and edges the assemblies checked."""
        n = h.n
        cands = enumerate_candidates(h, mu, nonmain=False)
        # arbitrary subsets as well, so that every class shows up
        extra = [
            tuple(v for v in range(n) if (mask >> v) & 1)
            for mask in (m % (1 << n) or 1 for m in extra_masks)
        ]
        mixed = build_compat_graph(h, mu, cands + extra)
        vecs = [np.isin(range(n), c).astype(np.uint8) for c in mixed.candidates]
        for i, u in enumerate(vecs):
            for j, v in enumerate(vecs):
                value = resolvent_bilinear(h, mu, u, v)
                assert mixed.adjacent[i, j] == (i != j and value == -1)
                assert mixed.compatible(i, j) is (i != j and value in (-1, 0))
        table = build_compat_graph(h, mu, cands)
        pairs = edges = 0
        for clique in maximal_cliques(table):
            g = assemble_graph(table, clique)
            assert g.n == n + len(clique)
            assert np.array_equal(g.adj[:n, :n], h.adj)
            for a, i in enumerate(clique):
                assert np.array_equal(g.adj[n + a, :n], np.isin(range(n), cands[i]))
                for b, j in enumerate(clique[a + 1:], a + 1):
                    adjacent = bool(table.adjacent[i, j])
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
        kernels.int_dtype chose for the two builds."""
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
        cands = [c for k in (1, 2, 3) for c in combinations(range(5), k)]
        chosen = self.int64_and_exact_tables(monkeypatch, cycle_graph(5), -2, cands)
        assert chosen == [np.int64, object]

    def test_rational_mu_table_is_exact(self, monkeypatch):
        # a non-integral mu has no candidates: its table is the empty one,
        # built without asking the overflow rule
        for h in (cycle_graph(5), make_complete_split(4, 8)):
            assert self.int64_and_exact_tables(monkeypatch, h, Fraction(-5, 2), []) == []
            assert build_compat_graph(h, Fraction(-5, 2), []).candidates == ()

    def test_rational_mu_table_is_refused(self):
        # a table of some candidates refuses a non-integral mu
        cands = [c for k in (1, 2, 3) for c in combinations(range(5), k)]
        for h in (cycle_graph(5), make_complete_split(4, 8)):
            with pytest.raises(ValueError, match="takes an integral mu, got -5/2"):
                build_compat_graph(h, Fraction(-5, 2), cands)

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
                tuple(v for v in range(n) if (mask >> v) & 1)
                for mask in (m % (1 << n) or 1 for m in extra)
            ]
            chosen = self.int64_and_exact_tables(monkeypatch, h, mu, cands)
            assert chosen == [np.int64, object]

        check()


class TestAssemble:
    def test_both_candidates_build_octahedron(self):
        h = make_complete_split(2, 2)
        cands = enumerate_candidates(h, -2, nonmain=True)
        g = assemble_graph(build_compat_graph(h, -2, cands), (0, 1))
        assert g.n == 6
        assert is_regular(g) == 4
        assert is_isomorphic(g, make_cocktail(3))

    def test_single_candidate(self):
        h = make_complete_split(2, 2)
        cands = enumerate_candidates(h, -2, nonmain=True)
        g = assemble_graph(build_compat_graph(h, -2, cands), (0,))
        assert g.n == h.n + 1
        (cert,) = verify_star_set(g, -2, [[h.n]])
        assert cert["valid"] and cert["checks"]["multiplicity"] == 1

    def test_empty_choice(self):
        h = make_complete_split(2, 2)
        cands = enumerate_candidates(h, -2, nonmain=True)
        assert assemble_graph(build_compat_graph(h, -2, cands), ()) == h

    @pytest.mark.parametrize("h, mu, nonmain", [
        (make_complete_split(2, 2), -2, True),
        (make_complete_split(4, 2), -2, False),
        (cycle_graph(5), -2, False),
        (path_graph(4), -3, False),
    ], ids=["split:2,2", "split:4,2", "C5", "P4"])
    def test_block_is_the_checked_graph(self, h, mu, nonmain):
        # the block is wrapped unchecked; from_adjacency of the same block
        # accepts it and gives an equal graph with the same hash and graph6
        table = build_compat_graph(h, mu, enumerate_candidates(h, mu, nonmain=nonmain))
        for clique in [()] + maximal_cliques(table):
            g = assemble_graph(table, clique)
            k = np.asarray(clique, dtype=np.intp)
            c = table.attachment[k]
            checked = Graph.from_adjacency(
                np.block([[h.adj, c.T], [c, table.adjacent[np.ix_(k, k)]]])
            )
            assert g == checked and hash(g) == hash(checked)
            assert write_graph6(g) == write_graph6(checked)

    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_outside_table_rejected(self, index):
        # -1 would wrap to the last candidate and 3 raise numpy's IndexError
        h = make_complete_split(3, 2)
        table = build_compat_graph(h, -2, enumerate_candidates(h, -2, nonmain=True))
        assert len(table.candidates) == 3
        message = f"clique [{index}] has an index outside [0, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            assemble_graph(table, [index])
        with pytest.raises(ValueError, match="outside"):
            assemble_graph(table, [0, index])

    def test_incompatible_rejected(self):
        h = make_complete_split(5, 3)
        cands = enumerate_candidates(h, -3, nonmain=True)
        message = f"candidates {cands[0]} and {cands[1]} cannot coexist for mu=-3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            assemble_graph(build_compat_graph(h, -3, cands), (0, 1))

    def test_incompatible_reports_first_pair(self):
        # the error names the first incompatible pair in (i, j) order
        h = make_complete_split(2, 2)
        chosen = enumerate_candidates(h, -2, nonmain=True) + [(0,), (1,)]
        table = build_compat_graph(h, -2, chosen)
        vecs = table.attachment
        i, j = next(
            (i, j) for i, j in combinations(range(len(chosen)), 2)
            if resolvent_bilinear(h, -2, vecs[i], vecs[j]) not in (-1, 0)
        )
        message = f"candidates {chosen[i]} and {chosen[j]} cannot"
        with pytest.raises(ValueError, match=re.escape(message)):
            assemble_graph(table, range(len(chosen)))


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
        # the table, which every pair class and assembly reads, refuses mu
        message = f"^mu={mu} is an eigenvalue of the star complement$"
        with pytest.raises(SingularResolventError, match=message):
            build_compat_graph(h, mu, [(0,), (1, 2)])


class TestMaximalExtensions:
    def test_octahedron_from_2_2(self):
        rep = maximal_extensions(
            make_complete_split(2, 2), -2, nonmain=True, regular_only=True
        )
        assert len(rep["maximal"]) == 1
        found = rep["maximal"][0]
        assert is_isomorphic(parse_graph6(found["graph6"]), make_cocktail(3))
        assert len(found["X"]) == 2
        assert found["regular"] == 4

    def test_5_3_none_regular(self):
        rep = maximal_extensions(
            make_complete_split(5, 3), -3, nonmain=True, regular_only=True
        )
        assert rep["candidates"] == 5
        assert rep["maximal"] == []

    def test_2_2_without_regular_filter(self):
        rep = maximal_extensions(
            make_complete_split(2, 2), -2, nonmain=True, regular_only=False
        )
        assert len(rep["maximal"]) == 1
        assert is_isomorphic(parse_graph6(rep["maximal"][0]["graph6"]), make_cocktail(3))

    def test_soundness_every_graph_verifies(self):
        for h, mu in [
            (make_complete_split(3, 2), -2),
            (cycle_graph(5), -2),
            (path_graph(4), -3),
        ]:
            rep = maximal_extensions(h, mu, nonmain=False)
            for m in rep["maximal"]:
                assert verify_star_set(parse_graph6(m["graph6"]), mu, [m["X"]])[0]["valid"]

    def test_include_nonmaximal(self):
        rep = maximal_extensions(
            make_complete_split(2, 2), -2, nonmain=True, maximal_only=False
        )
        # the 2-clique plus its two 1-subsets, up to isomorphism
        assert len(rep["maximal"]) == 2
        sizes = sorted(len(m["X"]) for m in rep["maximal"])
        assert sizes == [1, 2]

    def test_include_nonmaximal_budget(self, monkeypatch):
        # split:4,2 at mu = -2 has 12 maximal cliques with 180 nonempty
        # sub-cliques in all, above its 2^6 subset scan
        h = make_complete_split(4, 2)
        cliques = maximal_cliques(build_compat_graph(h, -2, enumerate_candidates(h, -2, False)))
        threshold = sum((1 << len(c)) - 1 for c in cliques)
        assert threshold == 180 > 1 << h.n
        rep = maximal_extensions(h, -2, nonmain=False, maximal_only=False, budget=threshold)
        assert rep["maximal"]

        def untouched(*args):
            raise AssertionError("sub-cliques materialised past the budget")

        monkeypatch.setattr(extend_module, "all_cliques", untouched)
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
        assert any(m["regular"] is None for m in full["maximal"])
        assert regular_canon and all(is_regular(g) is not None for g in regular_canon)
        assert len(regular_canon) < len(all_canon)
        # graph6 is the witness's labelled graph, so equal entries keep the
        # same witnesses and canonical forms
        assert kept["maximal"] == [m for m in full["maximal"] if m["regular"] is not None]

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
            _orbit_representatives(
                cliques[1:], twin_transpositions(h), _transposition_perms(table)
            )

    def test_extend_workload_assembles_two_cliques(self, assembled):
        # extend split:8,3 --mu=-3: 63 maximal cliques in two isomorphism classes
        h = make_complete_split(8, 3)
        table = build_compat_graph(h, -3, enumerate_candidates(h, -3, nonmain=False))
        assert len(maximal_cliques(table)) == 63
        rep = maximal_extensions(h, -3, nonmain=False)
        assert len(assembled) == 2
        oracle, witnesses = unreduced_extensions(
            h, -3, nonmain=False, regular_only=False, maximal_only=True
        )
        assert rep == oracle
        assert decoded_witnesses(h, table.candidates, rep) == witnesses

    def test_split_8_3_nonmain_lists_one_clique(self, assembled, monkeypatch):
        # one orbit of 35 maximal cliques; the search from its first
        # candidate lists one clique, and that one is assembled
        listed = []
        real = extend_module.maximal_cliques

        def counting(*args, **kwargs):
            listed.append(len(found := real(*args, **kwargs)))
            return found

        monkeypatch.setattr(extend_module, "maximal_cliques", counting)
        h = make_complete_split(8, 3)
        table = build_compat_graph(h, -3, enumerate_candidates(h, -3, nonmain=True))
        assert len(real(table)) == 35
        rep = maximal_extensions(h, -3, nonmain=True)
        assert sum(listed) == 1 and len(assembled) == 1 and len(rep["maximal"]) == 1
        assert rep == unreduced_extensions(h, -3, True, False, True)[0]

    def test_orbit_roots_and_stabilizers(self):
        # on every subset of a random H with twins: the roots are the first
        # members of the twin group's orbits, each with the earlier orbits,
        # and its stabilizer's generators fix b_r and join exactly the
        # parts V_i & b_r and V_i - b_r of the twin classes V_i
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=60, deadline=None)
        @given(st.integers(1, 5), st.integers(0, 3), st.randoms(use_true_random=False))
        def check(n, twins, rng):
            h = random_graph_with_twins(n, twins, rng)
            masks = list(range(1 << h.n))
            twin_of = [[u for u in range(h.n) if u == v or is_twin(h, u, v)] for v in range(h.n)]
            orbit = []  # orbit[m]: the least mask that G maps m to
            for m in masks:
                seen, todo = {m}, [m]
                for x in todo:
                    for u, v in twin_transpositions(h):
                        if (x >> u ^ x >> v) & 1 and (y := x ^ (1 << u | 1 << v)) not in seen:
                            seen.add(y)
                            todo.append(y)
                orbit.append(min(seen))
            # a table whose candidates are all subsets, candidate m being mask m;
            # _orbit_roots reads only H, the candidates and their attachment rows
            rows = np.array([[m >> v & 1 for v in range(h.n)] for m in masks], dtype=np.uint8)
            none = np.zeros((len(masks),) * 2, dtype=bool)
            cands = tuple(tuple(np.flatnonzero(row).tolist()) for row in rows)
            roots = _orbit_roots(CompatTable(h, Fraction(1), cands, rows, none, none))
            assert [r for r, _, _ in roots] == sorted(set(orbit))
            for r, earlier, stabilizer in roots:
                assert earlier == sum(1 << m for m in masks if orbit[m] < r)
                cls = list(range(h.n))
                for u, v in stabilizer:
                    assert (r >> u ^ r >> v) & 1 == 0 and u in twin_of[v]
                    cls = [cls[u] if c == cls[v] else c for c in cls]
                for u, v in combinations(range(h.n), 2):
                    same_side = (r >> u ^ r >> v) & 1 == 0
                    assert (cls[u] == cls[v]) is (u in twin_of[v] and same_side)

        def is_twin(h, u, v):
            closed = h.adj + np.eye(h.n, dtype=h.adj.dtype)
            return np.array_equal(h.adj[u], h.adj[v]) or np.array_equal(closed[u], closed[v])

        check()

    def test_nonmaximal_reduces_after_expansion(self):
        # A triangle plus two isolated vertices at mu = 1: the first
        # sub-clique of some class lies in no orbit-first maximal clique, so
        # reducing before the sub-cliques are listed changes a witness.
        h = Graph(5, [(0, 3), (0, 4), (3, 4)])
        rep = maximal_extensions(h, 1, nonmain=False, maximal_only=False)
        oracle, witnesses = unreduced_extensions(
            h, 1, nonmain=False, regular_only=False, maximal_only=False
        )
        assert rep == oracle
        cands = enumerate_candidates(h, 1, nonmain=False)
        assert decoded_witnesses(h, cands, rep) == witnesses

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
            oracle, witnesses = unreduced_extensions(h, mu, nonmain, regular_only, maximal_only)
            assert rep == oracle
            cands = enumerate_candidates(h, mu, nonmain=nonmain)
            assert decoded_witnesses(h, cands, rep) == witnesses
            if maximal_only:
                table = build_compat_graph(h, mu, cands)
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
                masks = tuple(sum(1 << v for v in cands[i]) for i in idxs)
                adjacency = frozenset(
                    (a, b)
                    for a, b in combinations(range(k), 2)
                    if table.adjacent[idxs[a], idxs[b]]
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
            from starcomp.graphs import Graph

            h = Graph(4, h_edges)
            if eig_multiplicity(h, mu) > 0:
                assert enumerate_candidates(h, mu, nonmain=False) == []
                return
            assert self.engine_patterns(h, mu, 1) == brute_force_extensions(h, mu, 1)

        check()
