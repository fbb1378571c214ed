import random
import re
from fractions import Fraction
from itertools import chain, combinations, product

import numpy as np
import pytest

from starcomp.extend import build_compat_graph, enumerate_candidates
from starcomp.graphs import make_complete_split
from starcomp.linalg import (
    SingularResolventError,
    graph_min_poly,
    resolvent_bilinear,
    resolvent_via_minpoly,
)
from starcomp.multipartite import solution_explorer, theorem_check
from starcomp.starsets import BudgetExceededError

from conftest import (
    closed_bilinear,
    coeffs,
    corollary_ab,
    diag_constraint,
    expected_spectrum_from_roots,
    krylov_min_poly,
    minpoly_formula,
    nonmain_constraint,
    poly_at,
    quadratic_in_a,
    resolvent_block,
    split_type,
)


def powerset(items):
    return list(chain.from_iterable(combinations(items, k) for k in range(len(items) + 1)))


def beta_of(s, t, mu):
    return Fraction(mu) ** 2 - (s - 1) * Fraction(mu) - s * t


class TestMinPolyFormula:
    def test_examples(self):
        assert minpoly_formula(2, 2) == (0, -4, -5, 0, 1)
        assert minpoly_formula(3, 2) == (0, -6, -8, -1, 1)
        assert minpoly_formula(2, 3) == (0, -6, -7, 0, 1)

    def test_matches_krylov_up_to_8(self):
        for s in range(2, 9):
            for t in range(2, 9):
                formula = minpoly_formula(s, t)
                h = make_complete_split(s, t)
                assert formula == graph_min_poly(h) == krylov_min_poly(h.adj), (s, t)


class TestCoeffs:
    def test_2_2_minus2(self):
        # (alpha, beta, gamma, delta, m(mu))
        assert coeffs(2, 2, -2) == (0, 2, -2, 2, 4)

    def test_5_3_minus3(self):
        assert coeffs(5, 3, -3) == (0, 6, -10, 6, 36)

    def test_spec_validation(self):
        # K_s + tK_1 is restricted to s, t >= 2, and the closed form with it
        with pytest.raises(ValueError, match="requires s >= 2 and t >= 2"):
            coeffs(1, 2, -3)
        with pytest.raises(ValueError, match="requires s >= 2 and t >= 2"):
            coeffs(2, 1, -3)
        with pytest.raises(ValueError, match="requires s >= 2 and t >= 2"):
            closed_bilinear(1, 2, -3, (1, 1), (1, 1), 1, 1)
        with pytest.raises(ValueError, match="requires s >= 2 and t >= 2"):
            closed_bilinear(2, 1, -3, (1, 1), (1, 1), 1, 1)

    def test_eigenvalue_rejected(self):
        for s, t, mu in [(2, 3, -2), (2, 2, 0), (2, 2, -1)]:  # beta = 0, then mu in {0, -1}
            message = f"mu={mu} is an eigenvalue of K_{s} + {t}K_1"
            with pytest.raises(SingularResolventError, match=f"^{re.escape(message)}$"):
                coeffs(s, t, mu)

    def test_m_mu_consistency(self):
        for s in range(2, 6):
            for t in range(2, 6):
                for mu in range(-5, 6):
                    if mu in (0, -1) or beta_of(s, t, mu) == 0:
                        continue
                    assert coeffs(s, t, mu)[-1] == poly_at(minpoly_formula(s, t), mu)


class TestResolventBlock:
    def test_2_2_minus2_entries(self):
        block = resolvent_block(2, 2, -2)
        m_mu = Fraction(4)
        assert block[0, 0] / m_mu == -1  # clique diagonal
        assert block[0, 2] / m_mu == Fraction(1, 2)  # cross block
        assert block[2, 2] / m_mu == -1  # independent diagonal

    def test_matches_generic_resolvent(self):
        for s in range(2, 9):
            for t in range(2, 9):
                h = make_complete_split(s, t)
                for mu in range(-6, 7):
                    if mu in (0, -1) or beta_of(s, t, mu) == 0:
                        continue
                    assert (
                        resolvent_block(s, t, mu) == resolvent_via_minpoly(h, mu)
                    ).all(), (s, t, mu)


class TestClosedBilinear:
    def test_diagonal_full_overlap(self):
        val = closed_bilinear(
            2, 2, -2, (1, 2), (1, 2), 1, 2
        )
        assert val == -8  # mu * m(mu)

    def test_adjacent_pair(self):
        val = closed_bilinear(
            2, 2, -2, (1, 2), (1, 2), 0, 2
        )
        assert val == -4  # -m(mu)

    def test_5_3_incompatible_value(self):
        val = closed_bilinear(
            5, 3, -3, (1, 3), (1, 3), 0, 3
        )
        assert val == -90
        assert Fraction(val, 36) == Fraction(-5, 2)

    def test_overlap_bounds(self):
        s, t = 3, 3
        with pytest.raises(ValueError):
            closed_bilinear(s, t, -3, (1, 1), (1, 1), 2, 0)
        with pytest.raises(ValueError):
            closed_bilinear(s, t, -3, (1, 1), (1, 1), 0, -1)
        with pytest.raises(ValueError):
            closed_bilinear(s, t, -3, (4, 1), (1, 1), 0, 0)
        # two 2-subsets of a 2-clique share both vertices
        with pytest.raises(ValueError, match="clique overlap"):
            closed_bilinear(2, 2, -3, (2, 0), (2, 0), 0, 0)

    def test_every_overlap_in_bounds_is_realized(self):
        # each (y, z) the bounds admit comes from real subsets, whose direct
        # bilinear value the closed form reproduces
        s, t = 3, 2
        h = make_complete_split(3, 2)
        mu = Fraction(-3)
        m_mu = poly_at(minpoly_formula(s, t), mu)
        clique, indep = range(3), range(3, 5)
        seen = set()
        for ya, yb in product(powerset(clique), repeat=2):
            for za, zb in product(powerset(indep), repeat=2):
                u = (len(ya), len(za))
                v = (len(yb), len(zb))
                y, z = len(set(ya) & set(yb)), len(set(za) & set(zb))
                seen.add((u, v, y, z))
                u_vec = np.array([int(w in ya + za) for w in range(5)], dtype=object)
                v_vec = np.array([int(w in yb + zb) for w in range(5)], dtype=object)
                direct = resolvent_bilinear(h, mu, u_vec, v_vec)
                assert closed_bilinear(s, t, mu, u, v, y, z) == m_mu * direct
        for a, b, e, f in product(range(4), range(3), range(4), range(3)):
            for y, z in product(range(-1, 5), range(-1, 4)):
                u, v = (a, b), (e, f)
                if (u, v, y, z) in seen:
                    continue
                with pytest.raises(ValueError, match="overlap out of range"):
                    closed_bilinear(s, t, mu, u, v, y, z)

    def test_randomized_against_resolvent_bilinear(self):
        rng = random.Random(1234)
        done = 0
        while done < 500:
            s, t = rng.randint(2, 6), rng.randint(2, 6)
            mu = Fraction(rng.randint(-6, 6))
            if mu in (0, -1) or beta_of(s, t, mu) == 0:
                continue
            done += 1
            h = make_complete_split(s, t)
            y1 = set(rng.sample(range(s), rng.randint(0, s)))
            y2 = set(rng.sample(range(s), rng.randint(0, s)))
            z1 = set(rng.sample(range(s, s + t), rng.randint(0, t)))
            z2 = set(rng.sample(range(s, s + t), rng.randint(0, t)))
            u_vec = np.array([int(v in y1 | z1) for v in range(s + t)], dtype=object)
            v_vec = np.array([int(v in y2 | z2) for v in range(s + t)], dtype=object)
            direct = resolvent_bilinear(h, mu, u_vec, v_vec)
            m_mu = poly_at(minpoly_formula(s, t), mu)
            closed = closed_bilinear(
                s,
                t,
                mu,
                (len(y1), len(z1)),
                (len(y2), len(z2)),
                len(y1 & y2),
                len(z1 & z2),
            )
            assert closed == m_mu * direct


class TestPairClassAgreement:
    def test_pair_class_matches_closed_form(self):
        # the generic pairwise classification (the two masks of a table) and
        # the split-graph closed form must sort every pair into the same bucket
        rng = random.Random(55)
        done = 0
        while done < 120:
            s, t = rng.randint(2, 5), rng.randint(2, 5)
            mu = Fraction(rng.randint(-5, 5))
            if mu in (0, -1) or beta_of(s, t, mu) == 0:
                continue
            done += 1
            h = make_complete_split(s, t)
            y1 = set(rng.sample(range(s), rng.randint(0, s)))
            y2 = set(rng.sample(range(s), rng.randint(0, s)))
            z1 = set(rng.sample(range(s, s + t), rng.randint(0, t)))
            z2 = set(rng.sample(range(s, s + t), rng.randint(0, t)))
            u, v = tuple(sorted(y1 | z1)), tuple(sorted(y2 | z2))
            scaled = closed_bilinear(
                s,
                t,
                mu,
                (len(y1), len(z1)),
                (len(y2), len(z2)),
                len(y1 & y2),
                len(z1 & z2),
            )
            m_mu = poly_at(minpoly_formula(s, t), mu)
            table = build_compat_graph(h, mu, [u, v])
            assert table.adjacent[0, 1] == (scaled == -m_mu)
            assert table.compat[0, 1] == (scaled in (-m_mu, 0))


class TestConstraints:
    def test_diag_examples(self):
        assert diag_constraint(2, 2, -2, 1, 2) == 0
        # the stated oracle is mu*m(mu) - closed_bilinear; at (a,b) = (0,0)
        # that is mu*m(mu) = -8
        assert diag_constraint(2, 2, -2, 0, 0) == -8

    def test_diag_equals_oracle_everywhere(self):
        for s in range(2, 5):
            for t in range(2, 5):
                for mu in range(-5, 6):
                    if mu in (0, -1) or beta_of(s, t, mu) == 0:
                        continue
                    m_mu = poly_at(minpoly_formula(s, t), mu)
                    for a in range(s + 1):
                        for b in range(t + 1):
                            diag = closed_bilinear(
                                s, t, mu, (a, b), (a, b), a, b
                            )
                            assert diag_constraint(s, t, mu, a, b) == (
                                Fraction(mu) * m_mu - diag
                            )

    def test_nonmain_examples(self):
        assert nonmain_constraint(2, 2, -2, 1, 2) == 0
        assert nonmain_constraint(3, 2, -2, 2, 2) == 0
        # at (s,t,mu) = (2,3,-2) the relation collapses to a = b
        for a in range(3):
            for b in range(4):
                assert nonmain_constraint(2, 3, -2, a, b) == a - b

    def test_nonmain_equals_row_sum(self):
        # j has type (s, t) and meets a type-(a, b) set in (a, b) vertices:
        # m(mu) <b, j> + m(mu) = mu (mu + 1) times the non-main relation
        for s in range(2, 6):
            for t in range(2, 6):
                for mu in [Fraction(m) for m in range(-6, 6)] + [Fraction(-5, 2), Fraction(7, 3)]:
                    if mu in (0, -1) or beta_of(s, t, mu) == 0:
                        continue
                    m_mu = poly_at(minpoly_formula(s, t), mu)
                    for a in range(s + 1):
                        for b in range(t + 1):
                            row = closed_bilinear(
                                s, t, mu, (a, b), (s, t), a, b
                            )
                            assert row + m_mu == mu * (mu + 1) * nonmain_constraint(
                                s, t, mu, a, b
                            ), (s, t, mu, a, b)

    def test_quadratic_examples(self):
        assert quadratic_in_a(2, 3, -2) == (4, -3, 1)
        assert quadratic_in_a(2, 2, -2) == (-2, 2)

    def test_quadratic_degenerates_at_t_plus_mu_zero(self):
        for s in range(2, 7):
            for t in range(2, 6):
                mu = Fraction(-t)
                q = quadratic_in_a(s, t, mu)
                assert len(q) <= 2
                assert q[1] == mu * (mu + 1)

    def test_minus_one_rejected(self):
        message = re.escape("mu=-1 is an eigenvalue of K_2 + 2K_1")
        with pytest.raises(SingularResolventError, match=message):
            quadratic_in_a(2, 2, -1)

    def test_elimination_identity(self):
        # substituting the forced b into the quintic leaves
        # beta * quadratic / (mu + 1); checked at > 6 points per variable
        for s in range(2, 9):
            for t in range(2, 9):
                for mu in range(-8, 9):
                    if mu in (0, -1) or beta_of(s, t, mu) == 0:
                        continue
                    quad = quadratic_in_a(s, t, mu)
                    beta = beta_of(s, t, mu)
                    for a in range(-3, 9):
                        b = Fraction(s - a) * (mu + t) / (mu + 1) - mu
                        lhs = diag_constraint(s, t, mu, a, b)
                        assert lhs == beta * poly_at(quad, a) / (mu + 1), (s, t, mu, a)


class TestCorollary:
    def test_examples(self):
        assert corollary_ab(4, 2, -2) == (3, 2)
        assert corollary_ab(2, 3, -3) is None
        assert corollary_ab(5, 3, -3) == (1, 3)

    def test_wrong_regime_rejected(self):
        with pytest.raises(ValueError):
            corollary_ab(2, 2, -3)

    def test_candidates_have_forced_type(self):
        for s in range(2, 7):
            for t in (2, 3):
                mu = -t
                expected = corollary_ab(s, t, mu)
                cands = enumerate_candidates(
                    make_complete_split(s, t), mu, nonmain=True
                )
                if expected is None:
                    assert cands == []
                else:
                    assert cands
                    for c in cands:
                        assert split_type(c, s) == expected


class TestTheorem:
    def test_s2(self):
        report = theorem_check(2, 4)
        assert report["passed"]
        assert [b["graphs"] for b in report["branches"]] == [1, 0, 0]

    def test_s3(self):
        report = theorem_check(3, 3)
        assert report["passed"]
        t2 = report["branches"][0]
        assert t2["graphs"] == 1
        assert t2["graph6"] is not None
        from starcomp.graphs import is_isomorphic, make_cocktail, parse_graph6

        assert is_isomorphic(parse_graph6(t2["graph6"]), make_cocktail(4))

    def test_s5_t3_candidates_but_no_graphs(self):
        report = theorem_check(5, 3)
        assert report["passed"]
        t3 = report["branches"][1]
        assert t3["candidates"] == 5
        assert t3["graphs"] == 0

    def test_full_range_through_s6_t5(self):
        for s in range(2, 7):
            report = theorem_check(s, 5)
            assert report["passed"], report

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem_check(1, 3)

    def test_degree_balance_fails_on_its_own(self):
        # the s = 4 cocktail witness with one star-star edge dropped: the
        # measured d is no longer one value, so the balance check fails too
        from starcomp.extend import maximal_extensions
        from starcomp.graphs import Graph, parse_graph6
        from starcomp.multipartite import _degree_balance_checks

        found = maximal_extensions(make_complete_split(4, 2), -2, regular_only=True)["maximal"][0]
        graph, star = parse_graph6(found["graph6"]), found["X"]
        checks = _degree_balance_checks(4, graph, star)
        assert checks[-1] == ("degree-balance", True, "r = 8/8/8")
        ok = dict((name, passed) for name, passed, _ in checks)
        assert ok == {"attachment-types": True, "x-degrees": True, "degree-balance": True}
        u, v = star[:2]
        perturbed = Graph(graph.n, [e for e in graph.edges() if e != (u, v)])
        assert perturbed.edge_count == graph.edge_count - 1
        checks = _degree_balance_checks(4, perturbed, star)
        ok = dict((name, passed) for name, passed, _ in checks)
        assert ok == {"attachment-types": True, "x-degrees": False, "degree-balance": False}

    def test_expected_spectrum_matches_its_roots(self):
        from starcomp.multipartite import _expected_spectrum_poly

        for s in range(2, 21):
            assert _expected_spectrum_poly(s) == expected_spectrum_from_roots(s), s

    def test_budget_checked_before_any_branch(self, monkeypatch):
        # 2^(s + t_max) is the largest branch's subset scan: past the
        # default budget nothing runs; at 2^23 the branches start
        import starcomp.multipartite as multipartite

        calls = []

        def refuse(h, *args, **kwargs):
            calls.append(h.n)
            raise AssertionError("a branch ran")

        monkeypatch.setattr(multipartite, "maximal_extensions", refuse)
        with pytest.raises(BudgetExceededError, match=r"^2\^24 = 16777216 subsets exceeds budget 10000000$"):
            theorem_check(12, 12)
        assert calls == []
        with pytest.raises(AssertionError, match="a branch ran"):
            theorem_check(12, 11)
        assert calls == [14]


class TestExplorer:
    def test_corollary_rows_present(self):
        table = solution_explorer((2, 4), (2, 4), range(-4, -1))
        key_rows = {(r["s"], r["t"], r["mu"], r["a"], r["b"]) for r in table["rows"]}
        for s in (2, 3, 4):
            assert (s, 2, "-2", s - 1, 2) in key_rows
        # at t + mu = 0 the explorer's rows are the paper's forced types
        forced = {
            (r["s"], r["t"]): (r["a"], r["b"]) for r in table["rows"] if r["t_plus_mu_zero"]
        }
        want = {(s, t): corollary_ab(s, t, -t) for s in (2, 3, 4) for t in (2, 3, 4)}
        assert forced == {k: v for k, v in want.items() if v is not None}

    def test_2_3_minus2_absent(self):
        table = solution_explorer((2, 2), (3, 3), [Fraction(-2)])
        assert table["rows"] == []
        assert table["skipped_eigenvalue"] == 1

    def test_rows_sorted_and_deterministic(self):
        a = solution_explorer((2, 5), (2, 4), range(-5, 0))
        b = solution_explorer((2, 5), (2, 4), range(-5, 0))
        assert a == b
        assert a["rows"] == sorted(
            a["rows"], key=lambda r: (r["s"], r["t"], Fraction(r["mu"]), r["a"], r["b"])
        )

    def test_rational_mu_rows(self):
        # non-integral mu: forced b is usually fractional and gets dropped
        table = solution_explorer((2, 3), (2, 3), [Fraction(-5, 2)])
        assert all(isinstance(r["b"], int) for r in table["rows"])

    def test_dropped_count_matches_fraction_division(self):
        # the explorer takes the forced b from one integer divmod; it drops
        # exactly the types whose b is a non-integral Fraction, at integral
        # and rational mu alike
        mus = [Fraction(m) for m in range(-9, 5)] + [Fraction(-5, 2), Fraction(7, 3)]
        table = solution_explorer((2, 7), (2, 6), mus)
        dropped = 0
        for s in range(2, 8):
            for t in range(2, 7):
                for mu in mus:
                    if mu in (0, -1) or beta_of(s, t, mu) == 0:
                        continue
                    dropped += sum(
                        ((s - a) * (mu + t) / (mu + 1) - mu).denominator != 1
                        for a in range(s + 1)
                    )
        assert table["dropped_nonintegral"] == dropped > 0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            solution_explorer((1, 3), (2, 3), [-2])

    def test_twins_read_once_per_graph(self, monkeypatch):
        # every mu of one (s, t) reads the same twin classes; apart from
        # that, only the re-check of an emitted row reads a graph's twins,
        # once per (s, t, mu) through the cached resolvent
        import starcomp.graphs as graphs
        import starcomp.linalg as linalg
        import starcomp.multipartite as multipartite

        reads = {"explorer": 0, "verify": 0}
        phase = ["explorer"]
        twin_classes, verify_row = graphs._twin_classes, multipartite._verify_row
        verified = []

        def counted_twins(nbr):
            reads[phase[0]] += 1
            return twin_classes(nbr)

        def counted_verify(*row):
            phase[0] = "verify"
            try:
                verify_row(*row)
            finally:
                phase[0] = "explorer"
            verified.append(row)

        for module in (graphs, linalg):
            monkeypatch.setattr(module, "_twin_classes", counted_twins)
        monkeypatch.setattr(multipartite, "_verify_row", counted_verify)
        linalg.resolvent_inverse.cache_clear()
        table = solution_explorer((2, 7), (2, 6), range(-9, 5))
        assert reads["explorer"] == 6 * 5
        assert len(verified) == len(table["rows"]) > 10
        assert reads["verify"] == len({row[:3] for row in verified})

    def test_rows_solve_the_paper_constraints(self):
        # every type in the box that satisfies the stated quintic and linear
        # relation, at every mu outside the spectrum, and nothing else
        mus = [Fraction(m) for m in range(-9, 5)] + [Fraction(-5, 2), Fraction(-7, 3)]
        table = solution_explorer((2, 7), (2, 6), mus)
        want = set()
        skipped = 0
        for s in range(2, 8):
            for t in range(2, 7):
                for mu in mus:
                    if mu in (0, -1) or beta_of(s, t, mu) == 0:
                        skipped += 1
                        continue
                    want |= {
                        (s, t, mu, a, b)
                        for a in range(s + 1)
                        for b in range(t + 1)
                        if diag_constraint(s, t, mu, a, b) == 0
                        and nonmain_constraint(s, t, mu, a, b) == 0
                    }
        rows = {(r["s"], r["t"], Fraction(r["mu"]), r["a"], r["b"]) for r in table["rows"]}
        assert rows == want
        assert len(table["rows"]) == len(want) > 10
        assert table["skipped_eigenvalue"] == skipped
