import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from starcomp import (
    BlockSpec,
    Polynomial,
    TypeVector,
    adjacency_matrix,
    closed_bilinear,
    coeffs,
    corollary_ab,
    diag_constraint,
    enumerate_candidates,
    make_complete_split,
    min_poly,
    minpoly_formula,
    nonmain_constraint,
    power_blocks,
    quadratic_in_a,
    resolvent_bilinear,
    resolvent_block,
    resolvent_via_minpoly,
    solution_explorer,
    theorem_check,
)
from starcomp.multipartite import MuIsSplitEigenvalueError
from starcomp.starsets import BudgetExceededError

from conftest import krylov_min_poly


def beta_of(s, t, mu):
    return Fraction(mu) ** 2 - (s - 1) * Fraction(mu) - s * t


class TestMinPolyFormula:
    def test_examples(self):
        assert minpoly_formula(BlockSpec(2, 2)) == Polynomial([0, -4, -5, 0, 1])
        assert minpoly_formula(BlockSpec(3, 2)) == Polynomial([0, -6, -8, -1, 1])
        assert minpoly_formula(BlockSpec(2, 3)) == Polynomial([0, -6, -7, 0, 1])

    def test_matches_krylov_up_to_8(self):
        for s in range(2, 9):
            for t in range(2, 9):
                formula = minpoly_formula(BlockSpec(s, t))
                adj = adjacency_matrix(make_complete_split(s, t))
                assert formula == min_poly(adj) == krylov_min_poly(adj), (s, t)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BlockSpec(1, 2)
        with pytest.raises(ValueError):
            BlockSpec(2, 1)


class TestPowerBlocks:
    def test_examples_2_2(self):
        pb2 = power_blocks(BlockSpec(2, 2), 2)
        assert (pb2.clique_j, pb2.clique_i, pb2.cross_j, pb2.indep_j) == (2, 1, 1, 2)
        pb3 = power_blocks(BlockSpec(2, 2), 3)
        assert (pb3.clique_j, pb3.clique_i, pb3.cross_j, pb3.indep_j) == (5, -1, 5, 2)

    def test_example_3_2(self):
        pb = power_blocks(BlockSpec(3, 2), 2)
        assert (pb.clique_j, pb.clique_i, pb.cross_j, pb.indep_j) == (3, 1, 2, 3)

    def test_other_k_rejected(self):
        with pytest.raises(ValueError):
            power_blocks(BlockSpec(2, 2), 4)

    def test_reconstruction_matches_matrix_power(self):
        for s in range(2, 9):
            for t in range(2, 9):
                spec = BlockSpec(s, t)
                adj = adjacency_matrix(make_complete_split(s, t))
                square = adj @ adj
                assert (power_blocks(spec, 2).to_matrix(spec) == square).all()
                assert (power_blocks(spec, 3).to_matrix(spec) == square @ adj).all()


class TestCoeffs:
    def test_2_2_minus2(self):
        c = coeffs(BlockSpec(2, 2), -2)
        assert (c.alpha, c.beta, c.gamma, c.delta, c.m_mu) == (0, 2, -2, 2, 4)

    def test_5_3_minus3(self):
        c = coeffs(BlockSpec(5, 3), -3)
        assert (c.alpha, c.beta, c.gamma, c.delta, c.m_mu) == (0, 6, -10, 6, 36)

    def test_eigenvalue_rejected(self):
        with pytest.raises(MuIsSplitEigenvalueError):
            coeffs(BlockSpec(2, 3), -2)  # beta = 0
        with pytest.raises(MuIsSplitEigenvalueError):
            coeffs(BlockSpec(2, 2), 0)
        with pytest.raises(MuIsSplitEigenvalueError):
            coeffs(BlockSpec(2, 2), -1)

    def test_m_mu_consistency(self):
        for s in range(2, 6):
            for t in range(2, 6):
                for mu in range(-5, 6):
                    if mu in (0, -1) or beta_of(s, t, mu) == 0:
                        continue
                    c = coeffs(BlockSpec(s, t), mu)
                    assert c.m_mu == minpoly_formula(BlockSpec(s, t))(mu)


class TestResolventBlock:
    def test_2_2_minus2_entries(self):
        block = resolvent_block(BlockSpec(2, 2), -2)
        m_mu = Fraction(4)
        assert block[0, 0] / m_mu == -1  # clique diagonal
        assert block[0, 2] / m_mu == Fraction(1, 2)  # cross block
        assert block[2, 2] / m_mu == -1  # independent diagonal

    def test_matches_generic_resolvent(self):
        for s in range(2, 9):
            for t in range(2, 9):
                spec = BlockSpec(s, t)
                h = make_complete_split(s, t)
                for mu in range(-6, 7):
                    if mu in (0, -1) or beta_of(s, t, mu) == 0:
                        continue
                    assert (
                        resolvent_block(spec, mu) == resolvent_via_minpoly(h, mu)
                    ).all(), (s, t, mu)


class TestClosedBilinear:
    def test_diagonal_full_overlap(self):
        val = closed_bilinear(
            BlockSpec(2, 2), -2, TypeVector(1, 2), TypeVector(1, 2), 1, 2
        )
        assert val == -8  # mu * m(mu)

    def test_adjacent_pair(self):
        val = closed_bilinear(
            BlockSpec(2, 2), -2, TypeVector(1, 2), TypeVector(1, 2), 0, 2
        )
        assert val == -4  # -m(mu)

    def test_5_3_incompatible_value(self):
        val = closed_bilinear(
            BlockSpec(5, 3), -3, TypeVector(1, 3), TypeVector(1, 3), 0, 3
        )
        assert val == -90
        assert Fraction(val, 36) == Fraction(-5, 2)

    def test_overlap_bounds(self):
        spec = BlockSpec(3, 3)
        with pytest.raises(ValueError):
            closed_bilinear(spec, -3, TypeVector(1, 1), TypeVector(1, 1), 2, 0)
        with pytest.raises(ValueError):
            closed_bilinear(spec, -3, TypeVector(1, 1), TypeVector(1, 1), 0, -1)
        with pytest.raises(ValueError):
            closed_bilinear(spec, -3, TypeVector(4, 1), TypeVector(1, 1), 0, 0)

    def test_randomized_against_resolvent_bilinear(self):
        rng = random.Random(1234)
        done = 0
        while done < 500:
            s, t = rng.randint(2, 6), rng.randint(2, 6)
            mu = Fraction(rng.randint(-6, 6))
            if mu in (0, -1) or beta_of(s, t, mu) == 0:
                continue
            done += 1
            spec = BlockSpec(s, t)
            h = make_complete_split(s, t)
            y1 = set(rng.sample(range(s), rng.randint(0, s)))
            y2 = set(rng.sample(range(s), rng.randint(0, s)))
            z1 = set(rng.sample(range(s, s + t), rng.randint(0, t)))
            z2 = set(rng.sample(range(s, s + t), rng.randint(0, t)))
            u_vec = np.array([int(v in y1 | z1) for v in range(s + t)], dtype=object)
            v_vec = np.array([int(v in y2 | z2) for v in range(s + t)], dtype=object)
            direct = resolvent_bilinear(h, mu, u_vec, v_vec)
            m_mu = minpoly_formula(spec)(mu)
            closed = closed_bilinear(
                spec,
                mu,
                TypeVector(len(y1), len(z1)),
                TypeVector(len(y2), len(z2)),
                len(y1 & y2),
                len(z1 & z2),
            )
            assert closed == m_mu * direct


class TestPairClassAgreement:
    def test_pair_class_matches_closed_form(self):
        # the generic pairwise classification and the split-graph closed form
        # must sort every pair into the same bucket
        from starcomp import Candidate, pair_class
        from starcomp.extend import PairClass

        rng = random.Random(55)
        done = 0
        while done < 120:
            s, t = rng.randint(2, 5), rng.randint(2, 5)
            mu = Fraction(rng.randint(-5, 5))
            if mu in (0, -1) or beta_of(s, t, mu) == 0:
                continue
            done += 1
            spec = BlockSpec(s, t)
            h = make_complete_split(s, t)
            y1 = set(rng.sample(range(s), rng.randint(0, s)))
            y2 = set(rng.sample(range(s), rng.randint(0, s)))
            z1 = set(rng.sample(range(s, s + t), rng.randint(0, t)))
            z2 = set(rng.sample(range(s, s + t), rng.randint(0, t)))
            u = Candidate(tuple(sorted(y1 | z1)))
            v = Candidate(tuple(sorted(y2 | z2)))
            scaled = closed_bilinear(
                spec,
                mu,
                TypeVector(len(y1), len(z1)),
                TypeVector(len(y2), len(z2)),
                len(y1 & y2),
                len(z1 & z2),
            )
            m_mu = minpoly_formula(spec)(mu)
            if scaled == -m_mu:
                expected = PairClass.ADJACENT
            elif scaled == 0:
                expected = PairClass.NONADJACENT
            else:
                expected = PairClass.INCOMPATIBLE
            assert pair_class(h, mu, u, v) is expected


class TestConstraints:
    def test_diag_examples(self):
        assert diag_constraint(BlockSpec(2, 2), -2, 1, 2) == 0
        # the stated oracle is mu*m(mu) - closed_bilinear; at (a,b) = (0,0)
        # that is mu*m(mu) = -8
        assert diag_constraint(BlockSpec(2, 2), -2, 0, 0) == -8

    def test_diag_equals_oracle_everywhere(self):
        for s in range(2, 5):
            for t in range(2, 5):
                spec = BlockSpec(s, t)
                for mu in range(-5, 6):
                    if mu in (0, -1) or beta_of(s, t, mu) == 0:
                        continue
                    m_mu = minpoly_formula(spec)(mu)
                    for a in range(s + 1):
                        for b in range(t + 1):
                            diag = closed_bilinear(
                                spec, mu, TypeVector(a, b), TypeVector(a, b), a, b
                            )
                            assert diag_constraint(spec, mu, a, b) == (
                                Fraction(mu) * m_mu - diag
                            )

    def test_nonmain_examples(self):
        assert nonmain_constraint(BlockSpec(2, 2), -2, 1, 2) == 0
        assert nonmain_constraint(BlockSpec(3, 2), -2, 2, 2) == 0
        # at (s,t,mu) = (2,3,-2) the relation collapses to a = b
        for a in range(3):
            for b in range(4):
                assert nonmain_constraint(BlockSpec(2, 3), -2, a, b) == a - b

    def test_quadratic_examples(self):
        assert quadratic_in_a(BlockSpec(2, 3), -2) == Polynomial([4, -3, 1])
        assert quadratic_in_a(BlockSpec(2, 2), -2) == Polynomial([-2, 2])

    def test_quadratic_degenerates_at_t_plus_mu_zero(self):
        for s in range(2, 7):
            for t in range(2, 6):
                mu = Fraction(-t)
                q = quadratic_in_a(BlockSpec(s, t), mu)
                assert q.degree <= 1
                assert q.coeff(1) == mu * (mu + 1)

    def test_minus_one_rejected(self):
        with pytest.raises(MuIsSplitEigenvalueError):
            quadratic_in_a(BlockSpec(2, 2), -1)

    def test_elimination_identity(self):
        # substituting the forced b into the quintic leaves
        # beta * quadratic / (mu + 1); checked at > 6 points per variable
        for s in range(2, 9):
            for t in range(2, 9):
                spec = BlockSpec(s, t)
                for mu in range(-8, 9):
                    if mu in (0, -1) or beta_of(s, t, mu) == 0:
                        continue
                    quad = quadratic_in_a(spec, mu)
                    beta = beta_of(s, t, mu)
                    for a in range(-3, 9):
                        b = Fraction(s - a) * (mu + t) / (mu + 1) - mu
                        lhs = diag_constraint(spec, mu, a, b)
                        assert lhs == beta * quad(a) / (mu + 1), (s, t, mu, a)


class TestCorollary:
    def test_examples(self):
        assert corollary_ab(BlockSpec(4, 2), -2) == TypeVector(3, 2)
        assert corollary_ab(BlockSpec(2, 3), -3) is None
        assert corollary_ab(BlockSpec(5, 3), -3) == TypeVector(1, 3)

    def test_wrong_regime_rejected(self):
        with pytest.raises(ValueError):
            corollary_ab(BlockSpec(2, 2), -3)

    def test_candidates_have_forced_type(self):
        for s in range(2, 7):
            for t in (2, 3):
                mu = -t
                expected = corollary_ab(BlockSpec(s, t), mu)
                cands = enumerate_candidates(
                    make_complete_split(s, t), mu, nonmain=True
                )
                if expected is None:
                    assert cands == []
                else:
                    assert cands
                    for c in cands:
                        assert c.split_type(s) == (expected.a, expected.b)


class TestTheorem:
    def test_s2(self):
        report = theorem_check(2, 4)
        assert report.passed
        assert [b.graphs_found for b in report.branches] == [1, 0, 0]

    def test_s3(self):
        report = theorem_check(3, 3)
        assert report.passed
        t2 = report.branches[0]
        assert t2.graphs_found == 1
        assert t2.graph6 is not None
        from starcomp import is_isomorphic, make_cocktail, parse_graph6

        assert is_isomorphic(parse_graph6(t2.graph6), make_cocktail(4))

    def test_s5_t3_candidates_but_no_graphs(self):
        report = theorem_check(5, 3)
        assert report.passed
        t3 = report.branches[1]
        assert t3.candidates == 5
        assert t3.graphs_found == 0

    def test_full_range_through_s6_t5(self):
        for s in range(2, 7):
            report = theorem_check(s, 5)
            assert report.passed, report.to_json()

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem_check(1, 3)

    def test_degree_balance_fails_on_its_own(self):
        # the s = 4 cocktail witness with one star-star edge dropped: the
        # measured d is no longer one value, so the balance check fails too
        from starcomp import Graph, maximal_extensions
        from starcomp.multipartite import _degree_balance_checks

        found = maximal_extensions(make_complete_split(4, 2), -2, regular_only=True).maximal_graphs[0]
        ok = dict((name, passed) for name, passed, _ in _degree_balance_checks(4, found))
        assert ok == {"attachment-types": True, "x-degrees": True, "degree-balance": True}
        u, v = found.star_vertices[:2]
        perturbed = Graph(found.graph.n, [e for e in found.graph.edges() if e != (u, v)])
        assert perturbed.edge_count == found.graph.edge_count - 1
        checks = _degree_balance_checks(4, dataclasses.replace(found, graph=perturbed))
        ok = dict((name, passed) for name, passed, _ in checks)
        assert ok == {"attachment-types": True, "x-degrees": False, "degree-balance": False}

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
        key_rows = {(r.s, r.t, r.mu, r.a, r.b) for r in table.rows}
        for s in (2, 3, 4):
            assert (s, 2, Fraction(-2), s - 1, 2) in key_rows

    def test_2_3_minus2_absent(self):
        table = solution_explorer((2, 2), (3, 3), [Fraction(-2)])
        assert table.rows == ()
        assert table.skipped_eigenvalue == 1

    def test_rows_sorted_and_deterministic(self):
        a = solution_explorer((2, 5), (2, 4), range(-5, 0))
        b = solution_explorer((2, 5), (2, 4), range(-5, 0))
        assert a == b
        assert list(a.rows) == sorted(
            a.rows, key=lambda r: (r.s, r.t, r.mu, r.a, r.b)
        )

    def test_rational_mu_rows(self):
        # non-integral mu: forced b is usually fractional and gets dropped
        table = solution_explorer((2, 3), (2, 3), [Fraction(-5, 2)])
        assert all(isinstance(r.b, int) for r in table.rows)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            solution_explorer((1, 3), (2, 3), [-2])
