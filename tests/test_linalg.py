import random
from fractions import Fraction

import numpy as np
import pytest

from starcomp import (
    NotAnEigenvalueError,
    Polynomial,
    SingularResolventError,
    adjacency_matrix,
    char_poly,
    complete_graph,
    cycle_graph,
    disjoint_union,
    eig_multiplicity,
    format_rational,
    is_nonmain,
    make_cocktail,
    make_complete_split,
    min_poly,
    parse_rational,
    path_graph,
    rank,
    resolvent_bilinear,
    resolvent_via_minpoly,
)
from starcomp.graphs import CACHE_SIZE
from starcomp.linalg import (
    _as_int_rows,
    _inverse_scaled,
    _null_space,
    _root_bound,
    _shifted_int_matrix,
    resolvent_inverse,
)

from conftest import (
    euclid_poly_gcd,
    faddeev_leverrier_char_poly,
    fraction_inverse,
    fraction_rank,
    identity_matrix,
    krylov_min_poly,
    leibniz_char_poly,
    minpoly_scaled_resolvent,
    random_graph,
)


def random_rational_matrix(n: int, rng: random.Random) -> np.ndarray:
    m = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            m[i, j] = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 7]))
    return m


class TestPolynomial:
    def test_repr(self):
        assert str(Polynomial([0, -4, -5, 0, 1])) == "x^4 - 5*x^2 - 4*x"

    def test_eval(self):
        p = Polynomial([1, 2, 3])
        assert p(Fraction(1, 2)) == 1 + 1 + Fraction(3, 4)

    def test_divmod(self):
        p = Polynomial.from_roots([1, 2, 3])
        q, r = divmod(p, Polynomial([-2, 1]))
        assert r.degree < 0
        assert q == Polynomial.from_roots([1, 3])

    def test_rational_roots(self):
        p = Polynomial.from_roots([0, 0, -2, Fraction(1, 2)])
        assert p.rational_roots() == [
            (Fraction(-2), 1),
            (Fraction(0), 2),
            (Fraction(1, 2), 1),
        ]
        # a non-monic integer form, a root far out and an irreducible factor
        p = Polynomial.from_roots([-1000, Fraction(7, 3), Fraction(-5, 6), 12, 12])
        p = p * Polynomial([1, 0, 1]) * Polynomial([Fraction(3, 5)])
        assert p.rational_roots() == [
            (Fraction(-1000), 1),
            (Fraction(-5, 6), 1),
            (Fraction(7, 3), 1),
            (Fraction(12), 2),
        ]

    def test_root_bound_rounds_each_root_up_exactly(self):
        # 2 max_k ceil(|c_(d-k)|^(1/k)), low degree first
        assert _root_bound([-9, 0, 1]) == 6
        assert _root_bound([-10, 0, 1]) == 8
        assert _root_bound([5, 1]) == 10
        assert _root_bound([-(10**30) - 1, 0, 0, 1]) == 2 * (10**10 + 1)
        assert _root_bound([0, 0, 1]) == 0
        assert _root_bound([1]) == 0

    def test_rational_roots_of_scaled_matrix(self):
        # char_poly(A / 2) has denominators up to 2^n; its roots are A's halved.
        g = disjoint_union(random_graph(40, random.Random(7)), make_cocktail(3))
        adj = adjacency_matrix(g)
        halved = char_poly(adj / 2).rational_roots()
        assert halved == [(r / 2, m) for r, m in char_poly(adj).rational_roots()]
        assert (Fraction(-1), 2) in halved

    def test_factor_rational_residual(self):
        p = Polynomial([-4, -1, 1]) * Polynomial.from_roots([0, -1])  # x^2-x-4 times x(x+1)
        roots, residual = p.factor_rational()
        assert roots == [(Fraction(-1), 1), (Fraction(0), 1)]
        assert residual == Polynomial([-4, -1, 1])

    def test_gcd(self):
        a = Polynomial.from_roots([1, 2, 2, Fraction(1, 3)])
        b = Polynomial.from_roots([2, Fraction(1, 3), 5]) * Polynomial([7])
        assert a.gcd(b) == Polynomial.from_roots([2, Fraction(1, 3)])
        assert b.gcd(a) == a.gcd(b)
        assert a.gcd(b) == euclid_poly_gcd(a, b)
        assert a.gcd(Polynomial([])) == Polynomial([c / a.coeffs[-1] for c in a.coeffs])
        assert Polynomial([]).gcd(Polynomial([])) == Polynomial([])
        assert a.gcd(Polynomial.from_roots([3, -1])) == Polynomial([1])
        half = Polynomial([Fraction(-1, 2), Fraction(3, 4)])  # 3/4 (x - 2/3)
        assert half.gcd(Polynomial.from_roots([Fraction(2, 3), 0])) == Polynomial.from_roots(
            [Fraction(2, 3)]
        )

    def test_parse_format_rational(self):
        assert parse_rational("-5/2") == Fraction(-5, 2)
        assert parse_rational(" 3 ") == 3
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(Fraction(-5, 2)) == "-5/2"
        for bad in ("1.5", "x", "", "1/0", "sqrt(2)"):
            with pytest.raises(ValueError):
                parse_rational(bad)


class TestCharPoly:
    def test_k2(self):
        assert char_poly(adjacency_matrix(complete_graph(2))) == Polynomial([-1, 0, 1])

    def test_octahedron_vs_leibniz(self):
        adj = adjacency_matrix(make_cocktail(3))
        assert char_poly(adj) == leibniz_char_poly(adj)
        assert char_poly(adj) == Polynomial.from_roots([4, 0, 0, 0, -2, -2])

    def test_zero_matrix(self):
        assert char_poly(np.zeros((3, 3), dtype=object)) == Polynomial([0, 0, 0, 1])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly(np.zeros((2, 3), dtype=object))

    def test_random_vs_leibniz(self):
        rng = random.Random(17)
        for _ in range(15):
            g = random_graph(rng.randint(1, 6), rng)
            adj = adjacency_matrix(g)
            assert char_poly(adj) == leibniz_char_poly(adj)

    def test_differential_against_faddeev_leverrier(self):
        rng = random.Random(29)
        for n in range(17):
            for _ in range(2):
                adj = adjacency_matrix(random_graph(n, rng, p=rng.choice([0.3, 0.5, 0.8])))
                assert char_poly(adj) == faddeev_leverrier_char_poly(adj)
        for _ in range(60):
            m = random_rational_matrix(rng.randint(0, 6), rng)
            assert char_poly(m) == faddeev_leverrier_char_poly(m)


class TestMinPoly:
    def test_split_2_2(self):
        m = min_poly(adjacency_matrix(make_complete_split(2, 2)))
        assert m == Polynomial([0, -4, -5, 0, 1])

    def test_identity(self):
        assert min_poly(identity_matrix(3)) == Polynomial([-1, 1])

    def test_k3(self):
        assert min_poly(adjacency_matrix(complete_graph(3))) == Polynomial([-2, -1, 1])

    def test_divides_char_poly_and_squarefree(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_graph(rng.randint(1, 7), rng)
            adj = adjacency_matrix(g)
            mp, cp = min_poly(adj), char_poly(adj)
            assert mp.divides(cp)
            assert mp.is_monic
            # adjacency matrices are symmetric, so the minimal polynomial is
            # the squarefree part of the characteristic polynomial
            squarefree, rem = divmod(cp, euclid_poly_gcd(cp, cp.derivative()))
            assert rem.degree < 0
            assert mp == Polynomial(
                [c / squarefree.coeffs[-1] for c in squarefree.coeffs]
            )


    def test_zero_and_empty(self):
        assert min_poly(np.zeros((3, 3), dtype=object)) == Polynomial([0, 1])
        assert min_poly(np.zeros((0, 0), dtype=object)) == Polynomial([1])

    def test_rational_symmetric(self):
        m = np.array([[Fraction(1, 2), 1], [1, Fraction(1, 2)]], dtype=object)
        assert min_poly(m) == Polynomial.from_roots([Fraction(3, 2), Fraction(-1, 2)])
        assert min_poly(identity_matrix(2) * Fraction(2, 3)) == Polynomial.from_roots(
            [Fraction(2, 3)]
        )

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            min_poly(np.array([[0, 1], [0, 0]], dtype=object))
        with pytest.raises(ValueError):
            min_poly(np.zeros((2, 3), dtype=object))

    def test_differential_against_krylov(self):
        rng = random.Random(61)
        for n in range(13):
            for _ in range(3):
                adj = adjacency_matrix(random_graph(n, rng, p=rng.choice([0.2, 0.5, 0.8])))
                assert min_poly(adj) == krylov_min_poly(adj)
        for _ in range(30):
            m = random_rational_matrix(rng.randint(1, 5), rng)
            m = m + m.T
            assert min_poly(m) == krylov_min_poly(m)


class TestRankMultiplicity:
    def test_rank_basics(self):
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([[Fraction(1, 2), 0], [0, 1]]) == 2
        assert rank(np.zeros((3, 3), dtype=object)) == 0

    def test_octahedron_multiplicity(self):
        assert eig_multiplicity(make_cocktail(3), -2) == 2
        assert eig_multiplicity(make_cocktail(3), 4) == 1
        assert eig_multiplicity(make_cocktail(3), 0) == 3

    def test_split_2_2_has_no_minus_2(self):
        assert eig_multiplicity(make_complete_split(2, 2), -2) == 0

    def test_beyond_spectral_radius(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_graph(rng.randint(1, 7), rng)
            assert eig_multiplicity(g, g.n) == 0

    def test_rational_mu(self):
        g = complete_graph(3)
        assert eig_multiplicity(g, Fraction(1, 2)) == 0
        assert eig_multiplicity(g, -1) == 2

    def test_multiplicities_match_char_poly(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_graph(rng.randint(1, 7), rng)
            roots, _ = char_poly(adjacency_matrix(g)).factor_rational()
            assert sum(m for _, m in roots) <= g.n
            for value, mult in roots:
                assert eig_multiplicity(g, value) == mult
                assert char_poly(adjacency_matrix(g))(value) == 0

    def test_multiplicity_cache_is_bounded(self):
        assert eig_multiplicity.cache_info().maxsize == CACHE_SIZE
        g = make_cocktail(4)
        first = eig_multiplicity(g, -2)
        hits = eig_multiplicity.cache_info().hits
        assert eig_multiplicity(g, Fraction(-2)) == first == 3
        assert eig_multiplicity.cache_info().hits == hits + 1


class TestNullSpace:
    @staticmethod
    def check(m, k):
        u = _null_space(m)
        assert len(u) == len(m[0]) and all(len(row) == k for row in u)
        assert all(type(v) is int for row in u for v in row)
        assert all(
            sum(a * row[col] for a, row in zip(r, u)) == 0 for r in m for col in range(k)
        )
        assert fraction_rank(u) == k

    def test_eigenspaces(self):
        # M U = 0 for M = qA - pI, with k = multiplicity of mu columns
        rng = random.Random(12)
        graphs = [make_cocktail(4), make_complete_split(3, 2), path_graph(5)]
        graphs += [random_graph(rng.randint(1, 8), rng) for _ in range(20)]
        for g in graphs:
            for mu in range(-g.n, g.n + 1):
                self.check(_shifted_int_matrix(g, Fraction(mu)), eig_multiplicity(g, mu))

    def test_random_integer_matrices(self):
        rng = random.Random(13)
        for _ in range(100):
            rows, cols = rng.randint(1, 6), rng.randint(1, 7)
            m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            if rows >= 2 and rng.random() < 0.3:
                m[-1] = [2 * a - b for a, b in zip(m[0], m[1])]  # dependent row
            self.check(m, cols - fraction_rank(m))


class TestInvertExact:
    def test_random_rational_matrices(self):
        # the Bareiss inverse of the integer-scaled rows sM: M^{-1} = s Y / d
        rng = random.Random(41)
        inverted = singular = 0
        for _ in range(200):
            n = rng.randint(0, 7)
            m = random_rational_matrix(n, rng)
            if n >= 2 and rng.random() < 0.2:
                m[n - 1] = m[0] * Fraction(rng.randint(-3, 3), 2)  # dependent rows
            rows, scale = _as_int_rows(m)
            if rank(m) < n:
                with pytest.raises(SingularResolventError):
                    _inverse_scaled(rows)
                with pytest.raises(ZeroDivisionError):
                    fraction_inverse(m)
                singular += 1
                continue
            y, d = _inverse_scaled(rows)
            inv = np.empty((n, n), dtype=object)
            for i in range(n):
                inv[i, :] = [Fraction(v * scale, d) for v in y[i]]
            assert (inv == fraction_inverse(m)).all()
            assert (m @ inv == identity_matrix(n)).all()
            assert (inv @ m == identity_matrix(n)).all()
            inverted += 1
        assert inverted > 100 and singular > 5


class TestNonMain:
    def test_octahedron(self):
        assert is_nonmain(make_cocktail(3), -2) is True

    def test_path_center_zero(self):
        assert is_nonmain(path_graph(3), 0) is True

    def test_isolated_vertex_zero_is_main(self):
        g = disjoint_union(complete_graph(1), complete_graph(2))
        assert is_nonmain(g, 0) is False

    def test_requires_eigenvalue(self):
        with pytest.raises(NotAnEigenvalueError):
            is_nonmain(complete_graph(3), 5)

    def test_regular_graphs_nonmain_below_degree(self):
        corpus = [
            make_cocktail(2),
            make_cocktail(3),
            make_cocktail(4),
            complete_graph(4),
            complete_graph(8),
            cycle_graph(4),
            cycle_graph(6),
            cycle_graph(8),
            Graph_cube(),
            make_complete_split(4, 4),  # K_4 + 4K_1 is not regular; skipped below
        ]
        for g in corpus:
            from starcomp import is_regular

            r = is_regular(g)
            if r is None:
                continue
            roots, _ = char_poly(adjacency_matrix(g)).factor_rational()
            for value, _m in roots:
                if value != r:
                    assert is_nonmain(g, value) is True
                else:
                    assert is_nonmain(g, value) is False


def Graph_cube():
    from starcomp import Graph

    edges = []
    for v in range(8):
        for bit in range(3):
            w = v ^ (1 << bit)
            if v < w:
                edges.append((v, w))
    return Graph(8, edges)


class TestResolvent:
    def test_candidate_diagonal_value(self):
        h = make_complete_split(2, 2)
        x = np.array([1, 0, 1, 1], dtype=object)  # one clique vertex + both others
        assert resolvent_bilinear(h, -2, x, x) == -2

    def test_zero_vector(self):
        h = make_complete_split(2, 2)
        z = np.zeros(4, dtype=object)
        assert resolvent_bilinear(h, -2, z, z) == 0

    def test_k1_scalar(self):
        h = complete_graph(1)
        e = np.array([1], dtype=object)
        assert resolvent_bilinear(h, 2, e, e) == Fraction(1, 2)

    def test_singular_rejected(self):
        h = make_complete_split(2, 2)
        x = np.ones(4, dtype=object)
        with pytest.raises(SingularResolventError):
            resolvent_bilinear(h, 0, x, x)

    def test_via_minpoly_coefficients_2_2(self):
        # a_3..a_0 = (1, -2, -1, -2) at s = t = 2, mu = -2
        h = make_complete_split(2, 2)
        adj = adjacency_matrix(h)
        expected = (
            adj @ adj @ adj
            + (-2) * (adj @ adj)
            + (-1) * adj
            + (-2) * identity_matrix(4)
        )
        got = resolvent_via_minpoly(h, -2)
        assert (got == expected).all()

    def test_via_minpoly_k1(self):
        got = resolvent_via_minpoly(complete_graph(1), 2)
        assert got.shape == (1, 1)
        assert got[0, 0] == 1

    def test_via_minpoly_matches_direct_inverse(self):
        # the Bareiss inverse, scaled by m(mu), against the polynomial oracle
        rng = random.Random(71)
        trials = 0
        while trials < 20:
            g = random_graph(rng.randint(1, 8), rng)
            mu = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2]))
            if eig_multiplicity(g, mu) > 0:
                continue
            trials += 1
            m_mu = krylov_min_poly(adjacency_matrix(g))(mu)
            shifted = mu * identity_matrix(g.n) - adjacency_matrix(g)
            direct = fraction_inverse(shifted) * m_mu
            assert (direct == minpoly_scaled_resolvent(g, mu)).all()

    def test_bilinear_matches_scaled_matrix(self):
        rng = random.Random(13)
        for _ in range(10):
            g = random_graph(rng.randint(2, 6), rng)
            mu = Fraction(rng.randint(2, 9))  # beyond spectral radius
            m_mu = krylov_min_poly(adjacency_matrix(g))(mu)
            scaled = minpoly_scaled_resolvent(g, mu)
            x = np.array([rng.randint(0, 1) for _ in range(g.n)], dtype=object)
            y = np.array([rng.randint(0, 1) for _ in range(g.n)], dtype=object)
            direct = resolvent_bilinear(g, mu, x, y)
            assert m_mu * direct == (x @ scaled @ y)

    def test_via_minpoly_differential_against_oracle(self):
        rng = random.Random(97)
        checked = {"integral": 0, "rational": 0}
        for n in range(13):
            for _ in range(4):
                g = random_graph(n, rng, p=rng.choice([0.3, 0.5, 0.7]))
                mu = Fraction(rng.randint(-7, 7), rng.choice([1, 1, 2, 3]))
                if eig_multiplicity(g, mu) > 0:
                    with pytest.raises(SingularResolventError):
                        resolvent_via_minpoly(g, mu)
                    continue
                got = resolvent_via_minpoly(g, mu)
                assert got.shape == (n, n)
                assert (got == minpoly_scaled_resolvent(g, mu)).all()
                if mu.denominator == 1:
                    assert all(type(v) is int for v in got.reshape(-1))
                    checked["integral"] += 1
                else:
                    checked["rational"] += 1
        assert min(checked.values()) >= 10

    def test_scaled_inverse_pair(self):
        # (Y, d): Y / d = (mu I - A)^{-1}, d = |det(pI - qA)|, Y read-only ints
        rng = random.Random(83)
        checked = {"integral": 0, "rational": 0}
        for n in range(13):
            for _ in range(4):
                g = random_graph(n, rng, p=rng.choice([0.3, 0.5, 0.7]))
                mu = Fraction(rng.randint(-7, 7), rng.choice([1, 1, 2, 3]))
                shifted = mu * identity_matrix(n) - adjacency_matrix(g)
                if eig_multiplicity(g, mu) > 0:
                    with pytest.raises(SingularResolventError):
                        resolvent_inverse(g, mu)
                    continue
                y, d = resolvent_inverse(g, mu)
                assert y.shape == (n, n) and not y.flags.writeable
                assert all(type(v) is int for v in y.reshape(-1))
                assert (y * Fraction(1, d) == fraction_inverse(shifted)).all()
                det = faddeev_leverrier_char_poly(shifted * mu.denominator)(0) * (-1) ** n
                assert d == abs(det) > 0
                checked["integral" if mu.denominator == 1 else "rational"] += 1
        assert min(checked.values()) >= 10
