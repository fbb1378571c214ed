import random
from collections import Counter
from fractions import Fraction
from math import isqrt, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from starcomp import kernels
from starcomp.graphs import CACHE_SIZE, make_cocktail, make_complete_split
from starcomp.linalg import (
    PreconditionError,
    SingularResolventError,
    _solve_scaled,
    _monic_quotient,
    _null_space,
    _shifted,
    _twin_quotient,
    char_poly,
    eig_multiplicity,
    format_rational,
    graph_min_poly,
    integer_roots,
    is_nonmain,
    parse_rational,
    poly_eval,
    poly_text,
    quotient_form,
    resolvent_bilinear,
    resolvent_inverse,
    resolvent_via_minpoly,
)

from conftest import (
    coeffs,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    euclid_poly_gcd,
    faddeev_leverrier_char_poly,
    fraction_inverse,
    fraction_null_space,
    fraction_rank,
    identity_matrix,
    join,
    krylov_min_poly,
    leibniz_char_poly,
    minpoly_scaled_resolvent,
    path_graph,
    poly_at,
    poly_divmod,
    poly_from_roots,
    poly_mul,
    random_graph,
    random_graph_with_twins,
)


def random_rational_matrix(n: int, rng: random.Random) -> np.ndarray:
    m = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            m[i, j] = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 7]))
    return m


# Root-free factors over the integers: irreducible quadratics and a cubic
# with no integer root, each monic and with real roots only, as the
# characteristic polynomial of a symmetric matrix has.
ROOT_FREE = [(-2, 0, 1), (-3, 0, 1), (-4, -1, 1), (1, -3, 0, 1)]

seeds = st.integers(0, 2**32 - 1).map(random.Random)


class TestPolynomial:
    def test_repr(self):
        assert poly_text((0, -4, -5, 0, 1)) == "x^4 - 5*x^2 - 4*x"
        assert poly_text((0, -1)) == "-x"
        assert poly_text((1,)) == "1"
        assert poly_text(()) == "0"

    def test_eval(self):
        got = poly_eval((1, 2, 3), Fraction(1, 2))
        assert got == 1 + 1 + Fraction(3, 4) and type(got) is Fraction
        assert poly_eval((1, 2, 3), -2) == 9
        assert poly_eval((), Fraction(1, 2)) == 0

    def test_divmod(self):
        # the package's one polynomial division, which integer_roots uses to
        # divide out each root: an exact quotient by a monic divisor
        p = [int(c) for c in poly_from_roots([1, 2, 3])]
        assert _monic_quotient(p, [-2, 1]) == list(poly_from_roots([1, 3]))
        assert _monic_quotient(p, p) == [1]

    def test_rational_roots(self):
        p = poly_from_roots([0, 0, -2, 3])
        assert integer_roots(p)[0] == [(-2, 1), (0, 2), (3, 1)]
        # a root far out, a repeated one and an irreducible factor
        p = poly_mul(poly_from_roots([-1000, 7, -5, 12, 12]), (-3, 0, 1))
        assert integer_roots(p)[0] == [(-1000, 1), (-5, 1), (7, 1), (12, 2)]
        assert all(type(r) is int for r, _ in integer_roots(p)[0])

    @pytest.mark.parametrize(
        "poly, match",
        [
            ((), "zero polynomial"),
            ((-4, 2), "not a monic integer polynomial"),  # 2x - 4
            ((Fraction(-1, 2), 1), "not a monic integer polynomial"),  # x - 1/2
            ((0.5, 1), "not a monic integer polynomial"),  # x + 0.5
            ((1, 0), "not a monic integer polynomial"),  # 0x + 1, a zero lead
        ],
        ids=["zero", "non-monic", "non-integral", "float", "zero-lead"],
    )
    def test_integer_roots_needs_monic_integer(self, poly, match):
        # the rational root theorem search holds for monic integer polynomials
        with pytest.raises(ValueError, match=match):
            integer_roots(poly)

    def test_integer_roots_residual(self):
        p = poly_mul((-4, -1, 1), poly_from_roots([0, -1]))  # x^2-x-4 times x(x+1)
        roots, residual = integer_roots(p)
        assert roots == [(-1, 1), (0, 1)]
        assert residual == (-4, -1, 1)
        assert integer_roots((1,)) == ([], (1,))  # a constant: no roots, residual 1
        assert integer_roots((0, 0, 1)) == ([(0, 2)], (1,))
        assert integer_roots(poly_from_roots([3, -3, 3])) == ([(-3, 1), (3, 2)], (1,))

    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(st.integers(-40, 40), st.integers(1, 4), max_size=6),
        st.lists(st.sampled_from(ROOT_FREE), max_size=2),
    )
    def test_integer_roots_differential(self, roots, factors):
        # the drawn roots with their multiplicities, 0 and negative ones
        # included, times root-free factors: the roots come back ascending and
        # the residual is the product of the factors
        residual = (Fraction(1),)
        for f in factors:
            residual = poly_mul(residual, f)
        drawn = [r for r, m in roots.items() for _ in range(m)]
        p = poly_mul(poly_from_roots(drawn), residual)
        got, rest = integer_roots(tuple(int(c) for c in p))
        assert got == sorted(roots.items())
        assert rest == residual and all(type(c) is int for c in rest)

    def test_top_eigenvalue_on_the_bound(self):
        # The search stops at isqrt of the sum of the squared roots, tr A^2 =
        # 2m for a graph.  K_n (n - 1 and (-1)^(n-1)) and cocktail:p (2p - 2,
        # 0^p and (-2)^(p-1)) have their largest eigenvalue exactly there;
        # K_{4,9} has +-6 within isqrt(72) = 8, and the edgeless graphs and
        # n = 0 a bound of 0.
        on_bound = [
            (complete_graph(n), [(n - 1, 1), (-1, n - 1)]) for n in range(1, 10)
        ] + [
            (make_cocktail(p), [(2 * p - 2, 1), (0, p), (-2, p - 1)]) for p in range(1, 11)
        ]
        within = [
            (join(empty_graph(4), empty_graph(9)), [(6, 1), (-6, 1), (0, 11)]),
            (empty_graph(5), [(0, 5)]),
            (empty_graph(0), []),
        ]
        for g, spectrum in on_bound + within:
            mults = Counter()
            for value, mult in spectrum:
                mults[value] += mult
            want = sorted((value, mult) for value, mult in mults.items() if mult)
            assert integer_roots(char_poly(g)) == (want, (1,))
        for g, spectrum in on_bound:
            assert spectrum[0][0] == isqrt(2 * g.edge_count)

    @settings(max_examples=80, deadline=None)
    @given(
        st.builds(random_graph, st.integers(0, 8), seeds)
        | st.builds(random_graph_with_twins, st.integers(1, 6), st.integers(0, 3), seeds)
    )
    def test_integer_roots_are_the_integral_spectrum(self, g):
        # every integer eigenvalue lies in [-(n - 1), n - 1]: the roots are
        # exactly the integers there with a nonzero multiplicity, as a rank
        want = [
            (value, mult)
            for value in range(1 - g.n, g.n)
            if (mult := eig_multiplicity(g, value))
        ]
        assert integer_roots(char_poly(g))[0] == want

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
        assert char_poly(complete_graph(2)) == (-1, 0, 1)

    def test_octahedron_vs_leibniz(self):
        g = make_cocktail(3)
        assert char_poly(g) == leibniz_char_poly(g.adj)
        assert char_poly(g) == poly_from_roots([4, 0, 0, 0, -2, -2])

    def test_zero_matrix(self):
        assert char_poly(empty_graph(3)) == (0, 0, 0, 1)

    def test_random_vs_leibniz(self):
        rng = random.Random(17)
        for _ in range(15):
            g = random_graph(rng.randint(1, 6), rng)
            assert char_poly(g) == leibniz_char_poly(g.adj)

    def test_differential_against_faddeev_leverrier(self):
        rng = random.Random(29)
        for n in range(17):
            for _ in range(2):
                g = random_graph(n, rng, p=rng.choice([0.3, 0.5, 0.8]))
                assert char_poly(g) == faddeev_leverrier_char_poly(g.adj)


class TestMinPoly:
    def test_split_2_2(self):
        assert graph_min_poly(make_complete_split(2, 2)) == (0, -4, -5, 0, 1)

    def test_k3(self):
        assert graph_min_poly(complete_graph(3)) == (-2, -1, 1)

    def test_divides_char_poly_and_squarefree(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_graph(rng.randint(1, 7), rng)
            mp, cp = graph_min_poly(g), char_poly(g)
            assert poly_divmod(cp, mp)[1] == ()
            assert mp[-1] == 1 and all(type(c) is int for c in mp + cp)
            # adjacency matrices are symmetric, so the minimal polynomial is
            # the squarefree part of the characteristic polynomial
            slope = [i * c for i, c in enumerate(cp)][1:]
            squarefree, rem = poly_divmod(cp, euclid_poly_gcd(cp, slope))
            assert rem == ()
            assert mp == tuple(c / squarefree[-1] for c in squarefree)


    def test_zero_and_empty(self):
        assert graph_min_poly(empty_graph(3)) == (0, 1)
        assert graph_min_poly(empty_graph(0)) == (1,)

    def test_differential_against_krylov(self):
        rng = random.Random(61)
        for n in range(13):
            for _ in range(3):
                g = random_graph(n, rng, p=rng.choice([0.2, 0.5, 0.8]))
                assert graph_min_poly(g) == krylov_min_poly(g.adj)


class TestRankMultiplicity:
    def test_rank_basics(self):
        assert kernels.try_int_rank([[1, 2], [2, 4]]) == 1
        assert kernels.try_int_rank([[0] * 3 for _ in range(3)]) == 0

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
            roots, _ = integer_roots(char_poly(g))
            assert sum(m for _, m in roots) <= g.n
            for value, mult in roots:
                assert eig_multiplicity(g, value) == mult
                assert poly_at(char_poly(g), value) == 0

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
                self.check(_shifted(g.adj.tolist(), Fraction(mu)), eig_multiplicity(g, mu))

    def test_random_integer_matrices(self):
        rng = random.Random(13)
        for _ in range(100):
            rows, cols = rng.randint(1, 6), rng.randint(1, 7)
            m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            if rows >= 2 and rng.random() < 0.3:
                m[-1] = [2 * a - b for a, b in zip(m[0], m[1])]  # dependent row
            self.check(m, cols - fraction_rank(m))


@st.composite
def integer_matrices(draw) -> list[list[int]]:
    """Integer row lists of every shape, some columns zeroed and up to two
    rows appended as integer combinations of the others."""
    nr, nc = draw(st.integers(1, 7)), draw(st.integers(1, 8))
    row = st.lists(st.integers(-9, 9), min_size=nc, max_size=nc)
    m = draw(st.lists(row, min_size=nr, max_size=nr))
    for c in draw(st.sets(st.integers(0, nc - 1), max_size=nc)):
        for r in m:
            r[c] = 0
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(m), max_size=len(m)))
        m.append([sum(a * r[c] for a, r in zip(coeffs, m)) for c in range(nc)])
    return m


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
@example([[0, 0, 0], [0, 0, 0]])  # rank 0
@example([[2, 1, 0], [1, 1, 0], [0, 0, 5]])  # full rank
@example([[0, 3, 0, -6]])  # wide, with zero columns
@example([[1, 2], [2, 4], [3, 6], [0, 0]])  # tall, dependent rows
@example([[4, 6, 2], [-6, -9, -3]])  # content > 1 before division
def test_null_space_matches_fraction_oracle(m):
    assert _null_space(m) == fraction_null_space(m)


class TestInvertExact:
    def test_random_rational_matrices(self):
        # the Bareiss inverse of the integer rows sM, s clearing M's
        # denominators: M^{-1} = s Y / d
        rng = random.Random(41)
        inverted = singular = 0
        for _ in range(200):
            n = rng.randint(0, 7)
            m = random_rational_matrix(n, rng)
            if n >= 2 and rng.random() < 0.2:
                m[n - 1] = m[0] * Fraction(rng.randint(-3, 3), 2)  # dependent rows
            scale = lcm(*(v.denominator for v in m.flat))
            rows = [[int(v * scale) for v in row] for row in m]
            if fraction_rank(m) < n:
                with pytest.raises(SingularResolventError):
                    _solve_scaled(rows, identity_matrix(n).tolist())
                with pytest.raises(ZeroDivisionError):
                    fraction_inverse(m)
                singular += 1
                continue
            y, d = _solve_scaled(rows, identity_matrix(n).tolist())
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
        with pytest.raises(PreconditionError, match="^5 is not an eigenvalue$"):
            is_nonmain(complete_graph(3), 5)

    @pytest.mark.parametrize("mu", [-2, 0])
    def test_one_elimination(self, bareiss_calls, mu):
        assert is_nonmain(make_cocktail(3), mu) is True
        assert len(bareiss_calls) == 1

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
            from starcomp.graphs import is_regular

            r = is_regular(g)
            if r is None:
                continue
            roots, _ = integer_roots(char_poly(g))
            for value, _m in roots:
                if value != r:
                    assert is_nonmain(g, value) is True
                else:
                    assert is_nonmain(g, value) is False


@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        random_graph,
        st.integers(1, 9),
        st.integers(0, 2**32 - 1).map(random.Random),
        st.sampled_from([0.25, 0.5, 0.75]),
    )
)
def test_is_nonmain_matches_two_rank_oracle(g):
    # mu is non-main iff appending q j to M = qA - pI leaves the rank alone
    for mu, _ in integer_roots(char_poly(g))[0]:
        p, q = mu.numerator, mu.denominator
        m = [[q * int(v) - (p if i == j else 0) for j, v in enumerate(row)]
             for i, row in enumerate(g.adj)]
        expected = fraction_rank([row + [q] for row in m]) == fraction_rank(m)
        assert is_nonmain(g, mu) is expected
    with pytest.raises(PreconditionError, match="^1/2 is not an eigenvalue$"):
        is_nonmain(g, Fraction(1, 2))  # a rational eigenvalue is an integer


def Graph_cube():
    from starcomp.graphs import Graph

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
        adj = h.adj.astype(object)
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
            m_mu = poly_at(krylov_min_poly(g.adj), mu)
            shifted = mu * identity_matrix(g.n) - g.adj
            direct = fraction_inverse(shifted) * m_mu
            assert (direct == minpoly_scaled_resolvent(g, mu)).all()

    def test_bilinear_matches_scaled_matrix(self):
        rng = random.Random(13)
        for _ in range(10):
            g = random_graph(rng.randint(2, 6), rng)
            mu = Fraction(rng.randint(2, 9))  # beyond spectral radius
            m_mu = poly_at(krylov_min_poly(g.adj), mu)
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
                if mu.denominator != 1:
                    # no candidate has a non-integral mu, so no table asks
                    with pytest.raises(ValueError, match="takes an integral mu"):
                        resolvent_via_minpoly(g, mu)
                    checked["rational"] += 1
                    continue
                if eig_multiplicity(g, mu) > 0:
                    with pytest.raises(SingularResolventError):
                        resolvent_via_minpoly(g, mu)
                    continue
                got = resolvent_via_minpoly(g, mu)
                assert got.shape == (n, n)
                assert (got == minpoly_scaled_resolvent(g, mu)).all()
                assert all(type(v) is int for v in got.reshape(-1))
                checked["integral"] += 1
        assert min(checked.values()) >= 10

    def test_scaled_inverse_pair(self):
        # (R, D) is the least pair: D = lcm(q, every denominator of the
        # inverse) and R = D (mu I - A)^{-1}, read-only Python ints
        rng = random.Random(83)
        checked = {"integral": 0, "rational": 0}
        for n in range(13):
            for _ in range(4):
                g = random_graph(n, rng, p=rng.choice([0.3, 0.5, 0.7]))
                mu = Fraction(rng.randint(-7, 7), rng.choice([1, 1, 2, 3]))
                shifted = mu * identity_matrix(n) - g.adj
                if eig_multiplicity(g, mu) > 0:
                    with pytest.raises(SingularResolventError):
                        resolvent_inverse(g, mu)
                    continue
                r, den = resolvent_inverse(g, mu)
                assert r.shape == (n, n) and not r.flags.writeable
                assert all(type(v) is int for v in r.reshape(-1))
                inverse = fraction_inverse(shifted)
                assert den == lcm(mu.denominator, *(v.denominator for v in inverse.flat))
                assert (r == den * inverse).all()
                checked["integral" if mu.denominator == 1 else "rational"] += 1
        assert min(checked.values()) >= 10


class TestTwinQuotient:
    """char_poly, graph_min_poly, eig_multiplicity, is_nonmain and
    resolvent_inverse read the k x k twin quotient; each is checked against
    its n x n oracle, and quotient_form's blocks against the closed forms."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.builds(random_graph_with_twins, st.integers(1, 6), st.integers(1, 4), seeds),
        st.sampled_from([Fraction(m) for m in range(-3, 4)] + [Fraction(1, 2), Fraction(-3, 2)]),
    )
    def test_differential(self, g, mu):
        p, q = mu.numerator, mu.denominator
        m = [[q * int(v) - (p if i == j else 0) for j, v in enumerate(row)]
             for i, row in enumerate(g.adj)]
        rank = fraction_rank(m)
        assert eig_multiplicity(g, mu) == g.n - rank
        assert char_poly(g) == faddeev_leverrier_char_poly(g.adj)
        assert graph_min_poly(g) == krylov_min_poly(g.adj)
        if rank < g.n:
            expected = fraction_rank([row + [q] for row in m]) == rank
            assert is_nonmain(g, mu) is expected
            with pytest.raises(SingularResolventError, match="is an eigenvalue of the star complement"):
                resolvent_inverse(g, mu)
            return
        r, den = resolvent_inverse(g, mu)
        inverse = fraction_inverse(mu * identity_matrix(g.n) - g.adj)
        assert den == lcm(q, *(v.denominator for v in inverse.flat))
        assert (r == den * inverse).all() and not r.flags.writeable

    @pytest.mark.parametrize(
        "g, mu, inner",
        [(complete_graph(4), -1, 3), (join(complete_graph(1), empty_graph(3)), 0, 2)],
        ids=["true-twins-minus-1", "false-twins-0"],
    )
    def test_class_eigenvalue(self, g, mu, inner):
        # -(p + q tau) = 0 on a class of n_i twins and a nonsingular
        # quotient: mu is a non-main eigenvalue of multiplicity n_i - 1
        with pytest.raises(SingularResolventError, match=f"^mu={mu} is an eigenvalue of the star complement$"):
            resolvent_inverse(g, mu)
        assert eig_multiplicity(g, mu) == inner
        assert is_nonmain(g, mu) is True

    def test_closed_forms(self):
        # K_s + tK_1 and cocktail:p, up to 50 vertices a side
        for s in range(1, 51, 7):
            for t in range(1, 51, 7):
                # x^(t-1) (x + 1)^(s-1) (x^2 - (s - 1) x - s t)
                want = poly_mul(poly_from_roots([0] * (t - 1) + [-1] * (s - 1)), (-s * t, 1 - s, 1))
                assert char_poly(make_complete_split(s, t)) == want
        for p in range(1, 51, 7):
            # (x - 2p + 2) x^p (x + 2)^(p - 1)
            want = poly_from_roots([2 * p - 2] + [0] * p + [-2] * (p - 1))
            assert char_poly(make_cocktail(p)) == want

    def test_split_resolvent_blocks(self):
        # m(mu) (mu I - A)^{-1} of K_s + tK_1 is alpha J + beta mu I on the
        # clique, delta J across and gamma J + beta (mu + 1) I on the
        # independent set (conftest.coeffs): quotient_form's class blocks,
        # times m(mu) / D, are exactly those coefficients
        checked = 0
        for s in range(2, 41, 6):
            for t in range(2, 41, 6):
                twins = _twin_quotient(make_complete_split(s, t).adj)
                for mu in range(-12, 13):
                    try:
                        alpha, beta, gamma, delta, m_mu = coeffs(s, t, mu)
                    except SingularResolventError:
                        with pytest.raises(SingularResolventError):
                            quotient_form(twins, mu)
                        continue
                    z, x, den = quotient_form(twins, mu)
                    blocks = [[alpha, delta], [delta, gamma]]
                    assert [[v * m_mu for v in row] for row in z] == [
                        [den * v for v in row] for row in blocks
                    ]
                    assert [v * m_mu for v in x] == [den * beta * mu, den * beta * (mu + 1)]
                    checked += 1
        assert checked > 900

    @pytest.mark.parametrize("g, k", [(make_complete_split(40, 40), 2), (cycle_graph(14), 14)])
    def test_one_quotient_elimination(self, bareiss_calls, g, k):
        resolvent_inverse.cache_clear()
        resolvent_inverse(g, Fraction(3))
        assert bareiss_calls == [k]
