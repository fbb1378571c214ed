import dataclasses
import json
import random
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from starcomp import (
    BudgetExceededError,
    InvalidStarSetError,
    NotAnEigenvalueError,
    adjacency_matrix,
    complete_graph,
    cycle_graph,
    eig_multiplicity,
    eigenspace_from_star,
    find_star_sets,
    induced_subgraph,
    is_isomorphic,
    is_regular,
    make_cocktail,
    make_complete_split,
    parse_graph6,
    path_graph,
    relabel,
    verify_star_set,
)
from starcomp import kernels
from starcomp.linalg import resolvent_inverse
from starcomp.starsets import _scaled_residual, substar_check

from conftest import (
    block_residual,
    complement_rank_star_sets,
    fraction_rank,
    random_graph,
    random_graph_with_twins,
)

PETERSEN = parse_graph6("IheA@GUAo")


def oracle_multiplicity(g, mu, keep):
    """Multiplicity of mu in the subgraph induced on `keep`, by Fraction rank."""
    return len(keep) - fraction_rank(
        [[int(g.adj[i, j]) - (mu if i == j else 0) for j in keep] for i in keep]
    )


class TestVerify:
    def test_octahedron_adjacent_pair_valid(self):
        cert = verify_star_set(make_cocktail(3), -2, (0, 2))
        assert cert.valid
        assert cert.multiplicity == 2
        assert cert.complement_multiplicity == 0
        comp = induced_subgraph(make_cocktail(3), [1, 3, 4, 5])
        assert is_isomorphic(comp, make_complete_split(2, 2))

    def test_octahedron_antipodal_pair_invalid(self):
        g = make_cocktail(3)
        cert = verify_star_set(g, -2, (0, 1))
        assert not cert.valid
        assert cert.sizes_match  # size is right, the complement check fails
        assert not cert.complement_ok
        assert cert.complement_multiplicity == 1
        assert is_isomorphic(induced_subgraph(g, [2, 3, 4, 5]), cycle_graph(4))

    def test_empty_star_set_vacuous(self):
        g = complete_graph(3)
        cert = verify_star_set(g, 5, ())
        assert cert.valid
        assert cert.multiplicity == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            verify_star_set(complete_graph(3), 1, (7,))

    def test_certificate_json(self):
        cert = verify_star_set(make_cocktail(3), -2, (0, 2))
        data = json.loads(str(cert))
        assert data["valid"] is True
        assert data["mu"] == "-2"
        assert data["X"] == [0, 2]
        assert set(data["checks"]) == {
            "multiplicity",
            "sizes_match",
            "complement_ok",
            "complement_multiplicity",
            "residual_zero",
        }

    def test_equivalence_of_checks_exhaustive(self):
        # residual holds exactly when the size and complement checks both do,
        # over every subset of every vertex count <= 7
        graphs = [
            path_graph(3),
            cycle_graph(4),
            complete_graph(4),
            make_complete_split(2, 2),
            make_cocktail(3),
            random_graph(6, random.Random(2)),
            random_graph(7, random.Random(4)),
        ]
        for g in graphs:
            roots = {-2, -1, 0, 1, 2}
            for mu in roots:
                for size in range(g.n + 1):
                    for star in combinations(range(g.n), size):
                        cert = verify_star_set(g, mu, star)
                        assert cert.residual_zero == (
                            cert.sizes_match and cert.complement_ok
                        ), (g, mu, star)


class TestResidualDifferential:
    # Every k-subset against the Fraction block identity.  For an eigenvalue
    # k is its multiplicity; a non-integral mu is never a graph eigenvalue,
    # so its residual is nonzero everywhere, but both sides must agree on
    # the whole scaled matrix, which runs the q != 1 branch.
    @pytest.mark.parametrize(
        "g, mu, k",
        [
            (make_cocktail(3), -2, None),
            (make_cocktail(3), 0, None),
            (make_cocktail(3), Fraction(1, 2), 2),
            (make_cocktail(4), -2, None),
            (make_cocktail(4), 0, None),
            (make_cocktail(4), Fraction(-5, 2), 2),
            (PETERSEN, 1, None),
            (PETERSEN, -2, None),
            (PETERSEN, Fraction(1, 2), 2),
            (PETERSEN, Fraction(-5, 2), 2),
        ],
    )
    def test_every_subset_matches_fraction_identity(self, g, mu, k):
        mu = Fraction(mu)
        if k is None:
            k = eig_multiplicity(g, mu)
        valid = 0
        multiplicity = oracle_multiplicity(g, mu, range(g.n))
        for star in combinations(range(g.n), k):
            cert = verify_star_set(g, mu, star)
            comp = [v for v in range(g.n) if v not in star]
            assert cert.multiplicity == multiplicity, star
            assert cert.complement_multiplicity == oracle_multiplicity(g, mu, comp), star
            expected = block_residual(g, mu, star)
            assert cert.complement_ok == (expected is not None), star
            if expected is None:
                continue
            assert cert.residual_zero == (expected == 0).all(), star
            r, den = resolvent_inverse(induced_subgraph(g, comp), mu)
            got = _scaled_residual(g, mu, star, comp, r, den)
            assert got.shape == (k, k), star
            assert np.array_equal(got, den * expected), star
            assert got.dtype == kernels.int_dtype(r, int(mu * den), den), star
            valid += cert.valid
        assert valid == (len(find_star_sets(g, mu)) if mu.denominator == 1 else 0)


class TestResidualInt64:
    # The residual in the dtype kernels.int_dtype chooses against the same
    # residual with int64 ruled out, on every k-subset: star sets, sets whose
    # complement has mu as an eigenvalue and sets with a nonzero residual.
    @staticmethod
    def int64_and_exact_dtypes(monkeypatch, g, mu, k):
        """Certify every k-subset as the overflow rule chooses and again over
        Python ints, require equal certificates field by field, and return
        the number of valid ones and the dtypes chosen for the two passes."""
        chosen = []
        real = kernels.int_dtype

        def spy(*args):
            chosen.append(real(*args))
            return chosen[-1]

        subsets = list(combinations(range(g.n), k))
        with monkeypatch.context() as m:
            m.setattr(kernels, "int_dtype", spy)
            fast = [verify_star_set(g, mu, x) for x in subsets]
            m.setattr(kernels, "ACCUMULATOR_LIMIT", 1)
            exact = [verify_star_set(g, mu, x) for x in subsets]
        for a, b in zip(fast, exact):
            for field in dataclasses.fields(a):
                assert getattr(a, field.name) == getattr(b, field.name), (a.star_set, field.name)
        half = len(chosen) // 2
        return sum(c.valid for c in fast), chosen[:half], chosen[half:]

    @pytest.mark.parametrize("g, mu", [
        (PETERSEN, 1), (PETERSEN, -2), (PETERSEN, 3), (make_cocktail(4), -2),
    ], ids=["petersen-1", "petersen--2", "petersen-3", "cocktail4--2"])
    def test_every_subset(self, monkeypatch, g, mu):
        k = eig_multiplicity(g, mu)
        valid, fast, exact = self.int64_and_exact_dtypes(monkeypatch, g, mu, k)
        assert valid == len(find_star_sets(g, mu))
        assert fast and set(fast) == {np.int64}
        assert len(exact) == len(fast) and set(exact) == {object}

    def test_random_graphs(self, monkeypatch):
        # monkeypatch.context() undoes each example's patches, so the one
        # fixture serves every example
        @settings(max_examples=40, deadline=None)
        @given(
            st.integers(1, 7),
            st.integers(0, 2**16),
            st.integers(-3, 3),
            st.integers(1, 3),
            st.integers(0, 7),
        )
        @example(n=5, seed=3, p=1, q=2, k=2)  # rational mu: every residual nonzero
        @example(n=6, seed=1, p=0, q=1, k=3)
        def check(n, seed, p, q, k):
            g = random_graph(n, random.Random(seed))
            mu = Fraction(p, q)
            k = min(k, n)  # any size, the multiplicity of mu or not
            valid, fast, exact = self.int64_and_exact_dtypes(monkeypatch, g, mu, k)
            if k != eig_multiplicity(g, mu):
                assert valid == 0
            assert set(fast) <= {np.int64}
            assert len(exact) == len(fast) and set(exact) <= {object}

        check()


class TestFindStarSets:
    def test_octahedron_edges(self):
        g = make_cocktail(3)
        stars = find_star_sets(g, -2)
        assert stars == sorted(tuple(sorted(e)) for e in g.edges())
        assert len(stars) == 12

    def test_path_leaves(self):
        assert find_star_sets(path_graph(3), 0) == [(0,), (2,)]

    def test_k2(self):
        assert find_star_sets(complete_graph(2), 1) == [(0,), (1,)]

    def test_not_an_eigenvalue(self):
        with pytest.raises(NotAnEigenvalueError):
            find_star_sets(complete_graph(3), 7)

    @pytest.mark.parametrize("g, mu", [(make_cocktail(4), -2), (PETERSEN, 1)])
    def test_one_elimination(self, bareiss_calls, g, mu):
        # the multiplicity is the null-space basis' column count, not a rank
        eig_multiplicity.cache_clear()
        assert find_star_sets(g, mu)
        assert len(bareiss_calls) == 1

    def test_budget_error_names_count(self):
        g = make_cocktail(4)  # multiplicity of -2 is 3
        with pytest.raises(BudgetExceededError, match=r"C\(8,3\) = 56"):
            find_star_sets(g, -2, budget=10)

    def test_every_hit_is_certified(self):
        rng = random.Random(8)
        checked = 0
        while checked < 6:
            g = random_graph(rng.randint(3, 7), rng)
            roots = [
                v
                for v in range(-3, 4)
                if eig_multiplicity(g, v) >= 1
            ]
            if not roots:
                continue
            checked += 1
            mu = roots[0]
            stars = find_star_sets(g, mu)
            assert stars  # star sets exist for every eigenvalue
            for star in stars:
                assert verify_star_set(g, mu, star).valid

    def test_neighborhoods_nonempty_distinct(self):
        # for mu outside {0, -1}, star-set vertices have nonempty, pairwise
        # distinct neighborhoods in the complement
        g = make_cocktail(3)
        for star in find_star_sets(g, -2):
            comp = [v for v in range(g.n) if v not in star]
            hoods = [
                frozenset(w for w in comp if g.has_edge(u, w)) for u in star
            ]
            assert all(hoods)
            assert len(set(hoods)) == len(hoods)


seeds = st.integers(0, 2**32 - 1).map(random.Random)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.builds(random_graph, st.integers(0, 9), seeds, st.sampled_from([0.25, 0.5, 0.75])),
        # twins give large multiplicities at 0 and -1
        st.builds(random_graph_with_twins, st.integers(1, 5), st.integers(0, 4), seeds),
        st.builds(make_cocktail, st.integers(1, 5)),
        st.builds(make_complete_split, st.integers(1, 4), st.integers(1, 4)),
        st.just(PETERSEN),
    ),
    seeds,
)
def test_basis_search_matches_complement_ranks(g, rng):
    # Same tuples in the same order as ranking every complement, at every
    # integral mu in [-n, n]; labels are shuffled so the order is tested on
    # more than one labelling of each structured graph.
    perm = list(range(g.n))
    rng.shuffle(perm)
    g = relabel(g, perm)
    for mu in range(-g.n, g.n + 1):
        expected = complement_rank_star_sets(g, mu)
        if expected == [()]:  # multiplicity 0: only the empty set passes
            with pytest.raises(NotAnEigenvalueError):
                find_star_sets(g, mu)
        else:
            assert find_star_sets(g, mu) == expected, mu


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.builds(random_graph, st.integers(0, 7), seeds, st.sampled_from([0.25, 0.5, 0.75])),
        # twins give multiplicities above 1 at 0 and -1
        st.builds(random_graph_with_twins, st.integers(1, 4), st.integers(0, 3), seeds),
    ),
    st.integers(0, 2**7 - 1),
    st.integers(-6, 6),
    st.sampled_from([1, 2, 3]),
)
@example(make_cocktail(3), 0b101, -2, 1)  # a valid star set
@example(make_complete_split(2, 2), 0b1, -5, 2)
def test_certificate_matches_fraction_oracles(g, mask, p, q):
    # Every certificate field against Fraction ranks and the Fraction block
    # residual, over integral and rational mu = p/q and arbitrary X.
    mu = Fraction(p, q)
    star = tuple(v for v in range(g.n) if mask >> v & 1)
    comp = [v for v in range(g.n) if v not in star]
    cert = verify_star_set(g, mu, star)
    residual = block_residual(g, mu, star)
    multiplicity = oracle_multiplicity(g, mu, range(g.n))
    comp_mult = oracle_multiplicity(g, mu, comp)
    assert (cert.graph, cert.mu, cert.star_set) == (g, mu, star)
    assert cert.multiplicity == multiplicity
    assert cert.complement_multiplicity == comp_mult
    assert cert.sizes_match == (multiplicity == len(star))
    assert cert.complement_ok == (comp_mult == 0) == (residual is not None)
    assert cert.residual_zero == (residual is not None and not residual.any())
    assert cert.valid == (cert.sizes_match and cert.complement_ok and cert.residual_zero)


class TestEigenspace:
    def test_path_leaf_vector(self):
        vecs = eigenspace_from_star(path_graph(3), 0, (0,))
        assert len(vecs) == 1
        assert list(vecs[0]) == [1, 0, -1]

    def test_eigenvector_property_and_dimension(self):
        rng = random.Random(21)
        cases = 0
        while cases < 5:
            g = random_graph(rng.randint(3, 7), rng)
            mus = [v for v in range(-3, 4) if eig_multiplicity(g, v) >= 1]
            if not mus:
                continue
            cases += 1
            mu = mus[-1]
            stars = find_star_sets(g, mu)
            vecs = eigenspace_from_star(g, mu, stars[0])
            assert len(vecs) == eig_multiplicity(g, mu)
            adj = adjacency_matrix(g)
            for v in vecs:
                assert (adj @ v == Fraction(mu) * v).all()

    def test_orthogonal_to_ones_on_regular(self):
        g = make_cocktail(3)
        r = is_regular(g)
        for mu in (-2, 0):
            assert mu != r
            for star in find_star_sets(g, mu):
                for v in eigenspace_from_star(g, mu, star):
                    assert sum(v) == 0

    def test_invalid_star_set_raises(self):
        with pytest.raises(InvalidStarSetError):
            eigenspace_from_star(make_cocktail(3), -2, (0, 1))


class TestSubstar:
    def test_octahedron_drop_one(self):
        assert substar_check(make_cocktail(3), -2, (0, 2), (0,)) is True

    def test_empty_removed(self):
        assert substar_check(make_cocktail(3), -2, (0, 2), ()) is True

    def test_full_removed_rejected(self):
        with pytest.raises(ValueError):
            substar_check(make_cocktail(3), -2, (0, 2), (0, 2))

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            substar_check(make_cocktail(3), -2, (0, 2), (3,))

    @pytest.mark.parametrize("star", [[0, 99], [0, -1]])
    def test_star_out_of_range_rejected(self, star):
        with pytest.raises(ValueError, match=r"out of range for n=6"):
            substar_check(make_cocktail(3), -2, star, [0])

    def test_all_proper_subsets(self):
        g = make_cocktail(4)
        mu = -2
        for star in find_star_sets(g, mu):
            subsets = chain.from_iterable(
                combinations(star, r) for r in range(len(star))
            )
            for removed in subsets:
                assert substar_check(g, mu, star, removed) is True
