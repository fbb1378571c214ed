import random
import re
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from starcomp import kernels, starsets
from starcomp.graphs import (
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
    eig_multiplicity,
)
from starcomp.starsets import (
    STACK_SETS,
    BudgetExceededError,
    _complement_record,
    _scaled_residuals,
    _stacked_records,
    find_star_sets,
    verify_star_set,
)

from conftest import (
    InvalidStarSetError,
    block_residual,
    complement_rank_star_sets,
    complete_graph,
    cycle_graph,
    eigenspace_from_star,
    fraction_inverse,
    fraction_rank,
    identity_matrix,
    induced_subgraph,
    path_graph,
    random_graph,
    random_graph_with_twins,
    substar_check,
)

PETERSEN = parse_graph6("IheA@GUAo")


def oracle_multiplicity(g, mu, keep):
    """Multiplicity of mu in the subgraph induced on `keep`, by Fraction rank."""
    return len(keep) - fraction_rank(
        [[int(g.adj[i, j]) - (mu if i == j else 0) for j in keep] for i in keep]
    )


class TestVerify:
    def test_octahedron_adjacent_pair_valid(self):
        (cert,) = verify_star_set(make_cocktail(3), -2, [(0, 2)])
        assert cert["valid"]
        assert cert["checks"]["multiplicity"] == 2
        assert cert["checks"]["complement_multiplicity"] == 0
        comp = induced_subgraph(make_cocktail(3), [1, 3, 4, 5])
        assert is_isomorphic(comp, make_complete_split(2, 2))

    def test_octahedron_antipodal_pair_invalid(self):
        g = make_cocktail(3)
        (cert,) = verify_star_set(g, -2, [(0, 1)])
        assert not cert["valid"]
        assert cert["checks"]["sizes_match"]  # size is right, the complement check fails
        assert not cert["checks"]["complement_ok"]
        assert cert["checks"]["complement_multiplicity"] == 1
        assert is_isomorphic(induced_subgraph(g, [2, 3, 4, 5]), cycle_graph(4))

    def test_empty_star_set_vacuous(self):
        g = complete_graph(3)
        (cert,) = verify_star_set(g, 5, [()])
        assert cert["valid"]
        assert cert["checks"]["multiplicity"] == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            verify_star_set(complete_graph(3), 1, [(0,), (7,)])

    def test_non_integer_vertices_rejected(self):
        # int() would truncate these to X = [0, 1, 2, 3, 4] and certify it
        with pytest.raises(ValueError, match=r"^star set vertices must be integers"):
            verify_star_set(PETERSEN, 1, [[0.5, 1.5, 2.5, 3.5, 4.5]])

    def test_certificate_json(self):
        (data,) = verify_star_set(make_cocktail(3), -2, [(0, 2)])
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

    def test_empty_batch(self):
        assert verify_star_set(PETERSEN, 1, []) == []
        assert verify_star_set(PETERSEN, 1, iter(())) == []

    def test_stack_bound(self, monkeypatch):
        # STACK_SETS + 1 star sets take two stacked products, of STACK_SETS
        # sets and of one, and certify as one call per set does; the
        # antipodal pair in front has a singular complement and no residual
        g, mu = make_cocktail(8), -2
        subsets = [(0, 1, 2, 4, 6, 8, 10)] + find_star_sets(g, mu)[: STACK_SETS + 1]
        stacks = []
        real = starsets._scaled_residuals

        def spy(tops, records):
            stacks.append(len(tops))
            return real(tops, records)

        with monkeypatch.context() as m:
            m.setattr(starsets, "_scaled_residuals", spy)
            batch = verify_star_set(g, mu, subsets)
        assert stacks == [STACK_SETS, 1]
        assert batch == [cert for x in subsets for cert in verify_star_set(g, mu, [x])]
        assert [c["valid"] for c in batch] == [False] + [True] * (STACK_SETS + 1)

    def test_complement_stack_bound(self, monkeypatch):
        # L(K6) at mu = 2: 1518 star sets with 1512 distinct labelled
        # 10-vertex complements, solved in six stacks of at most STACK_SETS,
        # each complement once; the batch certifies as one call per set does
        g, mu = parse_graph6("NbIkZxZ{EnUrqkMl|iO"), 2
        stars = find_star_sets(g, mu)
        assert len(stars) == 1518
        sizes = []
        real = kernels.inverse_stack

        def spy(mats):
            sizes.append(len(mats))
            return real(mats)

        with monkeypatch.context() as m:
            m.setattr(kernels, "inverse_stack", spy)
            batch = verify_star_set(g, mu, stars)
        assert sizes == [STACK_SETS] * 5 + [1512 - 5 * STACK_SETS]
        assert all(c["valid"] for c in batch)
        assert batch == [cert for x in stars for cert in verify_star_set(g, mu, [x])]

    @pytest.mark.parametrize("mu", [1 << 40, Fraction(-(1 << 70), 3)])
    def test_huge_mu(self, monkeypatch, mu):
        # p I - q A(H) with p = 2^40 fits int64 storage but not the
        # elimination bound, and p = -2^70 not even the storage: the stacked
        # solves run over Python ints and every certificate matches the
        # Fraction oracles and the one-set call
        g = PETERSEN
        subsets = list(combinations(range(g.n), 2))
        dtypes = []
        real = kernels.inverse_stack

        def spy(mats):
            out = real(mats)
            dtypes.append(out[1].dtype)
            return out

        with monkeypatch.context() as m:
            m.setattr(kernels, "inverse_stack", spy)
            batch = verify_star_set(g, mu, subsets)
        assert dtypes == [object]
        for star, cert in zip(subsets, batch, strict=True):
            comp = [v for v in range(g.n) if v not in star]
            residual = block_residual(g, Fraction(mu), star)
            assert cert["checks"]["multiplicity"] == 0
            assert cert["checks"]["complement_multiplicity"] == oracle_multiplicity(g, Fraction(mu), comp) == 0
            assert residual.any()  # mu is no eigenvalue of G
            assert not cert["checks"]["residual_zero"] and not cert["valid"]
            assert [cert] == verify_star_set(g, mu, [star])

    def test_equivalence_of_checks_exhaustive(self):
        # residual holds exactly when the size and complement checks both do,
        # over every subset of every vertex count <= 7, all in one batch
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
                subsets = [x for size in range(g.n + 1) for x in combinations(range(g.n), size)]
                for star, cert in zip(subsets, verify_star_set(g, mu, subsets), strict=True):
                    assert cert["X"] == list(star)
                    assert cert["checks"]["residual_zero"] == (
                        cert["checks"]["sizes_match"] and cert["checks"]["complement_ok"]
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
        subsets = list(combinations(range(g.n), k))
        # every complement also through the stacked solve, in stacks of at
        # most STACK_SETS (none of one here)
        blocks = [induced_subgraph(g, [v for v in range(g.n) if v not in star]).adj for star in subsets]
        assert len(blocks) % STACK_SETS != 1
        stacked = [rec for i in range(0, len(blocks), STACK_SETS)
                   for rec in _stacked_records(blocks[i : i + STACK_SETS], mu)]
        tops, records, scaled = [], [], []
        for star, cert, block, (comp_mult, stacked_record) in zip(
            subsets, verify_star_set(g, mu, subsets), blocks, stacked, strict=True
        ):
            comp = [v for v in range(g.n) if v not in star]
            assert cert["checks"]["multiplicity"] == multiplicity, star
            assert cert["checks"]["complement_multiplicity"] == oracle_multiplicity(g, mu, comp), star
            assert comp_mult == cert["checks"]["complement_multiplicity"], star
            expected = block_residual(g, mu, star)
            assert cert["checks"]["complement_ok"] == (expected is not None), star
            assert (stacked_record is None) == (expected is None), star
            if expected is None:
                continue
            assert cert["checks"]["residual_zero"] == (expected == 0).all(), star
            # the helper reads A[X, X + comp], the rows of X permuted first
            top = g.adj[list(star)][:, list(star) + comp]
            # the stacked pair: R / D is the resolvent, and its residual is D
            # times the Fraction one
            s_den, s_d_mu, s_r, _ = stacked_record
            assert s_d_mu == mu * s_den and s_den > 0
            resolvent = fraction_inverse(mu * identity_matrix(len(comp)) - block.astype(object))
            assert (s_r == s_den * resolvent).all(), star
            assert np.array_equal(_scaled_residuals(top[None], [stacked_record])[0], s_den * expected), star
            _, record = _complement_record(induced_subgraph(g, comp), mu)
            den, d_mu, r, fast = record
            assert d_mu == mu * den
            got = _scaled_residuals(top[None], [record])
            assert got.shape == (1, k, k), star
            assert np.array_equal(got[0], den * expected), star
            assert got.dtype == kernels.int_dtype(r, d_mu, den), star
            assert (fast is None) == (got.dtype == object), star
            tops.append(top)
            records.append(record)
            scaled.append(den * expected)
            valid += cert["valid"]
        assert valid == (len(find_star_sets(g, mu)) if mu.denominator == 1 else 0)
        # one stacked product over every set with a resolvent, each with its
        # own R and D, gives the same residuals
        got = _scaled_residuals(np.array(tops), records)
        assert all(np.array_equal(a, b) for a, b in zip(got, scaled, strict=True))


def expected_solves(g, mu, stars):
    """The complements of the sets stars (as graphs) in the order
    verify_star_set solves them: the sizes by first appearance, each size's
    distinct complements by first appearance, STACK_SETS to a chunk.  Returns
    (chunks of one, which read resolvent_inverse; longer chunks, each one
    kernels.inverse_stack; the number of chunks with a complement that has
    a resolvent, each one kernels.int_dtype call)."""
    by_size = {}
    for star in stars:
        comp = [v for v in range(g.n) if v not in star]
        by_size.setdefault(len(star), {}).setdefault(induced_subgraph(g, comp), None)
    chunks = [
        list(hs)[i : i + STACK_SETS] for hs in by_size.values() for i in range(0, len(hs), STACK_SETS)
    ]
    singles = [h for chunk in chunks if len(chunk) == 1 for h in chunk]
    stacks = [chunk for chunk in chunks if len(chunk) > 1]
    decided = sum(any(eig_multiplicity(h, mu) == 0 for h in chunk) for chunk in chunks)
    return singles, stacks, decided


def solve_spies(m, mu):
    """Patch starsets.resolvent_inverse, kernels.inverse_stack and
    kernels.int_dtype with spies; returns the lists they fill: the graphs
    resolvent_inverse sees, (stack, np.int64 or object) per inverse_stack call
    and the dtypes int_dtype chooses."""
    singles, stacks, dtypes = [], [], []
    real_inverse, real_stack, real_dtype = (
        starsets.resolvent_inverse, kernels.inverse_stack, kernels.int_dtype)

    def inverse_spy(h, m):
        singles.append(h)
        return real_inverse(h, m)

    def stack_spy(mats):
        out = real_stack(mats)
        stacks.append((mats, object if out[1].dtype == object else out[1].dtype.type))
        return out

    def dtype_spy(*args):
        dtypes.append(real_dtype(*args))
        return dtypes[-1]

    m.setattr(starsets, "resolvent_inverse", inverse_spy)
    m.setattr(kernels, "inverse_stack", stack_spy)
    m.setattr(kernels, "int_dtype", dtype_spy)
    return singles, stacks, dtypes


def shifted(hs, mu):
    """The stack q (mu I - A(H)) = p I - q A(H) over Python ints, mu = p/q."""
    return [(mu.numerator * identity_matrix(h.n) - mu.denominator * h.adj.astype(object)).tolist()
            for h in hs]


class TestResidualInt64:
    # The residual in the dtype kernels.int_dtype chooses against the same
    # residual with int64 ruled out, on every k-subset: star sets, sets whose
    # complement has mu as an eigenvalue and sets with a nonzero residual.
    @staticmethod
    def int64_and_exact_dtypes(monkeypatch, g, mu, k):
        """Certify every k-subset in one batch as the overflow rules choose
        and again over Python ints, require equal certificates field by
        field, and return the number of valid ones and, for each pass, the
        dtypes of its stacked solves and of its int_dtype decisions: one
        solve per STACK_SETS distinct complements of a size (a lone one
        reads resolvent_inverse) and one decision per solve with a resolvent."""
        mu = Fraction(mu)
        subsets = list(combinations(range(g.n), k))
        singles, stacks, decided = expected_solves(g, mu, subsets)
        passes = []
        for limit in (kernels.ACCUMULATOR_LIMIT, 1):
            with monkeypatch.context() as m:
                seen, solved, dtypes = solve_spies(m, mu)
                m.setattr(kernels, "ACCUMULATOR_LIMIT", limit)
                certs = verify_star_set(g, mu, subsets)
            assert seen == singles
            assert [mats.tolist() for mats, _ in solved] == [shifted(hs, mu) for hs in stacks]
            assert len(dtypes) == decided
            passes.append((certs, [dtype for _, dtype in solved], dtypes))
        (fast, fast_solves, fast_dtypes), (exact, exact_solves, exact_dtypes) = passes
        assert len(fast) == len(subsets)
        for a, b in zip(fast, exact, strict=True):
            assert a == b, a["X"]
        return sum(c["valid"] for c in fast), fast_solves + fast_dtypes, exact_solves + exact_dtypes

    @pytest.mark.parametrize("g, mu", [
        (PETERSEN, 1), (PETERSEN, -2), (PETERSEN, 3), (make_cocktail(4), -2),
    ], ids=["petersen-1", "petersen--2", "petersen-3", "cocktail4--2"])
    def test_every_subset(self, monkeypatch, g, mu):
        k = eig_multiplicity(g, mu)
        valid, fast, exact = self.int64_and_exact_dtypes(monkeypatch, g, mu, k)
        assert valid == len(find_star_sets(g, mu))
        # one stack of every distinct complement, solved and decided in int64
        assert fast == [np.int64, np.int64]
        assert exact == [object, object]

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
        with pytest.raises(PreconditionError, match="^7 is not an eigenvalue; no star set exists$"):
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
            assert all(cert["valid"] for cert in verify_star_set(g, mu, stars))

    def test_neighborhoods_nonempty_distinct(self):
        # for mu outside {0, -1}, star-set vertices have nonempty, pairwise
        # distinct neighborhoods in the complement
        g = make_cocktail(3)
        for star in find_star_sets(g, -2):
            comp = [v for v in range(g.n) if v not in star]
            hoods = [
                frozenset(w for w in comp if g.adj[u, w]) for u in star
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
            message = f"{mu} is not an eigenvalue; no star set exists"
            with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
                find_star_sets(g, mu)
        else:
            assert find_star_sets(g, mu) == expected, mu


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.builds(random_graph, st.integers(0, 7), seeds, st.sampled_from([0.25, 0.5, 0.75])),
        # twins give multiplicities above 1 at 0 and -1
        st.builds(random_graph_with_twins, st.integers(1, 4), st.integers(0, 3), seeds),
        st.builds(make_cocktail, st.integers(1, 3)),
    ),
    st.lists(st.lists(st.integers(0, 9), max_size=9), max_size=4),
    st.integers(-6, 6),
    st.sampled_from([1, 2, 3]),
    st.sampled_from(["list", "numpy", "int64 tuple"]),
)
@example(make_cocktail(3), [[2, 0]], -2, 1, "list")  # a valid star set
@example(make_complete_split(2, 2), [[0]], -5, 2, "list")
@example(make_cocktail(3), [[]], -2, 1, "list")  # k = 0 with mu an eigenvalue
@example(make_cocktail(3), [[]], 3, 1, "numpy")  # k = 0, a vacuous star set
@example(make_cocktail(3), [[5, 4, 3, 2, 1, 0, 5]], 1, 2, "list")  # k = n
@example(PETERSEN, [[9, 3, 1, 9]], -2, 1, "int64 tuple")
@example(make_cocktail(3), [[1, 0, 1]], -2, 1, "numpy")  # singular complement
@example(make_cocktail(3), [[3, 1, 0, 1]], -2, 1, "int64 tuple")  # singular complement
@example(make_cocktail(3), [], -2, 1, "list")  # an empty batch
# star sets, one of them twice in another order, the empty set, all of V,
# singular complements and sets of other sizes, in one batch
@example(
    make_cocktail(3), [[2, 0], [3, 1, 0], [0, 2, 2], [], [5, 4, 3, 2, 1, 0], [1, 0], [4, 2]],
    -2, 1, "list",
)
@example(PETERSEN, [[0, 1], [1, 0], [], list(range(10)), [0, 1, 2, 3, 4]], 1, 2, "numpy")
def test_certificate_matches_fraction_oracles(g, raws, p, q, form):
    # Every certificate of one batch against Fraction ranks and the Fraction
    # block residual, over integral and rational mu = p/q and sets of mixed
    # sizes: unsorted, with repeats, duplicated, as Python or numpy ints.
    # The batch runs as the overflow rules choose (int64 here) and again
    # with ACCUMULATOR_LIMIT = 1, where every solve and residual runs over
    # Python ints.  The distinct complements of each size are solved once,
    # a lone one through resolvent_inverse, as the graph induced_subgraph
    # gives, so the cache keys do not depend on how the certificate slices
    # it, and the rest as kernels.inverse_stack calls on p I - q A(H); each
    # solve with a resolvent among its complements costs one overflow decision.
    mu = Fraction(p, q)
    batch = [[v % g.n for v in raw] if g.n else [] for raw in raws]
    form = {
        "list": list,
        "numpy": lambda x: np.array(x, dtype=np.int64),
        "int64 tuple": lambda x: tuple(np.int64(v) for v in x),
    }[form]
    stars = [tuple(sorted(set(x))) for x in batch]
    comps = [[v for v in range(g.n) if v not in star] for star in stars]
    multiplicity = oracle_multiplicity(g, mu, range(g.n))
    comp_mults = [oracle_multiplicity(g, mu, comp) for comp in comps]
    residuals = [block_residual(g, mu, star) for star in stars]
    singles, stacks, decided = expected_solves(g, mu, stars)
    passes = []
    for exact in (False, True):
        residual_stacks = []
        real_residuals = starsets._scaled_residuals

        def residuals_spy(*args):
            residual_stacks.append(real_residuals(*args))
            return residual_stacks[-1]

        with pytest.MonkeyPatch.context() as m:
            seen, solved, dtypes = solve_spies(m, mu)
            m.setattr(starsets, "_scaled_residuals", residuals_spy)
            if exact:
                m.setattr(kernels, "ACCUMULATOR_LIMIT", 1)
            certs = verify_star_set(g, mu, (form(x) for x in batch))
        assert seen == singles and [hash(h) for h in seen] == [hash(h) for h in singles]
        assert all(h.adj.dtype == np.uint8 and not h.adj.flags.writeable for h in seen)
        assert [mats.tolist() for mats, _ in solved] == [shifted(hs, mu) for hs in stacks]
        assert all(len(mats) <= STACK_SETS for mats, _ in solved)
        # one overflow decision per solve that found a resolvent, and every
        # stack solved and every stacked residual computed in the dtype they chose
        assert len(dtypes) == decided
        assert set(dtypes) <= ({object} if exact else {np.int64})
        assert {dtype for _, dtype in solved} <= ({object} if exact else {np.int64})
        assert all(x.dtype in dtypes for x in residual_stacks)
        assert sum(len(x) for x in residual_stacks) == comp_mults.count(0)
        passes.append(certs)
    assert passes[0] == passes[1]
    assert [c["X"] for c in certs] == [list(star) for star in stars]
    for cert, star, comp_mult, residual in zip(certs, stars, comp_mults, residuals, strict=True):
        assert (cert["graph"], cert["mu"]) == (write_graph6(g), str(mu))
        assert all(type(v) is int for v in cert["X"])
        assert cert["checks"]["multiplicity"] == multiplicity
        assert cert["checks"]["complement_multiplicity"] == comp_mult
        assert cert["checks"]["sizes_match"] == (multiplicity == len(star))
        assert cert["checks"]["complement_ok"] == (comp_mult == 0) == (residual is not None)
        assert cert["checks"]["residual_zero"] == (residual is not None and not residual.any())
        assert cert["valid"] == (
            cert["checks"]["sizes_match"]
            and cert["checks"]["complement_ok"]
            and cert["checks"]["residual_zero"]
        )
        assert [cert] == verify_star_set(g, mu, [star])


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
            adj = g.adj.astype(object)
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
