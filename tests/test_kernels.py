import random
from fractions import Fraction

import numpy as np
import pytest

from starcomp import Graph, eig_multiplicity, kernels, rank
from starcomp.extend import _subset_scan_exact

from conftest import fraction_rank, random_graph


def random_int_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def rank_deficient_matrix(rng, rows, cols, bound):
    """A rows x cols integer matrix of rank at most max(1, min(rows, cols) - 1)
    whose entries reach about +-bound: random base rows and 0/+-1
    combinations of them, shuffled."""
    k = max(1, min(rows, cols) - 1)
    base = [[rng.randint(-bound, bound) // k for _ in range(cols)] for _ in range(k)]
    out = base[:rows]
    while len(out) < rows:
        coeffs = [rng.choice((-1, 0, 1)) for _ in range(k)]
        out.append([sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(cols)])
    rng.shuffle(out)
    return out


class TestRankKernels:
    def test_backends_agree_with_reference(self):
        # the public rank matches plain Fraction elimination
        rng = random.Random(5)
        for _ in range(60):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = random_int_matrix(rng, rows, cols)
            assert rank(m) == fraction_rank(m)

    def test_rank_deficient(self):
        m = [[1, 2, 3], [2, 4, 6], [0, 0, 0]]
        assert rank(m) == 1

    @pytest.mark.parametrize("bits", [30, 62, 80])
    def test_ranks_match_fraction_oracle(self, bits):
        # rank, kernels.try_int_rank and eig_multiplicity against Fraction
        # elimination, with entries past int64 at 2^80: one exact elimination
        # whatever the size of the entries, never None
        bound = 1 << bits
        rng = random.Random(bits)
        for _ in range(25):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            for m in (
                random_int_matrix(rng, rows, cols, -bound, bound),
                rank_deficient_matrix(rng, rows, cols, bound),
            ):
                copy = [r[:] for r in m]
                expected = fraction_rank(m)
                assert kernels.try_int_rank(m) == expected
                assert m == copy
                assert rank(m) == expected
        for _ in range(10):
            g = random_graph(rng.randint(1, 6), rng)
            for mu in (-2, 0, 1, Fraction(rng.randint(-bound, bound), rng.randint(1, bound))):
                shifted = [[int(v) - (mu if i == j else 0) for j, v in enumerate(r)]
                           for i, r in enumerate(g.adj)]
                assert eig_multiplicity(g, mu) == g.n - fraction_rank(shifted)
        assert kernels.try_int_rank([]) == kernels.try_int_rank([[]]) == 0
        assert rank([]) == fraction_rank([]) == 0
        assert eig_multiplicity(Graph(0), -2) == 0

    def test_public_rank_exact_on_huge_entries(self):
        # entries of 10^30 must agree with the rational reference
        rng = random.Random(31)
        shift = 10**30
        m = [
            [rng.randint(-3, 3) * shift + rng.randint(-3, 3) for _ in range(5)]
            for _ in range(5)
        ]
        assert rank(m) == fraction_rank(m)

    def test_growth_triggers_internal_bailout(self):
        # entries just under 2^30 whose Bareiss minors grow far past int64:
        # the elimination stays exact
        rng = random.Random(77)
        base = (1 << 30) - 7
        m = [[rng.randint(base - 40, base) for _ in range(6)] for _ in range(6)]
        assert kernels.try_int_rank(m) == rank(m) == fraction_rank(m)


# (LOW_BITS, INNER_BITS) splits the scan tests run under: at n <= 14 the
# small ones give scans with inner bits and many outer blocks
SCAN_TIERS = [(2, 1), (3, 2), (kernels.LOW_BITS, kernels.INNER_BITS)]


class TestSubsetScanKernels:
    def build_case(self, rng, n):
        sym = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-9, 9)
                sym[i][j] = v
                sym[j][i] = v
        res = np.array(sym, dtype=np.int64)
        rj = res.sum(axis=1)
        return res, rj

    def reference(self, res, rj, want_diag, want_j, use_j, i0=0, i1=None):
        """Brute force over the masks i0 <= mask < i1, sorted."""
        n = res.shape[0]
        hits = []
        for mask in range(i0, (1 << n) if i1 is None else i1):
            on = [v for v in range(n) if (mask >> v) & 1]
            val = sum(int(res[a, b]) for a in on for b in on)
            jv = sum(int(rj[a]) for a in on)
            if val == want_diag and (not use_j or jv == want_j):
                hits.append(mask)
        return sorted(hits)

    def scans(self, res, rj, want_diag, want_j, use_j, i0, i1):
        """(int64 scan, Python-int scan) of one range, each sorted."""
        int64 = kernels.subset_scan_int64(
            res, rj, np.int64(want_diag), np.int64(want_j), use_j, i0, i1
        )
        assert int64.dtype == np.int64
        exact = _subset_scan_exact(
            res.astype(object), rj.astype(object), int(want_diag), int(want_j), use_j, i0, i1
        )
        return sorted(int64.tolist()), sorted(exact)

    @pytest.mark.parametrize("use_j", [False, True])
    def test_backends_agree(self, use_j):
        rng = random.Random(9)
        for _ in range(12):
            n = rng.randint(1, 9)
            res, rj = self.build_case(rng, n)
            want_diag = rng.randint(-20, 20)
            want_j = rng.randint(-20, 20)
            ref = self.reference(res, rj, want_diag, want_j, use_j)
            int64, exact = self.scans(res, rj, want_diag, want_j, use_j, 0, 1 << n)
            assert int64 == exact == ref

    def test_sharded_ranges_cover_everything(self):
        rng = random.Random(123)
        res, rj = self.build_case(rng, 8)
        want = 0
        total = 1 << 8
        full = sorted(
            int(m)
            for m in kernels.subset_scan_int64(
                res, rj, np.int64(want), np.int64(0), False, 0, total
            )
        )
        pieces = []
        for lo in range(0, total, 37):
            hi = min(lo + 37, total)
            pieces.extend(
                int(m)
                for m in kernels.subset_scan_int64(
                    res, rj, np.int64(want), np.int64(0), False, lo, hi
                )
            )
        assert sorted(pieces) == full

    def test_empty_range(self):
        res = np.zeros((3, 3), dtype=np.int64)
        rj = np.zeros(3, dtype=np.int64)
        assert self.scans(res, rj, 0, 0, False, 5, 5) == ([], [])

    def shard_cases(self, rng):
        """(n, res, rj, want_diag, want_j, probe, cuts) for n = 1..14: entries
        in -3..3 so that hits are common, a target hit by the mask `probe`,
        and shard cuts at random masks and around the edges of the low,
        inner and outer tiers of every SCAN_TIERS split."""
        edges = {(m << b) + d for low, inner in SCAN_TIERS for b in (low, low + inner)
                 for m in (1, 3) for d in (-1, 1)}
        for n in range(1, 15):
            res, rj = self.build_case(rng, n)
            res //= 3
            rj = res.sum(axis=1)
            probe = rng.randrange(1 << n)
            bits = np.array([(probe >> v) & 1 for v in range(n)], dtype=np.int64)
            total = 1 << n
            cuts = {0, total, *(rng.randrange(total + 1) for _ in range(3))}
            cuts = sorted(cuts | {e for e in edges if e < total})
            yield n, res, rj, int(bits @ res @ bits), int(bits @ rj), probe, cuts

    @staticmethod
    def tiers(monkeypatch):
        """Each SCAN_TIERS split in turn, set on the kernel module."""
        for low, inner in SCAN_TIERS:
            with monkeypatch.context() as m:
                m.setattr(kernels, "LOW_BITS", low)
                m.setattr(kernels, "INNER_BITS", inner)
                yield low, inner

    @pytest.mark.parametrize("use_j", [False, True])
    def test_shard_contract(self, monkeypatch, use_j):
        # every shard [i0, i1) gets the masks i0 <= b < i1 that the
        # brute-force oracle finds, from the int64 and the Python-int scan,
        # under every tier split, and the shards together give the whole range
        rng = random.Random(2024 + use_j)
        for n, res, rj, want_diag, want_j, probe, cuts in self.shard_cases(rng):
            args = (res, rj, want_diag, want_j, use_j)
            shards = [(i0, i1, self.reference(*args, i0, i1)) for i0, i1 in zip(cuts, cuts[1:])]
            for tier in self.tiers(monkeypatch):
                union = set()
                for i0, i1, ref in shards:
                    int64, exact = self.scans(*args, i0, i1)
                    assert int64 == exact == ref, (tier, n, i0, i1)
                    union.update(int64)
                assert probe in union
                assert sorted(union) == self.scans(*args, 0, 1 << n)[1]

    @pytest.mark.parametrize("use_j", [False, True])
    def test_python_int_scan_is_exact_beyond_int64(self, monkeypatch, use_j):
        # R, rj and both targets scaled by 2^80 keep the same hits under
        # every tier split; any cast of the Python-int path to int64 would
        # overflow and lose them
        scale = 1 << 80
        rng = random.Random(77 + use_j)
        for n, res, rj, want_diag, want_j, probe, cuts in self.shard_cases(rng):
            big_res = res.astype(object) * scale
            big_rj = rj.astype(object) * scale
            for tier in self.tiers(monkeypatch):
                for i0, i1 in zip(cuts, cuts[1:]):
                    int64, _ = self.scans(res, rj, want_diag, want_j, use_j, i0, i1)
                    exact = _subset_scan_exact(
                        big_res, big_rj, want_diag * scale, want_j * scale, use_j, i0, i1
                    )
                    assert sorted(exact) == int64, (tier, n, i0, i1)

    @pytest.mark.parametrize("use_j", [False, True])
    def test_int64_scan_at_the_overflow_edge(self, monkeypatch, use_j):
        # (n + 2)^2 max|R| just below ACCUMULATOR_LIMIT and targets up to
        # +-(ACCUMULATOR_LIMIT - 1), which int_dtype still accepts: every
        # intermediate stays within |target| + n^2 max|R| < 2^63, so the
        # int64 scan returns the masks of the Python-int scan and of the
        # brute-force oracle
        limit = kernels.ACCUMULATOR_LIMIT
        n = 11
        peak = (limit - 1) // (n + 2) ** 2
        assert (n + 2) ** 2 * (peak + 1) >= limit
        edge = np.full((n, n), peak, dtype=np.int64)
        assert kernels.int_dtype(edge, limit - 1, -(limit - 1)) is np.int64
        edge[0, 0] += 1
        assert kernels.int_dtype(edge) is object
        assert kernels.int_dtype(edge[:-1, :-1], limit) is object
        rng = random.Random(63 + use_j)
        # entries +-peak (peak - 1 on some of the diagonal) in the sign
        # pattern of one vertex against the rest, and its negation: forms
        # reach about +-(n - 1)^2 peak, over half the limit, and cancel too
        sign = [1] * n
        sign[rng.randrange(n)] = -1
        base = [[sign[i] * sign[j] * (peak - rng.randrange(2) * (i == j)) for j in range(n)]
                for i in range(n)]
        positive = sum(1 << v for v in range(n) if sign[v] > 0)
        for flip in (1, -1):
            sym = [[flip * v for v in row] for row in base]
            res = np.array(sym, dtype=np.int64)
            rj = res.sum(axis=1)
            forms = [sum(sym[a][b] for a in range(n) for b in range(n) if probe >> a & probe >> b & 1)
                     for probe in (positive, (1 << n) - 1)]
            assert flip * forms[0] > limit // 2
            want_j = int(rj[[v for v in range(n) if positive >> v & 1]].sum())
            for want_diag in (*forms, limit - 1, -(limit - 1), forms[0] - flip * peak):
                assert kernels.int_dtype(res, want_diag, want_j) is np.int64
                args = (res, rj, want_diag, want_j, use_j)
                ref = self.reference(*args)
                assert ref or want_diag not in forms[:1]
                for tier in self.tiers(monkeypatch):
                    int64, exact = self.scans(*args, 0, 1 << n)
                    assert int64 == exact == ref, (tier, flip, want_diag)


def test_backend_reports_something():
    # the benchmark reads these names; nothing is compiled
    assert kernels.BACKEND == "numpy"
    assert kernels.warmup() is None
