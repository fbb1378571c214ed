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


def gray(i):
    return i ^ (i >> 1)


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
        """Brute force over the masks gray(i), i0 <= i < i1, sorted."""
        n = res.shape[0]
        hits = []
        for i in range(i0, (1 << n) if i1 is None else i1):
            mask = gray(i)
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
        and shard cuts at random indices that straddle the split-half blocks."""
        for n in range(1, 15):
            res, rj = self.build_case(rng, n)
            res //= 3
            rj = res.sum(axis=1)
            probe = rng.randrange(1 << n)
            bits = np.array([(probe >> v) & 1 for v in range(n)], dtype=np.int64)
            total = 1 << n
            cuts = sorted({0, total, *(rng.randrange(total + 1) for _ in range(3))})
            yield n, res, rj, int(bits @ res @ bits), int(bits @ rj), probe, cuts

    @pytest.mark.parametrize("use_j", [False, True])
    def test_shard_contract(self, use_j):
        # every shard [i0, i1) gets the masks gray(i), i0 <= i < i1, that the
        # brute-force oracle finds, from the int64 and the Python-int scan,
        # and the shards together give the whole range
        rng = random.Random(2024 + use_j)
        for n, res, rj, want_diag, want_j, probe, cuts in self.shard_cases(rng):
            args = (res, rj, want_diag, want_j, use_j)
            union = set()
            for i0, i1 in zip(cuts, cuts[1:]):
                int64, exact = self.scans(*args, i0, i1)
                assert int64 == exact == self.reference(*args, i0, i1), (n, i0, i1)
                union.update(int64)
            assert probe in union
            assert sorted(union) == self.scans(*args, 0, 1 << n)[1]

    @pytest.mark.parametrize("use_j", [False, True])
    def test_python_int_scan_is_exact_beyond_int64(self, use_j):
        # R, rj and both targets scaled by 2^80 keep the same hits; any cast
        # of the Python-int path to int64 would overflow and lose them
        scale = 1 << 80
        rng = random.Random(77 + use_j)
        for n, res, rj, want_diag, want_j, probe, cuts in self.shard_cases(rng):
            big_res = res.astype(object) * scale
            big_rj = rj.astype(object) * scale
            for i0, i1 in zip(cuts, cuts[1:]):
                int64, _ = self.scans(res, rj, want_diag, want_j, use_j, i0, i1)
                exact = _subset_scan_exact(
                    big_res, big_rj, want_diag * scale, want_j * scale, use_j, i0, i1
                )
                assert sorted(exact) == int64, (n, i0, i1)


def test_backend_reports_something():
    # the benchmark reads these names; nothing is compiled
    assert kernels.BACKEND == "numpy"
    assert kernels.warmup() is None
