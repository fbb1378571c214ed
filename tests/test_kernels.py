import random
from fractions import Fraction

import numpy as np
import pytest

from starcomp import kernels, rank
from starcomp.extend import _subset_scan_exact
from starcomp.kernels import ENTRY_LIMIT, _rank_bareiss_loops, try_int_rank


def fraction_rank(rows):
    """Reference rank via plain Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nr:
            break
    return r


def random_int_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


class TestRankKernels:
    def test_backends_agree_with_reference(self):
        # the kernel loops (interpreted here, compiled under numba) and the
        # public rank both match plain Fraction elimination
        rng = random.Random(5)
        for _ in range(60):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = random_int_matrix(rng, rows, cols)
            expected = fraction_rank(m)
            assert _rank_bareiss_loops(np.array(m, dtype=np.int64)) == expected
            assert rank(m) == expected
            if kernels.rank_int64 is not None:
                assert kernels.rank_int64(np.array(m, dtype=np.int64)) == expected

    def test_rank_deficient(self):
        m = [[1, 2, 3], [2, 4, 6], [0, 0, 0]]
        assert _rank_bareiss_loops(np.array(m, dtype=np.int64)) == 1
        assert rank(m) == 1

    def test_bailout_on_large_entries(self):
        big = ENTRY_LIMIT + 1
        m = np.array([[big, 0], [0, 1]], dtype=np.int64)
        assert _rank_bareiss_loops(m.copy()) == -1

    def test_try_int_rank_falls_back_to_none(self):
        assert try_int_rank([[ENTRY_LIMIT * 2, 0], [0, 1]]) is None
        if kernels.BACKEND == "numba":
            assert try_int_rank([[1, 0], [0, 1]]) == 2
            assert try_int_rank([]) == 0

    def test_numpy_backend_has_no_int64_rank(self):
        # without numba every rank goes to big-integer Bareiss, still exact
        if kernels.BACKEND != "numpy":
            pytest.skip("numba backend compiles an int64 rank")
        assert kernels.rank_int64 is None
        assert try_int_rank([[1, 0], [0, 1]]) is None
        rng = random.Random(8)
        for _ in range(20):
            m = random_int_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
            assert try_int_rank(m) is None
            assert rank(m) == fraction_rank(m)

    def test_public_rank_exact_on_huge_entries(self):
        # big-int fallback must agree with the rational reference
        rng = random.Random(31)
        shift = 10**30
        m = [
            [rng.randint(-3, 3) * shift + rng.randint(-3, 3) for _ in range(5)]
            for _ in range(5)
        ]
        assert rank(m) == fraction_rank(m)

    def test_growth_triggers_internal_bailout(self):
        # entries below the limit whose minors overflow it: kernel gives up,
        # the public path stays exact
        rng = random.Random(77)
        base = ENTRY_LIMIT - 7
        m = [[rng.randint(base - 40, base) for _ in range(6)] for _ in range(6)]
        got = try_int_rank(m)
        assert got is None or got == fraction_rank(m)
        assert rank(m) == fraction_rank(m)


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
    assert kernels.BACKEND in {"numba", "numpy"}
