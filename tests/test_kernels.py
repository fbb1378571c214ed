import random
from fractions import Fraction

import numpy as np
import pytest

from starcomp import kernels, rank
from starcomp.kernels import (
    ENTRY_LIMIT,
    _rank_bareiss_loops,
    _subset_scan_loops,
    _subset_scan_numpy,
    try_int_rank,
)


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

    def reference(self, res, rj, want_diag, want_j, use_j):
        n = res.shape[0]
        hits = []
        for mask in range(1 << n):
            bits = [(mask >> v) & 1 for v in range(n)]
            val = sum(
                bits[i] * bits[j] * int(res[i, j]) for i in range(n) for j in range(n)
            )
            jv = sum(bits[i] * int(rj[i]) for i in range(n))
            if val == want_diag and (not use_j or jv == want_j):
                hits.append(mask)
        return sorted(hits)

    @pytest.mark.parametrize("use_j", [False, True])
    def test_backends_agree(self, use_j):
        rng = random.Random(9)
        for _ in range(12):
            n = rng.randint(1, 9)
            res, rj = self.build_case(rng, n)
            want_diag = rng.randint(-20, 20)
            want_j = rng.randint(-20, 20)
            ref = self.reference(res, rj, want_diag, want_j, use_j)
            total = 1 << n
            loops = sorted(
                int(m)
                for m in _subset_scan_loops(
                    res, rj, np.int64(want_diag), np.int64(want_j), use_j, 0, total
                )
            )
            vec = sorted(
                int(m)
                for m in _subset_scan_numpy(
                    res, rj, np.int64(want_diag), np.int64(want_j), use_j, 0, total
                )
            )
            assert loops == vec == ref

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
        out = _subset_scan_numpy(res, rj, np.int64(1), np.int64(0), False, 5, 5)
        assert len(out) == 0


def test_backend_reports_something():
    assert kernels.BACKEND in {"numba", "numpy"}
