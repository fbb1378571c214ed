"""Integer hot-loop kernels: numba-compiled when numba imports, numpy otherwise.

Two kernels dominate search runtime: fraction-free (Bareiss) rank of small
integer matrices, used for "is mu an eigenvalue of G - X" tests inside
subset searches, and a Gray-code scan over all vertex subsets evaluating the
scaled quadratic form b^T R b, used for attachment-candidate enumeration.

Both kernels work in int64 and are exact only while every stored entry stays
within ENTRY_LIMIT; the rank kernel bails out (returns -1) the moment an
intermediate minor would leave the certified range, and callers then redo the
computation with Python big integers.  The subset kernel is only entered when
the caller has proven an a-priori magnitude bound.

Backend: numba when it imports.  Without it the subset scan runs as a
blockwise numpy pass, and there is no int64 rank at all - try_int_rank
returns None and callers use big-integer Bareiss, which in pure Python beats
an interpreted int64 elimination.  Results are bit-identical across backends.
"""

from __future__ import annotations

import numpy as np

# Entries bounded by 2^30 keep Bareiss cross products below 2^61, so the
# int64 arithmetic (one product minus another, then an exact division) is
# overflow-free.
ENTRY_LIMIT = 1 << 30

# Subset-scan accumulators stay below n * ENTRY_LIMIT * n; callers must check
# against this before dispatching masks to the int64 path.
ACCUMULATOR_LIMIT = 1 << 62


def _rank_bareiss_loops(m):
    """Fraction-free rank of an int64 matrix; -1 if entries leave the safe range."""
    rows, cols = m.shape
    for i in range(rows):
        for j in range(cols):
            v = m[i, j]
            if v > ENTRY_LIMIT or v < -ENTRY_LIMIT:
                return -1
    prev = np.int64(1)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        p = -1
        for i in range(r, rows):
            if m[i, c] != 0:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            for j in range(cols):
                tmp = m[r, j]
                m[r, j] = m[p, j]
                m[p, j] = tmp
        piv = m[r, c]
        for i in range(r + 1, rows):
            mic = m[i, c]
            for j in range(c + 1, cols):
                v = (m[i, j] * piv - mic * m[r, j]) // prev
                if v > ENTRY_LIMIT or v < -ENTRY_LIMIT:
                    return -1
                m[i, j] = v
            m[i, c] = 0
        prev = piv
        r += 1
    return r


def _subset_scan_loops(res, rj, want_diag, want_j, use_j, i0, i1):
    """Collect subset bitmasks b with b^T res b == want_diag (and b.rj == want_j).

    Walks masks in Gray-code order gray(i) = i ^ (i >> 1) for i in [i0, i1),
    maintaining w = res @ b and the quadratic form incrementally; a single bit
    flip updates both in O(n).  Disjoint i-ranges partition the full mask
    space, so the scan can be sharded across workers.
    """
    n = res.shape[0]
    g = i0 ^ (i0 >> 1)
    w = np.zeros(n, dtype=np.int64)
    val = np.int64(0)
    jval = np.int64(0)
    for v in range(n):
        if (g >> v) & 1:
            val += 2 * w[v] + res[v, v]
            for u in range(n):
                w[u] += res[u, v]
            jval += rj[v]
    out = np.empty(i1 - i0, dtype=np.int64)
    cnt = 0
    i = i0
    while True:
        if val == want_diag and (not use_j or jval == want_j):
            out[cnt] = g
            cnt += 1
        i += 1
        if i >= i1:
            break
        gn = i ^ (i >> 1)
        flip = gn ^ g
        v = 0
        while not (flip >> v) & 1:
            v += 1
        if (gn >> v) & 1:
            val += 2 * w[v] + res[v, v]
            for u in range(n):
                w[u] += res[u, v]
            jval += rj[v]
        else:
            val += -2 * w[v] + res[v, v]
            for u in range(n):
                w[u] -= res[u, v]
            jval -= rj[v]
        g = gn
    return out[:cnt].copy()


def _subset_scan_numpy(res, rj, want_diag, want_j, use_j, i0, i1):
    """Blockwise vectorized twin of _subset_scan_loops."""
    n = res.shape[0]
    shifts = np.arange(n, dtype=np.int64)
    hits = []
    block = 1 << 14
    for lo in range(i0, i1, block):
        hi = min(lo + block, i1)
        idx = np.arange(lo, hi, dtype=np.int64)
        g = idx ^ (idx >> 1)
        bits = (g[:, None] >> shifts) & 1
        vals = np.einsum("ij,jk,ik->i", bits, res, bits)
        ok = vals == want_diag
        if use_j:
            ok &= (bits @ rj) == want_j
        hits.append(g[ok])
    if not hits:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(hits)


try:
    from numba import njit
except ImportError:  # numba is the optional "fast" extra
    rank_int64 = None
    subset_scan_int64 = _subset_scan_numpy
    BACKEND = "numpy"
else:
    rank_int64 = njit(cache=True, nogil=True)(_rank_bareiss_loops)
    subset_scan_int64 = njit(cache=True, nogil=True)(_subset_scan_loops)
    BACKEND = "numba"


def try_int_rank(rows):
    """Rank of an integer matrix via the int64 kernel, or None if out of range.

    `rows` is a sequence of sequences of Python ints.  Returns None on the
    numpy backend, when the input entries already exceed ENTRY_LIMIT, or when
    the kernel bails out because an intermediate minor would; the caller then
    falls back to exact big-integer elimination.
    """
    if rank_int64 is None:
        return None
    if not rows or not rows[0]:
        return 0
    for row in rows:
        for v in row:
            if v > ENTRY_LIMIT or v < -ENTRY_LIMIT:
                return None
    m = np.array(rows, dtype=np.int64)
    r = rank_int64(m)
    return None if r < 0 else int(r)


def warmup():
    """Trigger JIT compilation of both kernels (no-op on the numpy backend)."""
    if BACKEND != "numba":
        return
    rank_int64(np.array([[1, 0], [0, 1]], dtype=np.int64))
    subset_scan_int64(
        np.zeros((2, 2), dtype=np.int64),
        np.zeros(2, dtype=np.int64),
        np.int64(1),
        np.int64(0),
        True,
        0,
        4,
    )
