"""Integer hot-loop kernels: one subset scan, and a rank compiled by numba.

Two kernels dominate search runtime: fraction-free (Bareiss) rank of small
integer matrices, used for "is mu an eigenvalue of G - X" tests inside
subset searches, and a scan over all vertex subsets for the masks b with
b^T R b on target, used for attachment-candidate enumeration.

The subset scan is one split-half numpy pass: the quadratic form is
tabulated over the low LOW_BITS bits once and combined with blocks of high
patterns by one small matrix product each.  Its buffers take the dtype of R,
so the same code runs in int64, once the caller has proven that every
accumulator stays below ACCUMULATOR_LIMIT, and on object arrays of Python
ints otherwise.  Each shard [i0, i1) of the Gray-code index space yields the
same set of masks in either arithmetic.

The rank kernel works in int64 and is exact only while every stored entry
stays within ENTRY_LIMIT; it bails out (returns -1) the moment an
intermediate minor would leave the certified range, and callers then redo the
computation with Python big integers.  numba, when it imports, compiles it.
Without numba there is no int64 rank at all - try_int_rank returns None and
callers use big-integer Bareiss, which in pure Python beats an interpreted
int64 elimination.
"""

from __future__ import annotations

import numpy as np

# Entries bounded by 2^30 keep Bareiss cross products below 2^61, so the
# int64 arithmetic (one product minus another, then an exact division) is
# overflow-free.
ENTRY_LIMIT = 1 << 30

# Callers run the subset scan in int64 only when they have proven that every
# accumulator and target stays below this; otherwise they pass Python ints.
ACCUMULATOR_LIMIT = 1 << 62

# Split-half numpy scan: the low LOW_BITS bits are tabulated once and
# HIGH_BLOCK high patterns are scanned per block, so the per-block buffers
# hold at most 2^LOW_BITS * HIGH_BLOCK = 2^16 entries.
LOW_BITS = 10
HIGH_BLOCK = 64


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


def _subset_scan_numpy(res, rj, want_diag, want_j, use_j, i0, i1):
    """Subset bitmasks b = gray(i), i0 <= i < i1, with b^T res b == want_diag
    (and b.rj == want_j when use_j), as an int64 array in no fixed order.

    res is a symmetric int64 or object array and rj its row sums; every
    buffer takes res.dtype, so object arrays of Python ints stay exact.
    Disjoint ranges [i0, i1) partition the mask space, so the scan can be
    sharded across workers.

    A mask b splits into its low L = min(n, LOW_BITS) bits l and its high
    bits h, so that
        b^T R b = q_L(l) + q_H(h) + 2 h^T R_HL l,    b.rj = j_L(l) + j_H(h).
    q_L, j_L and W = 2 R_HL B_L^T are tabulated once over all 2^L low
    patterns, taken in Gray order (column r holds l = gray_L(r)).  A block of
    HIGH_BLOCK high patterns then costs one matmul B_H @ W, an outer
    sum and a compare: O(n - L) work per mask.  The <b, j> test runs on the
    hits of the quadratic test only.

    For i = c 2^L + r, gray(i) has high part gray(c) and low part
    gray_L(r) ^ ((c & 1) << (L - 1)) = gray_L(r ^ (c & 1) (2^L - 1)), so
    each high index c meets every column once.  Whole aligned blocks are
    computed; each hit is mapped back to its index i and those outside
    [i0, i1) are dropped.
    """
    n = res.shape[0]
    if i1 <= i0:
        return np.empty(0, dtype=np.int64)
    low = min(n, LOW_BITS)
    all_low = (1 << low) - 1
    cols = np.arange(1 << low, dtype=np.int64)
    pats = cols ^ (cols >> 1)
    b_low = (pats[:, None] >> np.arange(low)) & 1
    q_low = np.einsum("ij,jk,ik->i", b_low, res[:low, :low], b_low)
    j_low = b_low @ rj[:low]
    w = np.ascontiguousarray(2 * (b_low @ res[:low, low:]).T)
    high_shifts = np.arange(n - low, dtype=np.int64)
    c_start, c_end = i0 >> low, ((i1 - 1) >> low) + 1
    vals = np.empty((min(HIGH_BLOCK, c_end - c_start), 1 << low), dtype=res.dtype)
    ok = np.empty(vals.shape, dtype=bool)
    hits = []
    for c0 in range(c_start, c_end, HIGH_BLOCK):
        c = np.arange(c0, min(c0 + HIGH_BLOCK, c_end), dtype=np.int64)
        high = c ^ (c >> 1)
        b_high = (high[:, None] >> high_shifts) & 1
        v = np.matmul(b_high, w, out=vals[: len(c)])
        v += q_low
        v += np.einsum("ij,jk,ik->i", b_high, res[low:, low:], b_high)[:, None]
        rows, col = np.nonzero(np.equal(v, want_diag, out=ok[: len(c)]))
        cc = c[rows]
        idx = (cc << low) | (col ^ ((cc & 1) * all_low))
        keep = (idx >= i0) & (idx < i1)
        if use_j:
            keep &= j_low[col] + (b_high @ rj[low:])[rows] == want_j
        hits.append(((high[rows] << low) | pats[col])[keep])
    return np.concatenate(hits)


# The name int64 callers scan through.
subset_scan_int64 = _subset_scan_numpy

try:
    from numba import njit
except ImportError:  # numba is the optional "fast" extra
    rank_int64 = None
    BACKEND = "numpy"
else:
    rank_int64 = njit(cache=True, nogil=True)(_rank_bareiss_loops)
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
    """Trigger JIT compilation of the rank kernel (no-op on the numpy backend)."""
    if BACKEND == "numba":
        rank_int64(np.array([[1, 0], [0, 1]], dtype=np.int64))
