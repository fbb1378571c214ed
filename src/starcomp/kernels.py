"""Integer hot-loop kernels: one subset scan and one Bareiss elimination.

Fraction-free (Bareiss) elimination over Python ints is exact for entries
of any size and, in pure Python, beats an interpreted int64 elimination.
Rank, inverse, null space and the main/non-main test share one Bareiss
echelon and one integer back-substitution (linalg._back_substitute).

The subset scan finds the masks b with b^T R b on target, for attachment
candidates, in one split-half numpy pass: the quadratic form is
tabulated over the low LOW_BITS bits once and combined with blocks of high
patterns by one small matrix product each.  Its buffers take the dtype of R,
so the same code runs in int64, once the caller has proven that every
accumulator stays below ACCUMULATOR_LIMIT, and on object arrays of Python
ints otherwise.  Every range [i0, i1) of mask values yields the same set
of masks in either arithmetic.  The engine scans the whole space in one
call; the range stays in the signature because perfbench/tracer.py reads
it to count the masks each call scans.
"""

from __future__ import annotations

import numpy as np

# Callers run the subset scan in int64 only when they have proven that every
# accumulator and target stays below this; otherwise they pass Python ints.
ACCUMULATOR_LIMIT = 1 << 62

# Split-half numpy scan: the low LOW_BITS bits are tabulated once and
# HIGH_BLOCK high patterns are scanned per block, so the per-block buffers
# hold at most 2^LOW_BITS * HIGH_BLOCK = 2^16 entries.
LOW_BITS = 10
HIGH_BLOCK = 64


def _subset_scan_numpy(res, rj, want_diag, want_j, use_j, i0, i1):
    """Subset bitmasks b, i0 <= b < i1, with b^T res b == want_diag (and
    b.rj == want_j when use_j), as an int64 array in no fixed order.

    res is a symmetric int64 or object array and rj its row sums; every
    buffer takes res.dtype, so object arrays of Python ints stay exact.
    Disjoint ranges [i0, i1) partition the mask space.

    A mask b = h 2^L + l splits into its low L = min(n, LOW_BITS) bits l and
    its high bits h, so that
        b^T R b = q_L(l) + q_H(h) + 2 h^T R_HL l,    b.rj = j_L(l) + j_H(h).
    q_L, j_L and W = 2 R_HL B_L^T are tabulated once over all 2^L low
    patterns (column l holds the pattern l).  A block of HIGH_BLOCK high
    patterns then costs one matmul B_H @ W, an outer sum and a compare:
    O(n - L) work per mask.  The <b, j> test runs on the hits of the
    quadratic test only.  Whole aligned blocks are computed, and hits
    outside [i0, i1) are dropped.
    """
    n = res.shape[0]
    if i1 <= i0:
        return np.empty(0, dtype=np.int64)
    low = min(n, LOW_BITS)
    b_low = (np.arange(1 << low, dtype=np.int64)[:, None] >> np.arange(low)) & 1
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
        b_high = (c[:, None] >> high_shifts) & 1
        v = np.matmul(b_high, w, out=vals[: len(c)])
        v += q_low
        v += np.einsum("ij,jk,ik->i", b_high, res[low:, low:], b_high)[:, None]
        rows, col = np.nonzero(np.equal(v, want_diag, out=ok[: len(c)]))
        masks = (c[rows] << low) | col
        keep = (masks >= i0) & (masks < i1)
        if use_j:
            keep &= j_low[col] + (b_high @ rj[low:])[rows] == want_j
        hits.append(masks[keep])
    return np.concatenate(hits)


# The name int64 callers scan through.
subset_scan_int64 = _subset_scan_numpy


def _bareiss(m: list[list[int]], pivot_cols: int) -> list[int]:
    """Fraction-free forward elimination of an integer row list, in place:
    the one echelon form behind every rank, inverse, null space and
    main/non-main test.

    Pivots are sought in the first `pivot_cols` columns; later columns are
    carried along.  Every division is exact, so entries stay Python ints.
    Returns the pivot columns, top row first: their count is the rank.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    prev = 1
    pivots: list[int] = []
    for c in range(pivot_cols):
        if (r := len(pivots)) == nr:
            break
        p = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
        piv = m[r][c]
        for i in range(r + 1, nr):
            mic = m[i][c]
            row_i, row_r = m[i], m[r]
            for j in range(c + 1, nc):
                row_i[j] = (row_i[j] * piv - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        pivots.append(c)
    return pivots


# perfbench/tracer.py wraps this name to count rank calls.
def try_int_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer row list: Bareiss over Python ints on a copy."""
    if not rows or not rows[0]:
        return 0
    return len(_bareiss([r[:] for r in rows], len(rows[0])))


# perfbench/child.py reads BACKEND and calls warmup(); nothing is compiled.
BACKEND = "numpy"


def warmup():
    """No-op: there is no kernel to compile."""
