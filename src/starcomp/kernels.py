"""Integer hot-loop kernels: one subset scan, one overflow rule and one
Bareiss elimination.

Fraction-free (Bareiss) elimination over Python ints is exact for entries
of any size and, in pure Python, beats an interpreted int64 elimination.
Rank, inverse, null space and the main/non-main test share one Bareiss
echelon and one integer back-substitution (linalg._back_substitute).

The subset scan finds the masks b with b^T R b on target, for attachment
candidates, in one numpy pass with no matrix product: the form over the
low LOW_BITS and inner INNER_BITS bits of a mask is tabulated once by
doubling, and each pattern of the outer bits costs one add of a row to
that table and one compare against a column.  Its buffers take the dtype
of R, so the same code runs in int64, once int_dtype has proven that every
intermediate fits, and on object arrays of Python ints otherwise.  Every
range [i0, i1) of mask values yields the same set of masks in either
arithmetic.  The pair table C R' C^T of extend.build_compat_graph and the
star-set residual B^T R B take their dtype from the same int_dtype rule.
One call scans the whole space; the range stays in the signature for
perfbench/tracer.py, which reads it to count the masks each call scans.
"""

from __future__ import annotations

import numpy as np

# int_dtype allows int64 only when every partial form and target stays below
# this; its callers, the subset scan, the pair table of build_compat_graph
# and the star-set residual, use Python ints otherwise.
ACCUMULATOR_LIMIT = 1 << 62


def int_dtype(mat: np.ndarray, *targets: int):
    """np.int64 when the 0/1 forms of the integer matrix mat provably fit,
    object (Python ints) otherwise.

    A form u^T mat v with 0/1 vectors u, v of length n, and each partial sum
    on the way to it, adds at most n^2 entries of mat, so it is at most
    n^2 max|mat| in size.  The subset scan also compares partial forms
    against a target minus another partial form, so every intermediate it
    and the pair table hold obeys |target| + n^2 max|mat| < 2^63.  The rule
    keeps (n + 2)^2 max|mat|, with a margin over n^2 max|mat|, and every
    target below ACCUMULATOR_LIMIT = 2^62, which gives that bound.
    """
    n = mat.shape[0]
    peak = max(map(abs, mat.flat), default=0)
    if (n + 2) ** 2 * peak < ACCUMULATOR_LIMIT and all(
        abs(t) < ACCUMULATOR_LIMIT for t in targets
    ):
        return np.int64
    return object


# A mask b = (o << (L + I)) | (h << L) | l splits into its low L = LOW_BITS
# bits l, its inner I = INNER_BITS bits h and its outer bits o.  The table
# over (h, l) and each block buffer hold at most 2^(L + I) = 2^16 entries.
LOW_BITS = 10
INNER_BITS = 6


def _subset_scan_numpy(res, rj, want_diag, want_j, use_j, i0, i1):
    """Subset bitmasks b, i0 <= b < i1, with b^T res b == want_diag (and
    b.rj == want_j when use_j), as an int64 array in no fixed order.

    res is a symmetric int64 or object array and rj its row sums; every
    buffer takes res.dtype, so object arrays of Python ints stay exact.
    Disjoint ranges [i0, i1) partition the mask space.

    With b = (o << (L + I)) | (h << L) | l as above,
        b^T R b = P[h, l] + row_o[l] + col_o[h],
    where P[h, l] is the form of (h << L) | l, row_o[l] = q(o) + 2 o^T R l
    and col_o[h] = 2 o^T R h.  P is built by doubling: adding vertex v to
    a set S adds R[v, v] + 2 sum_{u in S} R[u, v], so each new bit costs
    one add over the half of the table it fills, with no product.  Each
    outer pattern o then costs one add of row_o to P, one compare against
    the column want_diag - col_o and one flatnonzero.  The <b, j> test runs
    on the hits only, as three table lookups.  Whole outer patterns are
    scanned, and hits outside [i0, i1) are dropped.
    """
    n = res.shape[0]
    if i1 <= i0:
        return np.empty(0, dtype=np.int64)
    low = min(n, LOW_BITS)
    split = min(n, low + INNER_BITS)
    # lin[l, v] = sum_{u in l} R[u, v]; q_low[l] = l^T R l; j_low[l] = l.rj
    lin = np.zeros((1 << low, n), dtype=res.dtype)
    q_low = np.zeros(1 << low, dtype=res.dtype)
    j_low = q_low.copy()
    for u in range(low):
        k = 1 << u
        q_low[k : 2 * k] = q_low[:k] + (2 * lin[:k, u] + res[u, u])
        j_low[k : 2 * k] = j_low[:k] + rj[u]
        lin[k : 2 * k] = lin[:k] + res[u]
    # the same over the inner bits h, with P[h, l] in place of q_low
    table = np.empty((1 << (split - low), 1 << low), dtype=res.dtype)
    table[0] = q_low
    inner = np.zeros((len(table), n), dtype=res.dtype)
    j_inner = np.zeros(len(table), dtype=res.dtype)
    for v in range(low, split):
        k = 1 << (v - low)
        np.add(table[:k], 2 * lin[:, v], out=table[k : 2 * k])
        table[k : 2 * k] += (2 * inner[:k, v] + res[v, v])[:, None]
        j_inner[k : 2 * k] = j_inner[:k] + rj[v]
        inner[k : 2 * k] = inner[:k] + res[v]
    lin_out = 2 * lin[:, split:]
    inner_out = 2 * inner[:, split:]
    vals = np.empty(table.shape, dtype=res.dtype)
    ok = np.empty(table.shape, dtype=bool)
    hits = []
    for o in range(i0 >> split, ((i1 - 1) >> split) + 1):
        on = [i for i in range(n - split) if o >> i & 1]
        verts = [split + i for i in on]
        np.add(table, lin_out[:, on].sum(axis=1) + res[np.ix_(verts, verts)].sum(), out=vals)
        col = want_diag - inner_out[:, on].sum(axis=1)
        masks = np.flatnonzero(np.equal(vals, col[:, None], out=ok)) + (o << split)
        masks = masks[(masks >= i0) & (masks < i1)]
        if use_j:
            l, h = masks & ((1 << low) - 1), (masks >> low) & (len(table) - 1)
            masks = masks[j_low[l] + j_inner[h] + rj[verts].sum() == want_j]
        hits.append(masks)
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
