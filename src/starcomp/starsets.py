"""Star sets: verification certificates and search as row-matroid bases.

A star set for an eigenvalue mu of G is a vertex set X with |X| equal to the
multiplicity of mu and mu not an eigenvalue of H = G - X.  Writing the
adjacency matrix in block form ((A_X, B^T), (B, C)) with C = A(H), X is a
star set exactly when mu is missing from H's spectrum and

    mu I - A_X = B^T (mu I - C)^{-1} B.

verify_star_set certifies the sets of one (G, mu) in one call, each as the
JSON payload that the CLI writes: the multiplicity comparison, the
complement-spectrum check and the residual identity as three separately
evaluated exact checks, though the residual is implied by the other two.
The multiplicity of mu in G is one cached rank per call.  Each set costs one
permuted slice of A, X first and then V - X, each ascending: C is its
trailing block, and its first |X| rows hold A_X and B^T.  Each distinct C
costs one cached resolvent pair (R, D) of linalg.resolvent_inverse, which
exists exactly when mu is not an eigenvalue of C (C is ranked only then),
and one call of kernels.int_dtype, the subset scan's overflow rule.  Up to
STACK_SETS residuals D (mu I - A_X) - B^T R B of one size are one stacked
product, in int64 when every R in it fits, in Python ints otherwise.

The search enumerates the bases of the row matroid of an exact integer
eigenspace basis U: X is a star set exactly when the row-minor U[X] is
nonsingular (Cvetkovic, Rowlinson & Simic, Eigenspaces of Graphs, 1997,
ch. 7).  U, with the multiplicity as its column count, comes from the one
Bareiss echelon and integer back-substitution that rank, inverse, null
space and the main/non-main test share; its rows are reduced fraction-free.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .graphs import Graph, vertex_set, write_graph6
from .linalg import (
    PreconditionError,
    SingularResolventError,
    _null_space,
    _shifted_int_matrix,
    eig_multiplicity,
    format_rational,
    resolvent_inverse,
)

# _int_rank is not called here; perfbench/tracer.py wraps starsets._int_rank
# in every traced run, so the name stays importable from this module.
_int_rank = kernels.try_int_rank

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """A search would take more subsets, masks or cliques than the budget allows."""


# At most this many sets share one stacked residual product, which bounds its
# scratch memory however many sets one call certifies.
STACK_SETS = 256


def _complement_record(h: Graph, mu: Fraction) -> tuple[int, tuple | None]:
    """(multiplicity of mu in H, (D, D mu, R, R as int64 if kernels.int_dtype
    allows)), the record None when mu is an eigenvalue of H, which is then ranked."""
    try:
        r, den = resolvent_inverse(h, mu)
    except SingularResolventError:
        return eig_multiplicity(h, mu), None
    d_mu = mu.numerator * den // mu.denominator  # exact: D mu is integral
    fits = kernels.int_dtype(r, d_mu, den) is np.int64
    return 0, (den, d_mu, r, r.astype(np.int64) if fits else None)


def _scaled_residuals(tops: np.ndarray, records) -> np.ndarray:
    """D (mu I - A_X) - B^T R B for sets X of one size, zero exactly where the
    star-set identity holds, from tops[i] = A[X, X + comp] and the records of
    the complements: in int64 when every R has an int64 copy, else Python ints."""
    k = tops.shape[1]
    den, d_mu, r, fast = zip(*records)
    dtype, r = (object, r) if any(f is None for f in fast) else (np.int64, fast)
    if all(x is records[0] for x in records):  # one complement: broadcast it
        den, d_mu, r = den[0], d_mu[0], r[0]
    else:  # np.array stacks faster than np.stack
        den, r = np.array(den, dtype=dtype)[:, None, None], np.array(r, dtype=dtype)
        d_mu = np.array(d_mu, dtype=dtype)[:, None]
    tops = tops.astype(dtype)
    lhs = np.multiply(tops[:, :, :k], -den, order="C")  # C order: reshape is a view
    lhs.reshape(len(lhs), -1)[:, :: k + 1] = d_mu  # D mu on the diagonal, where A_X is zero
    bt = tops[:, :, k:]  # B^T = A[X, comp]
    return lhs - bt @ r @ bt.transpose(0, 2, 1)


def verify_star_set(g: Graph, mu, star_sets: Iterable[Sequence[int]]) -> list[dict]:
    """Certificates {"graph", "mu", "X", "valid", "checks"} of the vertex sets
    star_sets of g at mu, in input order; valid is the conjunction of three
    exact checks.  A vertex that is not an integer or not in g raises ValueError."""
    mu = Fraction(mu)
    multiplicity = eig_multiplicity(g, mu)
    graph6, mu_text = write_graph6(g), format_rational(mu)
    complements = {}  # (|X|, complement bytes) -> _complement_record
    pending: dict[int, list] = {}  # |X| -> [(certificate, A[X, X + comp], record)]
    certs = []

    def flush(batch: list) -> None:
        waiting, tops, records = zip(*batch)
        nonzero = _scaled_residuals(np.array(tops), records).any((1, 2))
        for cert, bad in zip(waiting, nonzero.tolist()):
            cert["checks"]["residual_zero"] = not bad
            cert["valid"] = cert["checks"]["sizes_match"] and not bad
        batch.clear()

    for star_set in star_sets:
        star = vertex_set(g, star_set, "star set")
        k = len(star)
        order = np.array(star + tuple(sorted(set(range(g.n)).difference(star))), dtype=np.intp)
        p = g.adj.take(order, 0).take(order, 1)  # A with X first, then V - X
        block = p[k:, k:].copy()  # the graph G - X, labelled in order
        key = (k, block.tobytes())
        if key not in complements:
            complements[key] = _complement_record(Graph._of(block), mu)
        comp_mult, record = complements[key]
        checks = {"multiplicity": multiplicity, "sizes_match": multiplicity == k,
                  "complement_ok": comp_mult == 0, "complement_multiplicity": comp_mult,
                  "residual_zero": False}  # flush sets it and "valid"
        certs.append({"graph": graph6, "mu": mu_text, "X": list(star), "valid": False,
                      "checks": checks})
        if record is not None:
            batch = pending.setdefault(k, [])
            if len(batch) == STACK_SETS:
                flush(batch)
            batch.append((certs[-1], p[:k], record))
    for batch in pending.values():
        flush(batch)
    return certs


def _eliminate(row: list[int], pivot_row: list[int], col: int) -> list[int] | None:
    """pivot_row[col] row - row[col] pivot_row, which clears column col,
    divided by its content; None when it is zero."""
    p, f = pivot_row[col], row[col]
    row = [p * x - f * y for x, y in zip(row, pivot_row)]
    content = gcd(*row)
    if not content:
        return None
    return [x // content for x in row] if content > 1 else row


def find_star_sets(g: Graph, mu, budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """All star sets for mu, in lexicographic order: the row-matroid bases
    of an exact eigenspace basis.

    With U an n x k integer basis of the null space of qA - pI (k, its
    column count, the multiplicity of mu = p/q), X is a star set exactly
    when the k x k row-minor U[X] is nonsingular.  The search takes vertices
    in ascending order, depth first, and carries every later vertex's row
    reduced against the rows chosen so far; a vertex whose row reduces to
    zero is dropped, so no dependent partial set is extended, and a branch
    stops once fewer independent vertices are left than it still needs.
    Refuses up front if C(n, k) exceeds the budget.
    """
    mu = Fraction(mu)
    basis = _null_space(_shifted_int_matrix(g, mu))
    k = len(basis[0]) if basis else 0
    if k == 0:
        raise PreconditionError(
            f"{format_rational(mu)} is not an eigenvalue; no star set exists"
        )
    total = comb(g.n, k)
    if total > budget:
        raise BudgetExceededError(
            f"C({g.n},{k}) = {total} subsets exceeds budget {budget}"
        )
    # Depth first with an explicit stack, so k is not bounded by the
    # recursion limit.  A frame is (star, rows, i): rows holds each later
    # vertex whose row, reduced against star's rows, is nonzero, in
    # ascending order, and rows[i] is the next vertex to try adding.
    hits: list[tuple[int, ...]] = []
    stack = [((), [(v, row) for v, row in enumerate(basis) if any(row)], 0)]
    while stack:
        star, rows, i = stack.pop()
        need = k - len(star) - 1  # vertices still to choose after rows[i]
        if not need:  # every vertex left completes a basis
            hits.extend(star + (v,) for v, _ in rows)
            continue
        if i + need >= len(rows):  # too few independent vertices left
            continue
        stack.append((star, rows, i + 1))
        v, row = rows[i]
        col = next(c for c, x in enumerate(row) if x)
        rest = []
        for w, other in rows[i + 1:]:
            if other[col]:
                other = _eliminate(other, row, col)
                if other is None:
                    continue
            rest.append((w, other))
        stack.append((star + (v,), rest, 0))
    return hits
