"""Star sets: verification certificates and search as row-matroid bases.

A star set for an eigenvalue mu of G is a vertex set X with |X| equal to the
multiplicity of mu and mu not an eigenvalue of H = G - X.  Writing the
adjacency matrix in block form ((A_X, B^T), (B, C)) with C = A(H), X is a
star set exactly when mu is missing from H's spectrum and

    mu I - A_X = B^T (mu I - C)^{-1} B.

verify_star_set returns a certificate as the JSON payload that the CLI
writes: the multiplicity comparison, the complement-spectrum check and the
residual identity as three separately evaluated exact checks, though the
residual is implied by the other two.  The multiplicity of mu in G is a
cached rank.  Each set costs one permuted slice of A, X first and then
V - X, each ascending: C is its trailing block, and its first |X| rows hold
A_X and B^T.  The complement check is the cached resolvent pair (R, D) of
linalg.resolvent_inverse, R = D (mu I - C)^{-1} with D mu integral: it
exists exactly when mu is not an eigenvalue of C, and C is ranked only when
it does not.  The residual D (mu I - A_X) = B^T R B is one product of 0/1
forms of R, in int64 when kernels.int_dtype, the subset scan's overflow
rule, proves that it fits, and in Python ints otherwise.

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
from typing import Sequence

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


def _scaled_residual(top: np.ndarray, mu: Fraction, r, den) -> np.ndarray:
    """D (mu I - A_X) - B^T R B from top = A[X, X + comp], zero exactly when the
    star-set identity holds, in the dtype kernels.int_dtype(R, D mu, D) chose."""
    k = len(top)
    d_mu = mu.numerator * den // mu.denominator  # exact: D mu is integral
    dtype = kernels.int_dtype(r, d_mu, den)
    top = top.astype(dtype)
    lhs = top[:, :k] * -den
    lhs.flat[:: k + 1] = d_mu  # D mu on the diagonal, where A_X is zero
    bt = top[:, k:]  # B^T = A[X, comp]
    return lhs - bt @ r.astype(dtype, copy=False) @ bt.T


def verify_star_set(g: Graph, mu, star_set: Sequence[int]) -> dict:
    """Evaluate all three star-set checks exactly; a set that is not a star set
    fails them, and a vertex that is not an integer or not in g raises ValueError.

    Returns the certificate's JSON payload {"graph", "mu", "X", "valid",
    "checks"}, valid being the conjunction of the three checks."""
    mu = Fraction(mu)
    star = vertex_set(g, star_set, "star set")
    k = len(star)
    multiplicity = eig_multiplicity(g, mu)
    order = np.array(star + tuple(sorted(set(range(g.n)).difference(star))), dtype=np.intp)
    p = g.adj.take(order, 0).take(order, 1)  # A with X first, then V - X
    complement = Graph._of(p[k:, k:].copy())  # the graph G - X, labelled in order
    try:
        r, den = resolvent_inverse(complement, mu)
    except SingularResolventError:
        # Only a failing certificate ranks the complement, for its report.
        comp_mult = eig_multiplicity(complement, mu)
        residual_zero = False
    else:
        comp_mult = 0
        residual_zero = not _scaled_residual(p[:k], mu, r, den).any()
    sizes_match = multiplicity == k
    return {
        "graph": write_graph6(g),
        "mu": format_rational(mu),
        "X": list(star),
        "valid": sizes_match and comp_mult == 0 and residual_zero,
        "checks": {
            "multiplicity": multiplicity,
            "sizes_match": sizes_match,
            "complement_ok": comp_mult == 0,
            "complement_multiplicity": comp_mult,
            "residual_zero": residual_zero,
        },
    }


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
