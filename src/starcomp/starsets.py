"""Star sets: verification certificates, search as row-matroid bases, and eigenspace bases.

A star set for an eigenvalue mu of G is a vertex set X with |X| equal to the
multiplicity of mu and mu not an eigenvalue of H = G - X.  Writing the
adjacency matrix in block form ((A_X, B^T), (B, C)) with C = A(H), X is a
star set exactly when mu is missing from H's spectrum and

    mu I - A_X = B^T (mu I - C)^{-1} B.

Certificates record the multiplicity comparison, the complement-spectrum
check, and the residual identity as three separately evaluated exact
checks, even though the residual is implied by the other two.  The
multiplicity of mu in G is a rank.  The complement check is the cached
resolvent pair (R, D) of linalg.resolvent_inverse, R = D (mu I - C)^{-1}
with D mu integral: it exists exactly when mu is not an eigenvalue of C,
and the complement is ranked only when it does not, to report its
multiplicity.  The residual is evaluated in integers from the same pair:
the identity reads D (mu I - A_X) = B^T R B.  Each entry of B^T R B is a
0/1 form of R, so the product runs in int64 when kernels.int_dtype, the
subset scan's overflow rule, proves that it fits, and in Python ints otherwise.

The search enumerates the bases of the row matroid of an exact integer
eigenspace basis U: X is a star set exactly when the row-minor U[X] is
nonsingular (Cvetkovic, Rowlinson & Simic, Eigenspaces of Graphs, 1997,
ch. 7).  U, with the multiplicity as its column count, comes from the one
Bareiss echelon and integer back-substitution that rank, inverse, null
space and the main/non-main test share; its rows are reduced fraction-free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Sequence

import numpy as np

from . import kernels
from .graphs import Graph, induced_subgraph, vertex_set, write_graph6
from .linalg import (
    NotAnEigenvalueError,
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


class InvalidStarSetError(ValueError):
    """The operation requires a valid star set and got something else."""

    def __init__(self, certificate: "StarSetCertificate"):
        super().__init__(
            f"{sorted(certificate.star_set)} is not a star set for "
            f"mu={format_rational(certificate.mu)}"
        )
        self.certificate = certificate


@dataclass(frozen=True)
class StarSetCertificate:
    """Machine-checkable evidence that X is (or is not) a star set for mu."""

    graph: Graph
    mu: Fraction
    star_set: tuple[int, ...]
    multiplicity: int
    complement_multiplicity: int
    sizes_match: bool
    complement_ok: bool
    residual_zero: bool

    @property
    def valid(self) -> bool:
        return self.sizes_match and self.complement_ok and self.residual_zero

    def to_json(self) -> dict:
        return {
            "graph": write_graph6(self.graph),
            "mu": format_rational(self.mu),
            "X": list(self.star_set),
            "valid": self.valid,
            "checks": {
                "multiplicity": self.multiplicity,
                "sizes_match": self.sizes_match,
                "complement_ok": self.complement_ok,
                "complement_multiplicity": self.complement_multiplicity,
                "residual_zero": self.residual_zero,
            },
        }

    def __str__(self) -> str:
        return json.dumps(self.to_json())


def _scaled_residual(g: Graph, mu: Fraction, star, comp, r, den) -> np.ndarray:
    """D (mu I - A_X) - B^T R B with B = A[comp, star], zero exactly when the
    star-set identity holds, in the dtype kernels.int_dtype(R, D mu, D) chose."""
    d_mu = int(mu * den)
    dtype = kernels.int_dtype(r, d_mu, den)
    rows = g.adj[list(star)]  # A[X, :], so B^T = A[X, comp]
    bt = rows[:, comp]
    lhs = rows[:, star].astype(dtype) * -den
    np.fill_diagonal(lhs, d_mu)  # A_X has a zero diagonal
    return lhs - bt @ r.astype(dtype) @ bt.T


def verify_star_set(g: Graph, mu, star_set: Sequence[int]) -> StarSetCertificate:
    """Evaluate all three star-set checks exactly; never raises on invalid X."""
    mu = Fraction(mu)
    star = vertex_set(g, star_set, "star set")
    multiplicity = eig_multiplicity(g, mu)
    drop = set(star)
    comp = [v for v in range(g.n) if v not in drop]
    complement = induced_subgraph(g, comp)
    try:
        r, den = resolvent_inverse(complement, mu)
    except SingularResolventError:
        # Only a failing certificate ranks the complement, for its report.
        comp_mult = eig_multiplicity(complement, mu)
        residual_zero = False
    else:
        comp_mult = 0
        residual_zero = not _scaled_residual(g, mu, star, comp, r, den).any()
    complement_ok = comp_mult == 0
    sizes_match = multiplicity == len(star)
    return StarSetCertificate(
        graph=g,
        mu=mu,
        star_set=star,
        multiplicity=multiplicity,
        complement_multiplicity=comp_mult,
        sizes_match=sizes_match,
        complement_ok=complement_ok,
        residual_zero=residual_zero,
    )


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
        raise NotAnEigenvalueError(
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


def eigenspace_from_star(g: Graph, mu, star_set: Sequence[int]) -> list[np.ndarray]:
    """Eigenspace basis reconstructed from a star set.

    For each u in X the vector with e_u on X and (mu I - C)^{-1} B e_u, that
    is R B e_u / D, on the complement is an exact eigenvector; together they
    span the eigenspace.  Every returned vector is re-checked against
    A v = mu v.
    """
    mu = Fraction(mu)
    cert = verify_star_set(g, mu, star_set)
    if not cert.valid:
        raise InvalidStarSetError(cert)
    star = list(cert.star_set)
    drop = set(star)
    comp = [v for v in range(g.n) if v not in drop]
    r, den = resolvent_inverse(induced_subgraph(g, comp), mu)
    adj = g.adj.astype(object)
    b = adj[np.ix_(comp, star)]
    basis = []
    for idx in range(len(star)):
        tail = r @ b[:, idx]
        vec = np.zeros(g.n, dtype=object)
        vec[star[idx]] = Fraction(1)
        for pos, v in zip(comp, tail):
            vec[pos] = Fraction(v, den)
        if not np.all(adj @ vec == mu * vec):
            raise AssertionError("reconstructed vector is not an eigenvector")
        basis.append(vec)
    return basis


def substar_check(g: Graph, mu, star_set: Sequence[int], removed: Sequence[int]) -> bool:
    """Whether X \\ U remains a star set for mu in G \\ U (U a proper subset of X)."""
    star = set(vertex_set(g, star_set, "star set"))
    drop = set(int(v) for v in removed)
    if not drop <= star:
        raise ValueError("removed vertices must lie inside the star set")
    if drop == star:
        raise ValueError("removed set must be a proper subset of the star set")
    keep = [v for v in range(g.n) if v not in drop]
    reduced_star = [i for i, v in enumerate(keep) if v in star]
    return verify_star_set(induced_subgraph(g, keep), mu, reduced_star).valid
