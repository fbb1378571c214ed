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
trailing block, and its first |X| rows hold A_X and B^T.  The distinct C of
one size are inverted STACK_SETS at a time by one kernels.inverse_stack of
q (mu I - C), mu = p/q, which gives an integer pair (R, D) with
R = D (mu I - C)^{-1} for each C with mu not an eigenvalue (C is ranked only
otherwise), and one call of kernels.int_dtype, the subset scan's overflow
rule, decides the stack's int64 copies.  A lone C of its size reads the
cached least pair of linalg.resolvent_inverse instead.  Up to STACK_SETS
residuals D (mu I - A_X) - B^T R B of one size are one stacked product, in
int64 when every R in it fits, in Python ints otherwise.

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
    _shifted,
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


# At most this many complements share one stacked inverse, and this many sets
# one stacked residual product, which bounds their scratch memory however many
# sets one call certifies.
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


def _stacked_records(blocks: list[np.ndarray], mu: Fraction) -> list[tuple[int, tuple | None]]:
    """_complement_record for each of several r x r complement blocks, from
    one kernels.inverse_stack of q (mu I - C) = p I - q C, mu = p/q.

    With (d, adj = d M^{-1}) for M = q (mu I - C), (mu I - C)^{-1} = q M^{-1},
    so D = d q, D mu = d p and R = q^2 adj form a pair for the residual: not
    the least one, which the residual's zero test does not need.  One
    kernels.int_dtype call on the peak of every R decides the int64 copies.
    A singular block is ranked (eig_multiplicity) as the cached path does.
    """
    p, q = mu.numerator, mu.denominator
    r = blocks[0].shape[0]
    # the entries p and -q need int64 storage only; inverse_stack bounds the rest
    mats = np.array(blocks, dtype=np.int64 if max(abs(p), q) < kernels.ACCUMULATOR_LIMIT else object) * -q
    mats[:, range(r), range(r)] = p  # a graph has a zero diagonal
    d, adj, singular = kernels.inverse_stack(mats)
    scaled = adj if q == 1 else adj.astype(object) * (q * q)
    d = d.tolist()
    live = [i for i, dead in enumerate(singular.tolist()) if not dead]
    fast = None
    if live:
        peak = abs(scaled[live]).max(0)
        targets = (d[i] * t for i in live for t in (p, q))
        if kernels.int_dtype(peak, *targets) is np.int64:
            fast = scaled.astype(np.int64, copy=False)
    out = []
    for i, (block, dead) in enumerate(zip(blocks, singular.tolist())):
        if dead:
            out.append((eig_multiplicity(Graph._of(block), mu), None))
        else:
            out.append((0, (d[i] * q, d[i] * p, scaled[i], None if fast is None else fast[i])))
    return out


def verify_star_set(g: Graph, mu, star_sets: Iterable[Sequence[int]]) -> list[dict]:
    """Certificates {"graph", "mu", "X", "valid", "checks"} of the vertex sets
    star_sets of g at mu, in input order; valid is the conjunction of three
    exact checks.  A vertex that is not an integer or not in g raises ValueError.

    Cost: each set is one permuted slice of A and a dict lookup of its
    complement's bytes.  Then, per set size, the distinct complements take
    one kernels.inverse_stack (_stacked_records) per STACK_SETS of them, and
    one eig_multiplicity rank each where mu is an eigenvalue; a chunk of a
    lone complement reads the cached resolvent_inverse (_complement_record)
    instead, since a stack of one costs more than a cache hit or one small
    twin-quotient solve.  The sets whose complement has a resolvent take one
    _scaled_residuals product per STACK_SETS of them.
    """
    mu = Fraction(mu)
    multiplicity = eig_multiplicity(g, mu)
    graph6, mu_text = write_graph6(g), format_rational(mu)
    rest = set(range(g.n))
    # |X| -> ({complement bytes: (index, block)}, [(certificate, A[X, X + comp], index)])
    sizes: dict[int, tuple[dict, list]] = {}
    certs = []
    for star_set in star_sets:
        star = vertex_set(g, star_set, "star set")
        k = len(star)
        order = np.array(star + tuple(sorted(rest.difference(star))), dtype=np.intp)
        rows = g.adj.take(order, 0)  # A with X first, then V - X
        block = rows[k:].take(order[k:], 1)  # the graph G - X, labelled in order
        blocks, members = sizes.setdefault(k, ({}, []))
        index, _ = blocks.setdefault(block.tobytes(), (len(blocks), block))
        checks = {"multiplicity": multiplicity, "sizes_match": multiplicity == k,
                  "complement_ok": False, "complement_multiplicity": 0,
                  "residual_zero": False}  # set once the complement is solved
        certs.append({"graph": graph6, "mu": mu_text, "X": list(star), "valid": False,
                      "checks": checks})
        members.append((certs[-1], rows[:k].take(order, 1), index))
    for blocks, members in sizes.values():
        blocks = [block for _, block in blocks.values()]
        records = []
        for i in range(0, len(blocks), STACK_SETS):
            chunk = blocks[i : i + STACK_SETS]
            records += (_stacked_records(chunk, mu) if len(chunk) > 1
                        else [_complement_record(Graph._of(chunk[0]), mu)])
        batch = []
        for cert, top, index in members:
            comp_mult, record = records[index]
            cert["checks"]["complement_ok"] = comp_mult == 0
            cert["checks"]["complement_multiplicity"] = comp_mult
            if record is not None:
                batch.append((cert, top, record))
        for i in range(0, len(batch), STACK_SETS):
            waiting, tops, stack = zip(*batch[i : i + STACK_SETS])
            nonzero = _scaled_residuals(np.array(tops), stack).any((1, 2))
            for cert, bad in zip(waiting, nonzero.tolist()):
                cert["checks"]["residual_zero"] = not bad
                cert["valid"] = cert["checks"]["sizes_match"] and not bad
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
    basis = _null_space(_shifted(g.adj.tolist(), mu))
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
