"""Exact linear algebra over integer matrices: graph adjacency matrices.

Matrices hold integers (numpy object arrays, row lists or a graph's uint8
adjacency), read as Python ints.  The characteristic and minimal
polynomials of an integer matrix are monic with integer coefficients, held
as tuples of Python ints, low degree first.  By the rational root theorem
every rational eigenvalue is an integer, and every eigenvalue of a
symmetric matrix is real, so integer_roots tries the divisors up to
sqrt(tr A^2).  A rational mu = p/q enters only as the integer matrix
qA - pI, and Fractions appear only in results.  Rank
(kernels.try_int_rank), inverse, null space and the main/non-main test share
one Bareiss echelon (kernels._bareiss); the last three also share one integer
back-substitution (_back_substitute).  For a graph, the resolvent, the
multiplicity, the main/non-main test and the characteristic polynomial run
on the k x k quotient of its k twin classes (_twin_quotient), so the
echelon is k x k; a twin-free graph has k = n.  The characteristic
polynomial is Berkowitz's division-free method over Python ints, and the minimal
polynomial of a symmetric matrix is its squarefree part.  The resolvent is
computed and made integral in one place, resolvent_inverse, as the cached
least integer pair (R, D), R = D (mu I - A)^{-1} with D mu integral, which
the bilinear form, scan, pair table and star-set residual all read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm
from operator import mul
from typing import Sequence

import numpy as np

from . import kernels
from .graphs import CACHE_SIZE, Graph, _bitsets, _twin_classes


class PreconditionError(ValueError):
    """mu breaks a precondition of the question asked: it is an eigenvalue
    where it must not be (SingularResolventError), is none where it must be,
    or lies outside the extension engine's regime."""


class SingularResolventError(PreconditionError):
    """mu is an eigenvalue of the star complement H, so (mu I - A(H)) is
    singular.  The extension engine, the star-set check and the explorer
    catch it."""


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into an exact rational; anything else is rejected."""
    s = text.strip()
    try:
        if "/" in s:
            p, q = s.split("/")
            return Fraction(int(p), int(q))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(x) -> str:
    """x as "p" or "p/q" in lowest terms: Fraction's own text."""
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# Polynomials: tuples of Python ints, low degree first
# ---------------------------------------------------------------------------


def poly_eval(coeffs: Sequence[int], x):
    """The polynomial at x by Horner: an int at an int x, a Fraction at a Fraction."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def integer_roots(coeffs: Sequence[int]) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """(integer roots with multiplicities, ascending, root-free residual) of
    the characteristic polynomial of a symmetric integer matrix; raises
    ValueError on a polynomial that is not monic with integer coefficients.

    By the rational root theorem every rational root is an integer that
    divides the lowest nonzero coefficient.  The roots of a symmetric
    matrix are real, so each root's square is at most the sum of their
    squares, c_(d-1)^2 - 2 c_(d-2) from the two coefficients below the
    leading one (tr A^2 = 2m for a graph): the divisors are tried up to its
    isqrt.  A polynomial with a non-real root breaks this precondition.
    Each root is divided out as often as it occurs while it is counted, so
    the quotient left at the end is the residual.
    """
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    poly = [int(c) for c in coeffs]
    if poly != list(coeffs) or poly[-1] != 1:
        raise ValueError(f"{poly_text(coeffs)} is not a monic integer polynomial")
    mult0 = next(i for i, c in enumerate(poly) if c)
    roots = [(0, mult0)] if mult0 else []
    poly = poly[mult0:]
    *_, c2, c1, _ = [0, 0, *poly]  # absent below degree 2
    for y in range(1, isqrt(c1 * c1 - 2 * c2) + 1):
        if poly[0] % y:
            continue
        for cand in (y, -y):
            mult = 0
            while poly_eval(poly, cand) == 0:
                poly = _monic_quotient(poly, [-cand, 1])
                mult += 1
            if mult:
                roots.append((cand, mult))
    return sorted(roots), tuple(poly)


def poly_text(coeffs: Sequence) -> str:
    """The polynomial as text, highest degree first: "x^4 - 5*x^2 - 4*x"."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        term = (
            "1" if (mag == 1 and k == 0)
            else "" if mag == 1
            else format_rational(mag)
        )
        if k > 0:
            xs = "x" if k == 1 else f"x^{k}"
            term = f"{term}*{xs}" if term else xs
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) or "0"


def _primitive(p: list[int]) -> list[int]:
    """An integer polynomial divided by its content, leading coefficient > 0."""
    content = gcd(*p)
    if p and p[-1] < 0:
        content = -content
    return [c // content for c in p] if content else p


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two integer polynomials (low degree first, no
    trailing zeros), by a primitive pseudo-remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        r, lead = a, b[-1]
        while len(r) >= len(b):
            top, shift = r[-1], len(r) - len(b)
            r = [c * lead for c in r]
            for i, c in enumerate(b):
                r[shift + i] -= top * c
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _primitive(r)
    return a


def _monic_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials with b monic and dividing a."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        top = q[k] = r[k + len(b) - 1]
        for i, c in enumerate(b):
            r[k + i] -= top * c
    return q


# ---------------------------------------------------------------------------
# Exact matrices
# ---------------------------------------------------------------------------


def _back_substitute(m: list[list[int]], pivots: list[int], rhs: list[list[int]]) -> list[list[int]]:
    """X with sum_j m[i][pivots[j]] X[j] = rhs[i] on the echelon rows of
    kernels._bareiss, for all right-hand sides at once, bottom row first.
    Each rhs is a multiple of the last pivot d, so X is integral by Cramer's
    rule and every division by a pivot is exact."""
    x: list[list[int]] = [[]] * len(pivots)
    for i in range(len(pivots) - 1, -1, -1):
        row, acc = m[i], rhs[i][:]
        for j in range(i + 1, len(pivots)):
            c = row[pivots[j]]
            if c:
                xj = x[j]
                for t in range(len(acc)):
                    acc[t] -= c * xj[t]
        piv = row[pivots[i]]
        x[i] = [a // piv for a in acc]
    return x


def _solve_scaled(rows: list[list[int]], rhs: list[list[int]]) -> tuple[list[list[int]], int]:
    """(X, d) with d > 0 and N^{-1} B = X / d, for a square integer row list N
    and integer right-hand sides B (one row per row of N): the echelon form of
    [N | B] back-substituted against d times the carried B, d = |det N|.
    Raises SingularResolventError."""
    n = len(rows)
    aug = [row + b for row, b in zip(rows, rhs)]
    pivots = kernels._bareiss(aug, n)
    if len(pivots) < n:
        raise SingularResolventError("matrix is singular")
    d = abs(aug[-1][n - 1]) if n else 1
    return _back_substitute(aug, pivots, [[d * v for v in row[n:]] for row in aug]), d


def _null_space(rows: list[list[int]]) -> list[list[int]]:
    """An integer basis U of the null space of an integer row list M with n
    columns, as n rows of k = n - rank(M) entries: M U = 0 and rank U = k.

    Column t solves the echelon form of M with x_f = d (the last pivot) for
    the t-th free column f and 0 on the other free columns, over its content.
    """
    n = len(rows[0]) if rows else 0
    m = [r[:] for r in rows]
    pivots = kernels._bareiss(m, n)
    d = abs(m[len(pivots) - 1][pivots[-1]]) if pivots else 1
    free = sorted(set(range(n)) - set(pivots))
    x = _back_substitute(m, pivots, [[-d * m[i][f] for f in free] for i in range(len(pivots))])
    u = [[0] * len(free) for _ in range(n)]
    for t, f in enumerate(free):
        content = gcd(d, *(xs[t] for xs in x))
        u[f][t] = d // content
        if content > 1:
            for xs in x:
                xs[t] //= content
    for c, xs in zip(pivots, x):
        u[c] = xs
    return u


# ---------------------------------------------------------------------------
# The twin quotient
# ---------------------------------------------------------------------------


def _twin_quotient(adj: np.ndarray, p: int = 0, q: int = 1):
    """(K, cls, sizes, taus) for N = qA - pI and the twin classes V_1..V_k
    of the graph with 0/1 adjacency adj (graphs._twin_classes), in order of
    their first vertices r_1..r_k.

    cls[v] is the class of vertex v and sizes[i] = n_i; taus[i] is 1 when
    V_i holds true twins (adjacent) and 0 for false twins or a singleton.
    K is the k x k quotient K_ij = sum_{v in V_j} N[r_i, v].  Twins share
    their neighbours outside their class, so N is constant on each block
    off the diagonal and N P = P K for the 0/1 class matrix P.  The vectors
    that vanish off V_i and sum to 0 on it are the rest of the eigenvectors
    of N: each class gives the eigenvalue -(p + q tau_i), n_i - 1 times.
    A twin-free graph has K = qA - pI.  K is built in one pass over the rows.
    """
    rows = adj.tolist()
    first = _twin_classes(_bitsets(adj))
    index: dict[int, int] = {}
    cls = [index.setdefault(f, len(index)) for f in first]
    k = len(index)
    sizes, taus = [1] * k, [0] * k
    for v, f in enumerate(first):
        if f != v:
            sizes[cls[v]] += 1
            taus[cls[v]] = rows[v][f]
    quotient = []
    for i, r in enumerate(index):
        row = [0] * k
        for c, a in zip(cls, rows[r]):
            if a:
                row[c] += q
        row[i] -= p
        quotient.append(row)
    return quotient, cls, sizes, taus


# ---------------------------------------------------------------------------
# Characteristic and minimal polynomials
# ---------------------------------------------------------------------------


def _square_int_rows(m, what: str) -> list[list[int]]:
    """The rows of a square matrix with integral entries, as Python ints;
    raises ValueError on any other matrix."""
    arr = np.asarray(m, dtype=object)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} needs a square matrix")
    rows = arr.tolist()
    ints = [[int(v) for v in row] for row in rows]
    if ints != rows:
        raise ValueError(f"{what} needs an integer matrix")
    return ints


def _berkowitz(a: list[list[int]]) -> list[int]:
    """det(xI - A) of a square integer row list, low degree first.

    Berkowitz (1984): grow the leading principal submatrix A_k one row r and
    column c at a time (corner entry a).  The new characteristic polynomial
    is the old one times the lower-triangular Toeplitz matrix with first
    column 1, -a, -r c, -r A_k c, ..., -r A_k^{k-1} c.  Only ring operations
    occur, so the coefficients stay Python ints.
    """
    poly = [1]  # highest degree first while growing
    for k in range(len(a)):
        sub = [row[:k] for row in a[:k]]
        r = a[k][:k]
        c = [row[k] for row in a[:k]]
        col = [1, -a[k][k]]
        for step in range(k):
            col.append(-sum(map(mul, r, c)))
            if step < k - 1:
                c = [sum(map(mul, row, c)) for row in sub]
        poly = [
            sum(col[j] * poly[i - j] for j in range(max(0, i - k), i + 1))
            for i in range(k + 2)
        ]
    return poly[::-1]


def char_poly(m) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - M) of a square integer matrix;
    raises ValueError on any other input.

    A 0/1 symmetric matrix with a zero diagonal is a graph's adjacency A:
    its polynomial is Berkowitz's on the k x k twin quotient B of A
    (_twin_quotient) times (x + tau_i)^(n_i - 1) for each twin class.  Any
    other matrix runs Berkowitz on itself.
    """
    rows = _square_int_rows(m, "characteristic polynomial")
    a = np.array(rows)
    if not rows or a.dtype.kind != "i" or (a.T != a).any() or a.diagonal().any() or (a >> 1).any():
        return tuple(_berkowitz(rows))
    quotient, _, sizes, taus = _twin_quotient(a.astype(np.uint8))
    poly = _berkowitz(quotient)
    ones = sum(n_i - 1 for n_i, tau in zip(sizes, taus) if tau)
    zeros = len(rows) - len(quotient) - ones
    binom = [comb(ones, j) for j in range(ones + 1)]  # (x + 1)^ones
    poly = [
        sum(poly[i - j] * binom[j] for j in range(max(0, i - len(poly) + 1), min(i, ones) + 1))
        for i in range(len(poly) + ones)
    ]
    return (0,) * zeros + tuple(poly)


def min_poly(m) -> tuple[int, ...]:
    """Minimal polynomial of a symmetric integer matrix; raises ValueError
    on any other input.

    A symmetric matrix is diagonalizable, so its minimal polynomial is the
    squarefree part of its characteristic polynomial (char_poly),
    char / gcd(char, char').  The monic char has a monic primitive gcd with
    its derivative, so the division is exact over the integers.
    """
    rows = _square_int_rows(m, "minimal polynomial")
    if rows != [list(col) for col in zip(*rows)]:
        raise ValueError("minimal polynomial needs a symmetric matrix")
    cp = list(char_poly(m))
    slope = [i * c for i, c in enumerate(cp)][1:]
    return tuple(_monic_quotient(cp, _int_poly_gcd(cp, slope)))


# ---------------------------------------------------------------------------
# Eigenvalue multiplicity and the main/non-main split
# ---------------------------------------------------------------------------


def _shifted_int_matrix(g: Graph, mu: Fraction) -> list[list[int]]:
    """q*A - p*I for mu = p/q: integer matrix with the rank of A - mu*I."""
    mu = Fraction(mu)
    p, q = mu.numerator, mu.denominator
    rows = [[q * v for v in r] for r in g.adj.tolist()]
    for i in range(g.n):
        rows[i][i] -= p
    return rows


@lru_cache(maxsize=CACHE_SIZE)
def eig_multiplicity(g: Graph, mu) -> int:
    """Multiplicity of mu as an adjacency eigenvalue: n - rank(qA - pI) for
    mu = p/q, read off the twin quotient K as k - rank K plus n_i - 1 for
    each class whose eigenvalue -(p + q tau_i) is 0.  Cached per (graph,
    mu) like resolvent_inverse, since every star-set certificate for G asks
    for the same rank."""
    mu = Fraction(mu)
    p, q = mu.numerator, mu.denominator
    quotient, _, sizes, taus = _twin_quotient(g.adj, p, q)
    inner = sum(n_i - 1 for n_i, tau in zip(sizes, taus) if p + q * tau == 0)
    return len(quotient) - kernels.try_int_rank(quotient) + inner


def is_nonmain(g: Graph, mu) -> bool:
    """True iff the eigenspace of mu is orthogonal to the all-ones vector j,
    that is (A being symmetric) j lies in the column space of N = qA - pI.

    N commutes with averaging over each twin class, so j = N x holds for an
    x that is constant on the classes, and j is in the column space of N
    exactly when 1 is in that of the twin quotient K: the echelon form of
    [K | q 1] carries 0 in every row below the rank.  mu is an eigenvalue
    when K is singular or a class of two or more has -(p + q tau_i) = 0.
    """
    mu = Fraction(mu)
    p, q = mu.numerator, mu.denominator
    quotient, _, sizes, taus = _twin_quotient(g.adj, p, q)
    k = len(quotient)
    aug = [row + [q] for row in quotient]
    rank = len(kernels._bareiss(aug, k))
    if rank == k and all(n_i == 1 or p + q * tau for n_i, tau in zip(sizes, taus)):
        raise PreconditionError(f"{format_rational(mu)} is not an eigenvalue")
    return not any(row[k] for row in aug[rank:])


# ---------------------------------------------------------------------------
# Resolvent machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=CACHE_SIZE)
def resolvent_inverse(h: Graph, mu: Fraction) -> tuple[np.ndarray, int]:
    """The least pair (R, D): D is the least positive integer with D mu and
    D (mu I - A(H))^{-1} integral, R = D (mu I - A(H))^{-1}, cached per
    (graph, mu).

    R is a read-only object array of Python ints.  This is the only place
    the resolvent is computed or scaled to integers; every caller asks an
    integer question in R and D.  Graphs are immutable, so entries never
    need invalidation.

    The inverse of N = qA - pI is block-constant on the twin classes
    (_twin_quotient) plus the diagonal 1 / c_i, c_i = -(p + q tau_i), on
    each class of n_i >= 2: with P the 0/1 class matrix,
        N^{-1} = P Z P^T + diag(1 / c_i),  Z = S^{-1} - diag(1 / (c_i n_i)),
    where S = P^T N P is the quotient K with row i times n_i, symmetric and
    k x k.  With L = lcm |c_i n_i| and h_i = -L / (c_i n_i) (0 on a
    singleton), S (L Z) = L I + S diag(h): one echelon solves it, and the
    entries of N^{-1} come over the one denominator d L, d = |det S|.  A
    twin-free graph has S = qA - pI and the right-hand side I.
    """
    mu = Fraction(mu)
    p, q = mu.numerator, mu.denominator
    quotient, cls, sizes, taus = _twin_quotient(h.adj, p, q)
    shifts = [(p + q * tau) * n_i if n_i > 1 else 0 for n_i, tau in zip(sizes, taus)]
    try:
        if any(n_i > 1 and not e for n_i, e in zip(sizes, shifts)):
            raise SingularResolventError("a twin class has eigenvalue 0")
        big = lcm(*(e for e in shifts if e))
        hs = [big // e if e else 0 for e in shifts]
        s_rows = [row if n_i == 1 else [n_i * v for v in row] for row, n_i in zip(quotient, sizes)]
        rhs = [[0] * len(s_rows) for _ in s_rows]
        for i, row in enumerate(rhs):
            row[i] = big
        for j, h_j in enumerate(hs):
            if h_j:
                for row, s_row in zip(rhs, s_rows):
                    row[j] += s_row[j] * h_j
        z, d = _solve_scaled(s_rows, rhs)
    except SingularResolventError:
        raise SingularResolventError(
            f"mu={format_rational(mu)} is an eigenvalue of the star complement"
        ) from None
    # N^{-1} = (z[i][j] + [u = v] diag[j]) / (d L) at u in V_i, v in V_j,
    # and (mu I - A)^{-1} = -q N^{-1}.  With g the gcd of d L and every
    # numerator, M = d L / g, D = lcm(q, M / gcd(M, q)) and R = -(D q / M)
    # times the numerators over g.
    diag = [-d * n_i * h_j for n_i, h_j in zip(sizes, hs)]
    g = gcd(d * big, *diag, *(v for row in z for v in row))
    m = d * big // g
    c = gcd(m, q)
    den = lcm(q, m // c)
    f = -(den // (m // c)) * (q // c)
    out = np.array([[f * (v // g) for v in row] for row in z], dtype=object).reshape(len(z), len(z))
    if len(z) < h.n:
        out = out[np.ix_(cls, cls)]
        for v, i in enumerate(cls):
            if diag[i]:
                out[v, v] += f * (diag[i] // g)
    out.setflags(write=False)
    return out, den


def resolvent_bilinear(h: Graph, mu, x, y) -> Fraction:
    """<x, y> = x^T (mu I - A(H))^{-1} y = x^T R y / D, exactly."""
    xv = np.asarray(x, dtype=object)
    yv = np.asarray(y, dtype=object)
    if xv.shape != (h.n,) or yv.shape != (h.n,):
        raise ValueError(f"vectors must have length {h.n}")
    r, den = resolvent_inverse(h, Fraction(mu))
    return Fraction(sum(a * b for a, b in zip(xv, r @ yv)), den)


@lru_cache(maxsize=CACHE_SIZE)
def graph_min_poly(h: Graph) -> tuple[int, ...]:
    return min_poly(h.adj)


def resolvent_via_minpoly(h: Graph, mu) -> np.ndarray:
    """The scaled resolvent m(mu) (mu I - A(H))^{-1}, m the minimal polynomial.

    It is m(mu) R / D from the cached resolvent_inverse.  Being a polynomial
    in A(H) with coefficients in Z[mu], it is an integer matrix for an
    integer mu, whose entries are Python ints from an exact integer
    division.  Only an integer mu is taken (ValueError otherwise): no
    candidate has a non-integral mu, so no pair table needs one.  Raises
    SingularResolventError when mu is an eigenvalue of H.
    """
    mu = Fraction(mu)
    if mu.denominator != 1:
        raise ValueError(f"the scaled resolvent takes an integral mu, got {format_rational(mu)}")
    r, den = resolvent_inverse(h, mu)
    return poly_eval(graph_min_poly(h), int(mu)) * r // den
