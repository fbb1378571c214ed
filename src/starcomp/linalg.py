"""Exact rational linear algebra over graph adjacency matrices.

Scalars are Python ints and fractions.Fraction, matrices numpy object
arrays, and the work is done on integer-scaled matrices, so rationals appear
only in final results.  Rank, inverse, null space and the main/non-main test
share one Bareiss echelon (kernels._bareiss) and one integer
back-substitution (_back_substitute).  The characteristic polynomial is
Berkowitz's division-free method over Python ints, and the minimal
polynomial of a symmetric matrix is its squarefree part.  The resolvent
is computed and made integral in one place, resolvent_inverse, as the
cached least integer pair (R, D), R = D (mu I - A)^{-1} with D mu integral,
which the bilinear form, scan, pair table and star-set residual all read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Sequence

import numpy as np

from . import kernels
from .graphs import CACHE_SIZE, Graph


class PreconditionError(ValueError):
    """mu breaks a precondition of the question asked: it is an eigenvalue
    where it must not be, is none where it must be, or lies outside the
    extension engine's regime."""


class SingularResolventError(PreconditionError):
    """mu is an eigenvalue, so (mu I - A) is singular."""


class NotAnEigenvalueError(PreconditionError):
    """The question requires mu to be an eigenvalue and it is not."""


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
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# Polynomials (exact coefficients, low degree first)
# ---------------------------------------------------------------------------


class Polynomial:
    """Dense polynomial with exact rational coefficients c0..cd."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coeffs or not other.coeffs:
            return Polynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.degree < 0:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.coeffs[-1]
        for k in range(len(rem) - 1, d - 1, -1):
            factor = rem[k] / lead
            if factor == 0:
                continue
            q[k - d] = factor
            for i in range(d + 1):
                rem[k - d + i] -= factor * other.coeffs[i]
        return Polynomial(q), Polynomial(rem)

    def divides(self, other: "Polynomial") -> bool:
        _, r = divmod(other, self)
        return r.degree < 0

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor; the zero polynomial only for 0 and 0."""
        (a,), _ = _as_int_rows([self.coeffs])
        (b,), _ = _as_int_rows([other.coeffs])
        g = _int_poly_gcd(a, b)
        return Polynomial([Fraction(c, g[-1]) for c in g])

    @classmethod
    def from_roots(cls, roots: Sequence) -> "Polynomial":
        poly = cls([1])
        for r in roots:
            poly = poly * cls([-Fraction(r), 1])
        return poly

    def rational_roots(self) -> list[tuple[Fraction, int]]:
        """All rational roots with multiplicities, ascending."""
        return self.factor_rational()[0]

    def factor_rational(self) -> tuple[list[tuple[Fraction, int]], "Polynomial"]:
        """(rational roots with multiplicities, ascending, root-free residual).

        Each root is divided out as often as it occurs while it is counted,
        so the quotient left at the end is the residual.
        """
        if self.degree < 0:
            raise ValueError("zero polynomial has every root")
        poly = self
        roots: list[tuple[Fraction, int]] = []
        mult0 = 0
        while poly.coeff(0) == 0 and poly.degree > 0:
            poly = Polynomial(poly.coeffs[1:])
            mult0 += 1
        if mult0:
            roots.append((Fraction(0), mult0))
        if poly.degree >= 1:
            # x = y / t turns f = x^d + c_(d-1) x^(d-1) + ... + c_0 into the
            # monic t^d f(y / t), with integer coefficients t^k c_(d-k) once
            # each denominator divides t^k (t = s for char_poly(A / s)).  Its
            # rational roots are integers: divisors of its constant term
            # within its root bound, which is O(n) for an adjacency matrix.
            d = poly.degree
            cs = [c / poly.coeffs[-1] for c in poly.coeffs]
            t = 1
            for k in range(1, d + 1):
                den = cs[d - k].denominator
                r = _ceil_root(den, k)
                t = lcm(t, r if r**k % den == 0 else den)
            monic = [int(c * t ** (d - j)) for j, c in enumerate(cs)]
            for y in range(1, _root_bound(monic) + 1):
                if monic[0] % y:
                    continue
                for cand in (Fraction(y, t), Fraction(-y, t)):
                    mult = 0
                    while poly(cand) == 0:
                        poly, _ = divmod(poly, Polynomial([-cand, 1]))
                        mult += 1
                    if mult:
                        roots.append((cand, mult))
        return sorted(roots), poly

    def to_strings(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self) -> str:
        if self.degree < 0:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
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
        return " ".join(parts)


def _primitive(p: list[int]) -> list[int]:
    """An integer polynomial divided by its content, leading coefficient > 0."""
    content = 0
    for c in p:
        content = gcd(content, c)
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


def _ceil_root(c: int, k: int) -> int:
    """The smallest r >= 0 with r^k >= c, for c >= 0 and k >= 1."""
    lo, hi = -1, 1 << -(-c.bit_length() // k)  # r lies in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k >= c:
            hi = mid
        else:
            lo = mid
    return hi


def _root_bound(monic: list[int]) -> int:
    """Fujiwara's bound 2 max_k |c_(d-k)|^(1/k) on the roots of a monic
    integer polynomial (low degree first), each k-th root rounded up."""
    d = len(monic) - 1
    return 2 * max((_ceil_root(abs(monic[d - k]), k) for k in range(1, d + 1)), default=0)


# ---------------------------------------------------------------------------
# Exact matrices
# ---------------------------------------------------------------------------


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Adjacency matrix as an exact (object dtype, Python int) array."""
    return g.adj.astype(object)


def _as_int_rows(m) -> tuple[list[list[int]], int]:
    """Clear denominators: integer row list plus the (positive) scale used."""
    rows = [list(r) for r in m]
    scale = 1
    for r in rows:
        for v in r:
            d = Fraction(v).denominator
            scale = scale * d // gcd(scale, d)
    out = [[int(v * scale) for v in r] for r in rows]
    return out, scale


def rank(m) -> int:
    """Exact rank of a rational matrix (nested sequence or object array)."""
    return kernels.try_int_rank(_as_int_rows(m)[0])


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


def _inverse_scaled(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """(Y, d) with d > 0 and N^{-1} = Y / d, for a square integer row list N:
    the echelon form of [N | I] back-substituted against d times the carried
    identity, d = |det N|.  Raises SingularResolventError."""
    n = len(rows)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
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
# Characteristic and minimal polynomials
# ---------------------------------------------------------------------------


def _square_object(m, what: str) -> np.ndarray:
    arr = np.asarray(m, dtype=object)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} needs a square matrix")
    return arr


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


def _unscale(coeffs: list[int], scale: int) -> Polynomial:
    """The polynomial of M from the integer one of sM, low degree first: its
    roots are those of sM divided by s, so coefficient j is divided by
    s^(deg - j)."""
    if scale == 1:
        return Polynomial(coeffs)
    deg = len(coeffs) - 1
    return Polynomial([Fraction(c, scale ** (deg - j)) for j, c in enumerate(coeffs)])


def char_poly(m) -> Polynomial:
    """Characteristic polynomial det(xI - M), monic, exact.

    Berkowitz over the integer matrix sM that clears M's denominators; the
    coefficient of x^{n-k} in det(xI - sM) is s^k times the one of M.
    """
    rows, scale = _as_int_rows(_square_object(m, "characteristic polynomial"))
    return _unscale(_berkowitz(rows), scale)


def min_poly(m) -> Polynomial:
    """Minimal polynomial of a symmetric rational matrix; raises ValueError
    on any other input.

    A symmetric matrix is diagonalizable, so its minimal polynomial is the
    squarefree part of its characteristic polynomial, char / gcd(char, char').
    Computed on sM over the integers, where the monic char has a monic
    primitive gcd with its derivative and the division is exact.
    """
    arr = _square_object(m, "minimal polynomial")
    if not (arr == arr.T).all():
        raise ValueError("minimal polynomial needs a symmetric matrix")
    rows, scale = _as_int_rows(arr)
    cp = _berkowitz(rows)
    slope = [i * c for i, c in enumerate(cp)][1:]
    return _unscale(_monic_quotient(cp, _int_poly_gcd(cp, slope)), scale)


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
    """Multiplicity of mu as an adjacency eigenvalue: n - rank(A - mu I),
    cached per (graph, mu) like resolvent_inverse, since every star-set
    certificate for G asks for the same rank."""
    return g.n - kernels.try_int_rank(_shifted_int_matrix(g, Fraction(mu)))


def is_nonmain(g: Graph, mu) -> bool:
    """True iff the eigenspace of mu is orthogonal to the all-ones vector j,
    that is (A being symmetric) j lies in the column space of A - mu I: the
    echelon form of [qA - pI | q j] carries 0 in every row below the rank."""
    mu = Fraction(mu)
    aug = [row + [mu.denominator] for row in _shifted_int_matrix(g, mu)]
    rank_m = len(kernels._bareiss(aug, g.n))
    if rank_m == g.n:
        raise NotAnEigenvalueError(f"{format_rational(mu)} is not an eigenvalue")
    return not any(row[g.n] for row in aug[rank_m:])


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
    """
    mu = Fraction(mu)
    try:
        y, d = _inverse_scaled(_shifted_int_matrix(h, mu))
    except SingularResolventError:
        raise SingularResolventError(
            f"{format_rational(mu)} is an eigenvalue of the complement graph"
        ) from None
    # y / d inverts qA - pI = -q (mu I - A), so (mu I - A)^{-1} = -q y / d.
    # With g = gcd(d, y), its entries have least common denominator d / g,
    # prime to q since det(pI - qA) = p^n mod q: D = q d / g, R = -q^2 y / g.
    q = mu.denominator
    g = gcd(d, *(v for row in y for v in row))
    out = np.empty((h.n, h.n), dtype=object)
    for i, row in enumerate(y):
        out[i, :] = [-q * q * (v // g) for v in row]
    out.setflags(write=False)
    return out, q * (d // g)


def resolvent_bilinear(h: Graph, mu, x, y) -> Fraction:
    """<x, y> = x^T (mu I - A(H))^{-1} y = x^T R y / D, exactly."""
    xv = np.asarray(x, dtype=object)
    yv = np.asarray(y, dtype=object)
    if xv.shape != (h.n,) or yv.shape != (h.n,):
        raise ValueError(f"vectors must have length {h.n}")
    r, den = resolvent_inverse(h, Fraction(mu))
    return Fraction(sum(a * b for a, b in zip(xv, r @ yv)), den)


@lru_cache(maxsize=CACHE_SIZE)
def graph_min_poly(h: Graph) -> Polynomial:
    return min_poly(adjacency_matrix(h))


def resolvent_via_minpoly(h: Graph, mu) -> np.ndarray:
    """The scaled resolvent m(mu) (mu I - A(H))^{-1}, m the minimal polynomial.

    It is m(mu) R / D from the cached resolvent_inverse.  Being a polynomial
    in A(H) with coefficients in Z[mu], it is an integer matrix whenever mu
    is an integer; its entries are then Python ints from an exact integer
    division.  Raises SingularResolventError when mu is an eigenvalue of H.
    """
    mu = Fraction(mu)
    r, den = resolvent_inverse(h, mu)
    m_mu = graph_min_poly(h)(mu)
    if mu.denominator == 1:
        return int(m_mu) * r // den
    return r * (m_mu / den)
