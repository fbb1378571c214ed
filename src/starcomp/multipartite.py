"""The block resolvent of the complete split graph K_s + tK_1, the
classification checker, and the constraint explorer.

For H the join of a clique on s vertices with t isolated ones (s, t >= 2),
the minimal polynomial is m(x) = x(x+1)(x^2 - (s-1)x - st) and the scaled
resolvent m(mu)(mu I - A)^{-1} has the block form

    (alpha J + beta mu I     delta J               )
    (delta J                 gamma J + beta(mu+1) I)

with alpha = mu^2 + mu t, beta = mu^2 - (s-1) mu - st, gamma = s(mu+1) and
delta = mu^2 + mu.  coeffs returns these, and closed_bilinear reads the
scaled pair value m(mu) <b_u, b_v> of two candidates off their types (a
neighbors in the clique, b in the independent part) and their overlaps.
The explorer's diagonal test reads them: a type (a, b) forced by
<b, j> = -1 is kept when its pair value with itself is mu m(mu), that is
when <b, b> = mu.

The paper's other closed forms (the minimal polynomial, the diagonal
quintic, the non-main relation a(mu+t) + b(mu+1) = s(mu+t) - mu(mu+1), the
quadratic in a left by eliminating b, and the forced type
(a, b) = (-mu^2 - 2mu + s - 1, t) when t + mu = 0) are test references in
tests/conftest.py, checked there against this module and against the
generic exact-arithmetic route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Optional

import numpy as np

from .extend import check_subset_budget, maximal_extensions
from .graphs import (
    Graph,
    is_isomorphic,
    make_cocktail,
    make_complete_split,
    write_graph6,
)
from .linalg import (
    PreconditionError,
    char_poly,
    format_rational,
    resolvent_bilinear,
)
from .starsets import DEFAULT_BUDGET


class MuIsSplitEigenvalueError(PreconditionError):
    """mu hits the spectrum of K_s + tK_1 (mu in {0,-1} or beta = 0)."""


@dataclass(frozen=True)
class BlockSpec:
    """Parameters of the split star complement, restricted to s, t >= 2."""

    s: int
    t: int

    def __post_init__(self):
        if self.s < 2 or self.t < 2:
            raise ValueError("block spec requires s >= 2 and t >= 2")

    def graph(self) -> Graph:
        return make_complete_split(self.s, self.t)


@dataclass(frozen=True)
class ResolventCoeffs:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    m_mu: Fraction


@dataclass(frozen=True)
class TypeVector:
    """Candidate type: a neighbors in the clique part, b in the independent part."""

    a: int
    b: int


def coeffs(spec: BlockSpec, mu) -> ResolventCoeffs:
    """The (alpha, beta, gamma, delta, m(mu)) tuple of the block resolvent."""
    mu = Fraction(mu)
    s, t = spec.s, spec.t
    beta = mu * mu - (s - 1) * mu - s * t
    if mu in (0, -1) or beta == 0:
        raise MuIsSplitEigenvalueError(
            f"mu={format_rational(mu)} is an eigenvalue of K_{s} + {t}K_1"
        )
    return ResolventCoeffs(
        alpha=mu * mu + mu * t,
        beta=beta,
        gamma=s * (mu + 1),
        delta=mu * mu + mu,
        m_mu=mu * (mu + 1) * beta,
    )


def closed_bilinear(
    spec: BlockSpec,
    mu,
    u: TypeVector,
    v: TypeVector,
    y_overlap: int,
    z_overlap: int,
) -> Fraction:
    """Scaled bilinear value m(mu) <b_u, b_v> from types and overlaps.

    With u of type (a, b), v of type (e, f), |Y1 cap Y2| = y_overlap and
    |Z1 cap Z2| = z_overlap:

        alpha a e + beta mu y_overlap + delta (a f + e b)
        + gamma b f + beta (mu+1) z_overlap
    """
    c = coeffs(spec, mu)
    a, b = u.a, u.b
    e, f = v.a, v.b
    if not (0 <= a <= spec.s and 0 <= e <= spec.s):
        raise ValueError("clique-side type out of range")
    if not (0 <= b <= spec.t and 0 <= f <= spec.t):
        raise ValueError("independent-side type out of range")
    if not (max(0, a + e - spec.s) <= y_overlap <= min(a, e)):
        raise ValueError("clique overlap out of range")
    if not (max(0, b + f - spec.t) <= z_overlap <= min(b, f)):
        raise ValueError("independent overlap out of range")
    return _pair_value(c, Fraction(mu), a, b, e, f, y_overlap, z_overlap)


def _pair_value(c: ResolventCoeffs, mu: Fraction, a, b, e, f, y, z) -> Fraction:
    """closed_bilinear's value from the coefficients c at mu, unchecked."""
    return (
        c.alpha * a * e
        + c.beta * mu * y
        + c.delta * (a * f + e * b)
        + c.gamma * b * f
        + c.beta * (mu + 1) * z
    )


# ---------------------------------------------------------------------------
# End-to-end classification checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremBranch:
    t: int
    mu: Fraction
    candidates: int
    graphs_found: int
    checks: tuple[tuple[str, bool, str], ...]
    graph6: Optional[str]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "mu": format_rational(self.mu),
            "candidates": self.candidates,
            "graphs": self.graphs_found,
            "passed": self.passed,
            "graph6": self.graph6,
            "checks": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
        }


@dataclass(frozen=True)
class TheoremReport:
    s: int
    t_max: int
    branches: tuple[TheoremBranch, ...]

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.branches)

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "t_max": self.t_max,
            "passed": self.passed,
            "branches": [b.to_json() for b in self.branches],
        }


def _expected_spectrum_poly(s: int) -> tuple[int, ...]:
    """(x - 2s) x^{s+1} (x + 2)^s: spectrum {2s, 0^{s+1}, (-2)^s}.

    x^{s+1} (x + 2)^s has the coefficient C(s, k) 2^{s-k} at x^{s+1+k};
    multiplying by x - 2s shifts that list up one degree and subtracts 2s
    times it.
    """
    p = [0] * (s + 1) + [comb(s, k) << (s - k) for k in range(s + 1)]
    return tuple(a - 2 * s * b for a, b in zip([0] + p, p + [0]))


def theorem_check(s: int, t_max: int) -> TheoremReport:
    """Run the classification for mu = -t over t = 2..t_max at clique size s.

    Expected outcome: for t = 2 exactly one regular maximal graph, the
    cocktail-party graph on 2s + 2 vertices (2s-regular, star set of size s,
    spectrum {2s, 0^{s+1}, (-2)^s}, degree balance consistent); for every
    t >= 3 no regular maximal graph at all.  Any failed check is reported as
    a counterexample rather than raised.  The largest branch's subset scan
    is checked against DEFAULT_BUDGET before any branch runs.
    """
    if s < 2 or t_max < 2:
        raise ValueError("theorem check requires s >= 2 and t_max >= 2")
    check_subset_budget(s + t_max, DEFAULT_BUDGET)
    branches = []
    for t in range(2, t_max + 1):
        mu = Fraction(-t)
        h = make_complete_split(s, t)
        report = maximal_extensions(h, mu, nonmain=True, regular_only=True)
        checks: list[tuple[str, bool, str]] = []
        g6 = None
        if t == 2:
            ok_count = len(report.maximal_graphs) == 1
            checks.append(
                ("unique-regular-graph", ok_count, f"found {len(report.maximal_graphs)}")
            )
            if ok_count:
                found = report.maximal_graphs[0]
                g6 = write_graph6(found.graph)
                expected = make_cocktail(s + 1)
                checks.append(
                    (
                        "isomorphic-to-cocktail",
                        is_isomorphic(found.graph, expected),
                        f"expected complement of {s + 1} disjoint edges",
                    )
                )
                checks.append(
                    (
                        "regularity",
                        found.regular == 2 * s,
                        f"degree {found.regular}, expected {2 * s}",
                    )
                )
                checks.append(
                    (
                        "star-set-size",
                        len(found.star_vertices) == s,
                        f"|X| = {len(found.star_vertices)}, expected {s}",
                    )
                )
                spec_poly = char_poly(found.graph.adj)
                checks.append(
                    (
                        "spectrum",
                        spec_poly == _expected_spectrum_poly(s),
                        "char poly == (x - 2s) x^{s+1} (x + 2)^s",
                    )
                )
                checks.extend(_degree_balance_checks(s, found))
        else:
            checks.append(
                (
                    "no-regular-graph",
                    len(report.maximal_graphs) == 0,
                    f"found {len(report.maximal_graphs)} "
                    f"(candidates: {len(report.candidates)})",
                )
            )
        branches.append(
            TheoremBranch(
                t=t,
                mu=mu,
                candidates=len(report.candidates),
                graphs_found=len(report.maximal_graphs),
                checks=tuple(checks),
                graph6=g6,
            )
        )
    return TheoremReport(s=s, t_max=t_max, branches=tuple(branches))


def _degree_balance_checks(s: int, found) -> list[tuple[str, bool, str]]:
    """Measure a, b, c, d on the assembled graph and re-derive r three ways.

    A regular graph of degree r over H = K_s + 2K_1 with star set X forces
        r = s + |X|            (independent-part vertex)
        r = s - 1 + 2 + c      (clique vertex with c neighbors in X)
        r = a + b + d          (star-set vertex with d neighbors in X)
    """
    g = found.graph
    star = set(found.star_vertices)
    x_size = len(star)
    clique_part = range(s)
    indep_part = range(s, s + 2)
    a_vals = {sum(1 for w in clique_part if g.has_edge(u, w)) for u in star}
    b_vals = {sum(1 for w in indep_part if g.has_edge(u, w)) for u in star}
    c_vals = {sum(1 for u in star if g.has_edge(w, u)) for w in clique_part}
    d_vals = {sum(1 for u2 in star if u2 != u and g.has_edge(u, u2)) for u in star}
    ok_types = a_vals == {s - 1} and b_vals == {2}
    ok_cd = c_vals == {x_size - 1} and d_vals == {x_size - 1}
    measured = (a_vals, b_vals, c_vals, d_vals)
    if all(len(vals) == 1 for vals in measured):
        (a,), (b,), (c,), (d,) = measured
        r = (s + x_size, s + 1 + c, a + b + d)
        ok_balance = r == (2 * s,) * 3
        balance_detail = "r = {}/{}/{}".format(*r)
    else:
        ok_balance = False
        balance_detail = "a, b, c and d are not each a single value"
    return [
        ("attachment-types", ok_types, f"a in {sorted(a_vals)}, b in {sorted(b_vals)}"),
        ("x-degrees", ok_cd, f"c in {sorted(c_vals)}, d in {sorted(d_vals)}"),
        ("degree-balance", ok_balance, balance_detail),
    ]


# ---------------------------------------------------------------------------
# Constraint-solution explorer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplorerRow:
    s: int
    t: int
    mu: Fraction
    a: int
    b: int

    @property
    def degenerate_linear(self) -> bool:
        """True when t + mu = 0 (the forced-type regime)."""
        return self.t + self.mu == 0

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "mu": format_rational(self.mu),
            "a": self.a,
            "b": self.b,
            "t_plus_mu_zero": self.degenerate_linear,
        }


@dataclass(frozen=True)
class ExplorerTable:
    rows: tuple[ExplorerRow, ...]
    dropped_nonintegral: int
    skipped_eigenvalue: int

    def to_json(self) -> dict:
        return {
            "rows": [r.to_json() for r in self.rows],
            "dropped_nonintegral": self.dropped_nonintegral,
            "skipped_eigenvalue": self.skipped_eigenvalue,
        }


def solution_explorer(
    s_range: tuple[int, int],
    t_range: tuple[int, int],
    mu_values: Iterable,
) -> ExplorerTable:
    """All integer types (a, b) solving both constraints over a parameter grid.

    For each (s, t, mu) with mu outside the spectrum of H (as coeffs
    decides; the others are counted as skipped), the non-main relation
    forces b = (s - a)(mu + t)/(mu + 1) - mu per a (one integer divmod);
    rows where that b is non-integral are dropped (counted), and surviving
    (a, b) pairs are kept when their scaled pair value with themselves is
    mu m(mu), i.e. when <b, b> = mu.  Every emitted row is re-verified by
    building one candidate of that type and evaluating the two bilinear
    values directly.
    """
    if s_range[0] < 2 or t_range[0] < 2:
        raise ValueError("explorer grid requires s, t >= 2")
    rows = []
    dropped = 0
    skipped = 0
    mu_list = sorted(set(Fraction(m) for m in mu_values))
    for s in range(s_range[0], s_range[1] + 1):
        for t in range(t_range[0], t_range[1] + 1):
            spec = BlockSpec(s, t)
            for mu in mu_list:
                try:
                    c = coeffs(spec, mu)
                except MuIsSplitEigenvalueError:
                    skipped += 1
                    continue
                want_diag = mu * c.m_mu
                # b over the one denominator q (p + q), for mu = p/q
                p, q = mu.numerator, mu.denominator
                for a in range(0, s + 1):
                    b, r = divmod((s - a) * (p + t * q) * q - p * (p + q), q * (p + q))
                    if r:
                        dropped += 1
                        continue
                    if not 0 <= b <= t:
                        continue
                    if _pair_value(c, mu, a, b, a, b, a, b) != want_diag:
                        continue
                    _verify_row(spec, mu, a, b)
                    rows.append(ExplorerRow(s=s, t=t, mu=mu, a=a, b=b))
    rows.sort(key=lambda r: (r.s, r.t, r.mu, r.a, r.b))
    return ExplorerTable(
        rows=tuple(rows), dropped_nonintegral=dropped, skipped_eigenvalue=skipped
    )


def _verify_row(spec: BlockSpec, mu: Fraction, a: int, b: int) -> None:
    """Re-check a solution row against the generic bilinear form."""
    h = spec.graph()
    vec = np.zeros(h.n, dtype=object)
    vec[:a] = vec[spec.s : spec.s + b] = 1
    ones = np.ones(h.n, dtype=object)
    diag = resolvent_bilinear(h, mu, vec, vec)
    row_sum = resolvent_bilinear(h, mu, vec, ones)
    if diag != mu or row_sum != -1:
        raise AssertionError(
            f"explorer row (s={spec.s}, t={spec.t}, mu={format_rational(mu)}, "
            f"a={a}, b={b}) fails direct verification; this is a bug"
        )
