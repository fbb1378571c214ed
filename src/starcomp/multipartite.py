"""Closed forms for star complements that are complete split graphs K_s + tK_1.

For H the join of a clique on s vertices with t isolated ones (s, t >= 2),
everything the extension engine computes generically collapses to small
polynomial identities in (s, t, mu):

  * minimal polynomial  m(x) = x(x+1)(x^2 - (s-1)x - st)
  * scaled resolvent    m(mu)(mu I - A)^{-1} has the block form
        (alpha J + beta mu I     delta J          )
        (delta J                 gamma J + beta(mu+1) I)
    with alpha = mu^2 + mu t, beta = mu^2 - (s-1) mu - st,
    gamma = s(mu+1), delta = mu^2 + mu.
  * a candidate of type (a, b) (a clique neighbors, b independent neighbors)
    satisfies a diagonal quintic and, when mu is non-main, the linear
    relation a(mu+t) + b(mu+1) = s(mu+t) - mu(mu+1); eliminating b leaves a
    quadratic in a whose integer roots in [0, s] are the admissible types.
  * when t + mu = 0 the quadratic degenerates to a linear equation and the
    type is the constant pair (a, b) = (-mu^2 - 2mu + s - 1, t).

Every closed form here is cross-checked in the test suite against the
generic exact-arithmetic route, so a transcription slip in a coefficient
cannot survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .extend import Candidate, check_subset_budget, maximal_extensions
from .graphs import (
    Graph,
    is_isomorphic,
    make_cocktail,
    make_complete_split,
    write_graph6,
)
from .linalg import (
    Polynomial,
    PreconditionError,
    adjacency_matrix,
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


def minpoly_formula(spec: BlockSpec) -> Polynomial:
    """x^4 + (2-s) x^3 + (1-s-st) x^2 - st x, monic of degree 4."""
    s, t = spec.s, spec.t
    return Polynomial([0, -s * t, 1 - s - s * t, 2 - s, 1])


@dataclass(frozen=True)
class PowerBlocks:
    """J/I coefficients of the three blocks of A(H)^k."""

    k: int
    clique_j: int
    clique_i: int
    cross_j: int
    indep_j: int
    indep_i: int

    def to_matrix(self, spec: BlockSpec) -> np.ndarray:
        return _split_blocks(
            spec, self.clique_j, self.clique_i, self.cross_j, self.indep_j, self.indep_i
        )


def _split_blocks(spec: BlockSpec, clique_j, clique_i, cross_j, indep_j, indep_i) -> np.ndarray:
    """The object matrix ((clique_j J + clique_i I, cross_j J),
    (cross_j J, indep_j J + indep_i I)) with diagonal blocks of sizes s and t."""
    s, n = spec.s, spec.s + spec.t
    out = np.full((n, n), cross_j, dtype=object)
    out[:s, :s] = clique_j
    out[s:, s:] = indep_j
    out[range(n), range(n)] = [clique_j + clique_i] * s + [indep_j + indep_i] * spec.t
    return out


def power_blocks(spec: BlockSpec, k: int) -> PowerBlocks:
    """Block coefficients of A(H)^2 and A(H)^3 in closed form."""
    s, t = spec.s, spec.t
    if k == 2:
        return PowerBlocks(
            k=2, clique_j=s + t - 2, clique_i=1, cross_j=s - 1, indep_j=s, indep_i=0
        )
    if k == 3:
        return PowerBlocks(
            k=3,
            clique_j=s * s + 2 * s * t - 3 * s - 2 * t + 3,
            clique_i=-1,
            cross_j=s * s + s * t - 2 * s + 1,
            indep_j=s * s - s,
            indep_i=0,
        )
    raise ValueError("power blocks are available for k in {2, 3} only")


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


def resolvent_block(spec: BlockSpec, mu) -> np.ndarray:
    """m(mu)(mu I - A(H))^{-1} assembled from the closed-form blocks."""
    c = coeffs(spec, mu)
    return _split_blocks(spec, c.alpha, c.beta * mu, c.delta, c.gamma, c.beta * (mu + 1))


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
    if not (0 <= y_overlap <= min(a, e)):
        raise ValueError("clique overlap out of range")
    if not (0 <= z_overlap <= min(b, f)):
        raise ValueError("independent overlap out of range")
    return (
        c.alpha * a * e
        + c.beta * Fraction(mu) * y_overlap
        + c.delta * (a * f + e * b)
        + c.gamma * b * f
        + c.beta * (Fraction(mu) + 1) * z_overlap
    )


def diag_constraint(spec: BlockSpec, mu, a: int, b: int) -> Fraction:
    """mu m(mu) - m(mu) <b_u, b_u> for a type-(a,b) candidate, expanded.

    Zero exactly when the type satisfies the diagonal condition <b,b> = mu:

        mu^5 + (2-s) mu^4 + (1-b-s-st-a) mu^3
        + (as - 2b - 2ab + bs - st - a^2 - a) mu^2
        + (bs - 2ab - b - a^2 t - b^2 s + ast + bst) mu - s b^2 + stb
    """
    mu = Fraction(mu)
    s, t = spec.s, spec.t
    return (
        mu**5
        + (2 - s) * mu**4
        + (1 - b - s - s * t - a) * mu**3
        + (a * s - 2 * b - 2 * a * b + b * s - s * t - a * a - a) * mu**2
        + (b * s - 2 * a * b - b - a * a * t - b * b * s + a * s * t + b * s * t) * mu
        - s * b * b
        + s * t * b
    )


def nonmain_constraint(spec: BlockSpec, mu, a: int, b: int) -> Fraction:
    """a(mu+t) + b(mu+1) - [s(mu+t) - mu(mu+1)]; zero iff <b,j> = -1 holds."""
    mu = Fraction(mu)
    s, t = spec.s, spec.t
    return a * (mu + t) + b * (mu + 1) - (s * (mu + t) - mu * (mu + 1))


def quadratic_in_a(spec: BlockSpec, mu) -> Polynomial:
    """The polynomial in a obtained by eliminating b from the two constraints.

        (t + mu) a^2 + (t + 2mu - 2st - 2smu + tmu + 2mu^2) a
        + mu - st - 2smu + s^2 t - 2smu^2 + s^2 mu + 3mu^2 + 3mu^3
        + mu^4 - stmu

    Integer roots in [0, s] are the admissible clique-side degrees, provided
    mu is not itself an eigenvalue of H (otherwise no candidate of any type
    exists regardless of roots).  When t + mu = 0 the leading coefficient
    vanishes and the a-coefficient becomes mu(mu+1), leaving a linear
    equation.  mu = -1 is rejected: the elimination divides by mu + 1.
    """
    mu = Fraction(mu)
    s, t = spec.s, spec.t
    if mu == -1:
        raise MuIsSplitEigenvalueError(
            f"mu=-1 is an eigenvalue of K_{s} + {t}K_1"
        )
    const = (
        mu
        - s * t
        - 2 * s * mu
        + s * s * t
        - 2 * s * mu * mu
        + s * s * mu
        + 3 * mu * mu
        + 3 * mu**3
        + mu**4
        - s * t * mu
    )
    linear = t + 2 * mu - 2 * s * t - 2 * s * mu + t * mu + 2 * mu * mu
    return Polynomial([const, linear, t + mu])


def corollary_ab(spec: BlockSpec, mu) -> Optional[TypeVector]:
    """The forced candidate type in the t + mu = 0 regime.

    a = -mu^2 - 2mu + s - 1 and b = -mu = t; returns None when that a falls
    outside [0, s], which means no candidate of any type exists.
    """
    mu = Fraction(mu)
    if spec.t + mu != 0:
        raise ValueError("closed-form type requires t + mu = 0")
    a = -mu * mu - 2 * mu + spec.s - 1
    if a.denominator != 1:
        return None
    a = int(a)
    if not 0 <= a <= spec.s:
        return None
    return TypeVector(a=a, b=spec.t)


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


def _expected_spectrum_poly(s: int) -> Polynomial:
    """(x - 2s) x^{s+1} (x + 2)^s: spectrum {2s, 0^{s+1}, (-2)^s}."""
    roots = [2 * s] + [0] * (s + 1) + [-2] * s
    return Polynomial.from_roots(roots)


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
                spec_poly = char_poly(adjacency_matrix(found.graph))
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


@dataclass(frozen=True)
class DegreeBalance:
    """The three degree expressions a regular completion must reconcile.

    For H a complete split graph with clique size s and independent part t,
    a regular graph of degree r built over it forces
        r = s + |X|            (independent-part vertex)
        r = s - 1 + t + c      (clique vertex with c neighbors in X)
        r = a + b + d          (star-set vertex with d neighbors in X)
    """

    r_independent: int
    r_clique: int
    r_star: int

    @property
    def consistent(self) -> bool:
        return self.r_independent == self.r_clique == self.r_star


def degree_balance(
    s: int, t: int, x_size: int, a: int, b: int, c: int, d: int
) -> DegreeBalance:
    return DegreeBalance(
        r_independent=s + x_size,
        r_clique=s - 1 + t + c,
        r_star=a + b + d,
    )


def _degree_balance_checks(s: int, found) -> list[tuple[str, bool, str]]:
    """Measure a, b, c, d on the assembled graph and re-derive r three ways."""
    g = found.graph
    star = set(found.star_vertices)
    x_size = len(star)
    clique_part = range(s)
    indep_part = range(s, s + 2)
    a_vals = {
        sum(1 for w in clique_part if g.has_edge(u, w)) for u in star
    }
    b_vals = {sum(1 for w in indep_part if g.has_edge(u, w)) for u in star}
    c_vals = {sum(1 for u in star if g.has_edge(w, u)) for w in clique_part}
    d_vals = {
        sum(1 for u2 in star if u2 != u and g.has_edge(u, u2)) for u in star
    }
    ok_types = a_vals == {s - 1} and b_vals == {2}
    ok_cd = c_vals == {x_size - 1} and d_vals == {x_size - 1}
    measured = (a_vals, b_vals, c_vals, d_vals)
    if all(len(vals) == 1 for vals in measured):
        (a,), (b,), (c,), (d,) = measured
        balance = degree_balance(s, 2, x_size, a, b, c, d)
        ok_balance = balance.consistent and balance.r_independent == 2 * s
        balance_detail = f"r = {balance.r_independent}/{balance.r_clique}/{balance.r_star}"
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
    forces b = (s - a)(mu + t)/(mu + 1) - mu per a; rows where that b is
    non-integral are dropped (counted), and surviving (a, b) pairs are kept
    when the diagonal quintic also vanishes.  Every emitted row is
    re-verified by building one candidate of that type and evaluating the
    two bilinear values directly.
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
                    coeffs(spec, mu)
                except MuIsSplitEigenvalueError:
                    skipped += 1
                    continue
                for a in range(0, s + 1):
                    b = Fraction(s - a) * (mu + t) / (mu + 1) - mu
                    if b.denominator != 1:
                        dropped += 1
                        continue
                    b = int(b)
                    if not 0 <= b <= t:
                        continue
                    if diag_constraint(spec, mu, a, b) != 0:
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
    cand = Candidate(tuple(range(a)) + tuple(range(spec.s, spec.s + b)))
    vec = cand.vector(h.n)
    ones = np.ones(h.n, dtype=object)
    diag = resolvent_bilinear(h, mu, vec, vec)
    row_sum = resolvent_bilinear(h, mu, vec, ones)
    if diag != mu or row_sum != -1:
        raise AssertionError(
            f"explorer row (s={spec.s}, t={spec.t}, mu={format_rational(mu)}, "
            f"a={a}, b={b}) fails direct verification; this is a bug"
        )
