"""The block resolvent of the complete split graph K_s + tK_1, the
classification checker, and the constraint explorer.

For H the join of a clique on s vertices with t isolated ones (s, t >= 2),
the minimal polynomial is m(x) = x(x+1)(x^2 - (s-1)x - st) and the scaled
resolvent m(mu)(mu I - A)^{-1} has the block form

    (alpha J + beta mu I     delta J               )
    (delta J                 gamma J + beta(mu+1) I)

with alpha = mu^2 + mu t, beta = mu^2 - (s-1) mu - st, gamma = s(mu+1) and
delta = mu^2 + mu.  coeffs(s, t, mu) returns these five values and m(mu) as
one tuple, and closed_bilinear reads the scaled pair value
m(mu) <b_u, b_v> of two candidates off their types, each an (a, b) pair
(a neighbors in the clique, b in the independent part), and their
overlaps.  The explorer's diagonal test reads them: a type (a, b) forced
by <b, j> = -1 is kept when its pair value with itself is mu m(mu), that
is when <b, b> = mu.

theorem_check and solution_explorer return their reports as the JSON
payloads that the CLI writes, dicts of strings, ints, bools and lists;
the CLI renders its text reports from the same dicts.

The paper's other closed forms (the minimal polynomial, the diagonal
quintic, the non-main relation a(mu+t) + b(mu+1) = s(mu+t) - mu(mu+1), the
quadratic in a left by eliminating b, and the forced type
(a, b) = (-mu^2 - 2mu + s - 1, t) when t + mu = 0) are test references in
tests/conftest.py, checked there against this module and against the
generic exact-arithmetic route.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable

import numpy as np

from .extend import check_subset_budget, maximal_extensions
from .graphs import is_isomorphic, make_cocktail, make_complete_split, parse_graph6
from .linalg import SingularResolventError, char_poly, format_rational, resolvent_bilinear
from .starsets import DEFAULT_BUDGET


def coeffs(s: int, t: int, mu) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
    """The (alpha, beta, gamma, delta, m(mu)) tuple of the block resolvent of
    K_s + tK_1, which is restricted to s, t >= 2.  SingularResolventError if
    mu is an eigenvalue of K_s + tK_1: mu in {0, -1} or beta = 0."""
    if s < 2 or t < 2:
        raise ValueError("the split star complement requires s >= 2 and t >= 2")
    mu = Fraction(mu)
    beta = mu * mu - (s - 1) * mu - s * t
    if mu in (0, -1) or beta == 0:
        raise SingularResolventError(
            f"mu={format_rational(mu)} is an eigenvalue of K_{s} + {t}K_1"
        )
    return mu * mu + mu * t, beta, s * (mu + 1), mu * mu + mu, mu * (mu + 1) * beta


def closed_bilinear(
    s: int,
    t: int,
    mu,
    u: tuple[int, int],
    v: tuple[int, int],
    y_overlap: int,
    z_overlap: int,
) -> Fraction:
    """Scaled bilinear value m(mu) <b_u, b_v> from types and overlaps.

    With u of type (a, b), v of type (e, f), |Y1 cap Y2| = y_overlap and
    |Z1 cap Z2| = z_overlap:

        alpha a e + beta mu y_overlap + delta (a f + e b)
        + gamma b f + beta (mu+1) z_overlap
    """
    c = coeffs(s, t, mu)
    (a, b), (e, f) = u, v
    if not (0 <= a <= s and 0 <= e <= s):
        raise ValueError("clique-side type out of range")
    if not (0 <= b <= t and 0 <= f <= t):
        raise ValueError("independent-side type out of range")
    if not (max(0, a + e - s) <= y_overlap <= min(a, e)):
        raise ValueError("clique overlap out of range")
    if not (max(0, b + f - t) <= z_overlap <= min(b, f)):
        raise ValueError("independent overlap out of range")
    return _pair_value(c, Fraction(mu), a, b, e, f, y_overlap, z_overlap)


def _pair_value(c: tuple, mu: Fraction, a, b, e, f, y, z) -> Fraction:
    """closed_bilinear's value from the coefficients c at mu, unchecked."""
    alpha, beta, gamma, delta, _ = c
    return (
        alpha * a * e
        + beta * mu * y
        + delta * (a * f + e * b)
        + gamma * b * f
        + beta * (mu + 1) * z
    )


# ---------------------------------------------------------------------------
# End-to-end classification checks
# ---------------------------------------------------------------------------


def _expected_spectrum_poly(s: int) -> tuple[int, ...]:
    """(x - 2s) x^{s+1} (x + 2)^s: spectrum {2s, 0^{s+1}, (-2)^s}.

    x^{s+1} (x + 2)^s has the coefficient C(s, k) 2^{s-k} at x^{s+1+k};
    multiplying by x - 2s shifts that list up one degree and subtracts 2s
    times it.
    """
    p = [0] * (s + 1) + [comb(s, k) << (s - k) for k in range(s + 1)]
    return tuple(a - 2 * s * b for a, b in zip([0] + p, p + [0]))


def theorem_check(s: int, t_max: int) -> dict:
    """Run the classification for mu = -t over t = 2..t_max at clique size s.

    Expected outcome: for t = 2 exactly one regular maximal graph, the
    cocktail-party graph on 2s + 2 vertices (2s-regular, star set of size s,
    spectrum {2s, 0^{s+1}, (-2)^s}, degree balance consistent); for every
    t >= 3 no regular maximal graph at all.  Any failed check is reported as
    a counterexample rather than raised.  The largest branch's subset scan
    is checked against DEFAULT_BUDGET before any branch runs.

    Returns the report's JSON payload: s, t_max, passed and one branch per
    t, each with its t, mu, candidate and graph counts ("graphs"), passed,
    the found graph's graph6 (t = 2 only, else None) and its checks as
    {"name", "ok", "detail"}.  A branch passes when all its checks do, and
    the report when all its branches do.
    """
    if s < 2 or t_max < 2:
        raise ValueError("theorem check requires s >= 2 and t_max >= 2")
    check_subset_budget(s + t_max, DEFAULT_BUDGET)
    branches = []
    for t in range(2, t_max + 1):
        mu = Fraction(-t)
        h = make_complete_split(s, t)
        report = maximal_extensions(h, mu, nonmain=True, regular_only=True)
        maximal = report["maximal"]
        checks: list[tuple[str, bool, str]] = []
        g6 = None
        if t == 2:
            ok_count = len(maximal) == 1
            checks.append(("unique-regular-graph", ok_count, f"found {len(maximal)}"))
            if ok_count:
                found = maximal[0]
                g6, star = found["graph6"], found["X"]
                # graph6 is the exact labelled adjacency, so every check
                # below sees the graph that was assembled.
                graph = parse_graph6(g6)
                expected = make_cocktail(s + 1)
                checks.append(
                    (
                        "isomorphic-to-cocktail",
                        is_isomorphic(graph, expected),
                        f"expected complement of {s + 1} disjoint edges",
                    )
                )
                checks.append(
                    (
                        "regularity",
                        found["regular"] == 2 * s,
                        f"degree {found['regular']}, expected {2 * s}",
                    )
                )
                checks.append(
                    (
                        "star-set-size",
                        len(star) == s,
                        f"|X| = {len(star)}, expected {s}",
                    )
                )
                spec_poly = char_poly(graph.adj)
                checks.append(
                    (
                        "spectrum",
                        spec_poly == _expected_spectrum_poly(s),
                        "char poly == (x - 2s) x^{s+1} (x + 2)^s",
                    )
                )
                checks.extend(_degree_balance_checks(s, graph, star))
        else:
            checks.append(
                (
                    "no-regular-graph",
                    len(maximal) == 0,
                    f"found {len(maximal)} (candidates: {report['candidates']})",
                )
            )
        branches.append(
            {
                "t": t,
                "mu": format_rational(mu),
                "candidates": report["candidates"],
                "graphs": len(maximal),
                "passed": all(ok for _, ok, _ in checks),
                "graph6": g6,
                "checks": [
                    {"name": name, "ok": ok, "detail": detail}
                    for name, ok, detail in checks
                ],
            }
        )
    return {
        "s": s,
        "t_max": t_max,
        "passed": all(b["passed"] for b in branches),
        "branches": branches,
    }


def _degree_balance_checks(s: int, g, star) -> list[tuple[str, bool, str]]:
    """Measure a, b, c, d on the assembled graph and re-derive r three ways.

    A regular graph of degree r over H = K_s + 2K_1 with star set X forces
        r = s + |X|            (independent-part vertex)
        r = s - 1 + 2 + c      (clique vertex with c neighbors in X)
        r = a + b + d          (star-set vertex with d neighbors in X)
    """
    star = sorted(set(star))
    x_size = len(star)
    rows = g.adj[star]  # zero diagonal: the X-by-X block counts d
    a_vals = set(rows[:, :s].sum(axis=1).tolist())
    b_vals = set(rows[:, s : s + 2].sum(axis=1).tolist())
    c_vals = set(rows[:, :s].sum(axis=0).tolist())
    d_vals = set(rows[:, star].sum(axis=1).tolist())
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


def solution_explorer(
    s_range: tuple[int, int],
    t_range: tuple[int, int],
    mu_values: Iterable,
) -> dict:
    """All integer types (a, b) solving both constraints over a parameter grid.

    For each (s, t, mu) with mu outside the spectrum of H (as coeffs
    decides; the others are counted as skipped), the non-main relation
    forces b = (s - a)(mu + t)/(mu + 1) - mu per a (one integer divmod);
    rows where that b is non-integral are dropped (counted), and surviving
    (a, b) pairs are kept when their scaled pair value with themselves is
    mu m(mu), i.e. when <b, b> = mu.  Every emitted row is re-verified by
    building one candidate of that type and evaluating the two bilinear
    values directly.

    Returns the JSON payload {"rows", "dropped_nonintegral",
    "skipped_eigenvalue"}; the rows are sorted on (s, t, mu, a, b) and each
    is {"s", "t", "mu", "a", "b", "t_plus_mu_zero"}, with mu as its text.
    """
    if s_range[0] < 2 or t_range[0] < 2:
        raise ValueError("explorer grid requires s, t >= 2")
    rows = []
    dropped = 0
    skipped = 0
    mu_list = sorted(set(Fraction(m) for m in mu_values))
    for s in range(s_range[0], s_range[1] + 1):
        for t in range(t_range[0], t_range[1] + 1):
            for mu in mu_list:
                try:
                    c = coeffs(s, t, mu)
                except SingularResolventError:
                    skipped += 1
                    continue
                want_diag = mu * c[-1]  # mu m(mu)
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
                    _verify_row(s, t, mu, a, b)
                    rows.append((s, t, mu, a, b))
    rows.sort()
    return {
        "rows": [
            {
                "s": s,
                "t": t,
                "mu": format_rational(mu),
                "a": a,
                "b": b,
                "t_plus_mu_zero": t + mu == 0,
            }
            for s, t, mu, a, b in rows
        ],
        "dropped_nonintegral": dropped,
        "skipped_eigenvalue": skipped,
    }


def _verify_row(s: int, t: int, mu: Fraction, a: int, b: int) -> None:
    """Re-check a solution row against the generic bilinear form."""
    h = make_complete_split(s, t)
    vec = np.zeros(h.n, dtype=object)
    vec[:a] = vec[s : s + b] = 1
    ones = np.ones(h.n, dtype=object)
    diag = resolvent_bilinear(h, mu, vec, vec)
    row_sum = resolvent_bilinear(h, mu, vec, ones)
    if diag != mu or row_sum != -1:
        raise AssertionError(
            f"explorer row (s={s}, t={t}, mu={format_rational(mu)}, "
            f"a={a}, b={b}) fails direct verification; this is a bug"
        )
