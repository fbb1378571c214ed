"""The classification checker and the constraint explorer for the complete
split star complement K_s + tK_1 (s, t >= 2).

theorem_check runs the extension engine at mu = -t and checks the paper's
classification on what it finds.  solution_explorer lists the candidate
types (a, b) (a neighbours in the clique, b in the independent part) that
satisfy both constraints, <b, j> = -1 and <b, b> = mu, reading them off the
twin-quotient blocks of the resolvent (linalg.quotient_form): the two
twin classes of K_s + tK_1 are its clique and its independent part.

theorem_check and solution_explorer return their reports as the JSON
payloads that the CLI writes, dicts of strings, ints, bools and lists;
the CLI renders its text reports from the same dicts.

All of the paper's closed forms (the minimal polynomial, the block
resolvent's coefficients alpha, beta, gamma and delta, the scaled pair
value of two types, the diagonal quintic, the non-main relation
a(mu+t) + b(mu+1) = s(mu+t) - mu(mu+1), the quadratic in a left by
eliminating b, and the forced type (a, b) = (-mu^2 - 2mu + s - 1, t) when
t + mu = 0) are test references in tests/conftest.py, checked there
against this module and against the generic exact-arithmetic route.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable

import numpy as np

from .extend import check_subset_budget, maximal_extensions
from .graphs import is_isomorphic, make_cocktail, make_complete_split, parse_graph6
from .linalg import (
    SingularResolventError,
    _twin_quotient,
    char_poly,
    format_rational,
    quotient_form,
    resolvent_bilinear,
)
from .starsets import DEFAULT_BUDGET


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
                spec_poly = char_poly(graph)
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

    Each K_s + tK_1 has two twin classes, the clique and the independent
    part, read once per (s, t).  For each mu, quotient_form gives the least
    resolvent pair (R, D) as class blocks (Z, x, D); a mu where it raises
    SingularResolventError is an eigenvalue of H and is counted as skipped.
    A type (a, b) has <b, j> = (rho_clique a + rho_indep b) / D, where
    rho = Z sizes + x are R's class row sums, so <b, j> = -1 forces
    b = -(D + rho_clique a) / rho_indep per a (one integer divmod; rho_indep
    = D (mu + 1) / beta is never 0 outside the spectrum).  Types whose b is
    non-integral are dropped (counted), and the others, with 0 <= b <= t,
    are kept when (a, b) Z (a, b)^T + x . (a, b) = D mu, that is when
    <b, b> = mu.  Every emitted row is re-verified by building one candidate
    of that type and evaluating the two bilinear values directly.

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
            twins = _twin_quotient(make_complete_split(s, t).adj)
            for mu in mu_list:
                try:
                    ((z11, z12), (_, z22)), (x1, x2), den = quotient_form(twins, mu)
                except SingularResolventError:
                    skipped += 1
                    continue
                rho_clique, rho_indep = z11 * s + z12 * t + x1, z12 * s + z22 * t + x2
                want_diag = den * mu.numerator // mu.denominator  # D mu
                for a in range(0, s + 1):
                    b, r = divmod(-den - rho_clique * a, rho_indep)
                    if r:
                        dropped += 1
                        continue
                    if not 0 <= b <= t:
                        continue
                    if z11 * a * a + 2 * z12 * a * b + z22 * b * b + x1 * a + x2 * b != want_diag:
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
