"""Command-line front end: one subcommand per pipeline, text or JSON reports.

Graphs are accepted either as graph6 strings or as the named constructions
"split:s,t" (clique joined to isolated vertices) and "cocktail:p"
(complement of p disjoint edges), so experiments stay one-liners.  All
output is deterministic; --threads only changes how the candidate scans are
sharded.  Star-set search runs on one thread and ignores it.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .extend import (
    EngineRestrictionError,
    MuIsEigenvalueError,
    enumerate_candidates,
    maximal_extensions,
)
from .graphs import Graph, Graph6Error, make_cocktail, make_complete_split, parse_graph6, write_graph6
from .linalg import (
    NotAnEigenvalueError,
    SingularResolventError,
    adjacency_matrix,
    char_poly,
    eig_multiplicity,
    format_rational,
    is_nonmain,
    parse_rational,
)
from .multipartite import MuIsSplitEigenvalueError, solution_explorer, theorem_check
from .starsets import BudgetExceededError, find_star_sets, verify_star_set

SCHEMA_VERSION = "starcomp/1"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _version() -> str:
    from . import __version__

    return __version__


def load_graph(spec: str) -> Graph:
    """graph6 string or a named construction ("split:s,t", "cocktail:p")."""
    if spec.startswith("split:"):
        try:
            s, t = (int(x) for x in spec[len("split:") :].split(","))
        except ValueError as exc:
            raise UsageError(f"bad split construction {spec!r}: want split:s,t") from exc
        return make_complete_split(s, t)
    if spec.startswith("cocktail:"):
        try:
            p = int(spec[len("cocktail:") :])
        except ValueError as exc:
            raise UsageError(f"bad cocktail construction {spec!r}: want cocktail:p") from exc
        return make_cocktail(p)
    return parse_graph6(spec)


def parse_range(text: str) -> tuple[int, int]:
    """Parse "lo..hi" into an inclusive integer range."""
    parts = text.split("..")
    if len(parts) != 2:
        raise UsageError(f"bad range {text!r}: want lo..hi")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}: want integers lo..hi") from exc
    if lo > hi:
        raise UsageError(f"bad range {text!r}: lo > hi")
    return lo, hi


# ---------------------------------------------------------------------------
# Subcommand payloads: (json payload, text lines, exit code)
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> tuple[dict, list[str], int]:
    g = load_graph(args.graph)
    poly = char_poly(adjacency_matrix(g))
    roots, residual = poly.factor_rational()
    entries = []
    for value, mult in roots:
        entries.append(
            {
                "value": format_rational(value),
                "multiplicity": mult,
                "main": not is_nonmain(g, value),
            }
        )
    payload = {
        "graph6": write_graph6(g),
        "n": g.n,
        "char_poly": poly.to_strings(),
        "roots": entries,
        "residual": residual.to_strings() if residual.degree > 0 else None,
    }
    lines = [f"graph {write_graph6(g)} on {g.n} vertices"]
    for e in entries:
        tag = "main" if e["main"] else "non-main"
        lines.append(f"  root {e['value']:>6}  multiplicity {e['multiplicity']}  {tag}")
    if residual.degree > 0:
        lines.append(f"  residual factor (no rational roots): {residual}")
    return payload, lines, EXIT_OK


def cmd_starsets(args) -> tuple[dict, list[str], int]:
    # --threads is checked like the other commands' but otherwise ignored.
    if args.threads < 1:
        raise ValueError(f"threads must be at least 1, got {args.threads}")
    g = load_graph(args.graph)
    mu = parse_rational(args.mu)
    stars = find_star_sets(g, mu, budget=args.budget)
    certs = [verify_star_set(g, mu, star) for star in stars]
    payload = {
        "graph6": write_graph6(g),
        "mu": format_rational(mu),
        "multiplicity": eig_multiplicity(g, mu),
        "count": len(stars),
        "star_sets": [list(star) for star in stars],
        "certificates": [c.to_json() for c in certs],
    }
    lines = [
        f"mu = {format_rational(mu)} has multiplicity "
        f"{payload['multiplicity']} in {write_graph6(g)}",
        f"star sets found: {len(stars)}",
    ]
    lines.extend(f"  X = {list(star)}" for star in stars)
    return payload, lines, EXIT_OK


def cmd_candidates(args) -> tuple[dict, list[str], int]:
    h = load_graph(args.graph)
    mu = parse_rational(args.mu)
    cands = enumerate_candidates(
        h, mu, nonmain=args.nonmain, budget=args.budget, threads=args.threads
    )
    payload = {
        "H": write_graph6(h),
        "mu": format_rational(mu),
        "nonmain": args.nonmain,
        "count": len(cands),
        "candidates": [list(c.vertices) for c in cands],
    }
    lines = [
        f"candidate attachments to {write_graph6(h)} for mu = {format_rational(mu)}"
        f" ({'non-main' if args.nonmain else 'unfiltered'}): {len(cands)}"
    ]
    lines.extend(f"  b = {list(c.vertices)}" for c in cands)
    return payload, lines, EXIT_OK


def cmd_extend(args) -> tuple[dict, list[str], int]:
    h = load_graph(args.graph)
    mu = parse_rational(args.mu)
    report = maximal_extensions(
        h,
        mu,
        nonmain=args.nonmain,
        regular_only=args.regular_only,
        budget=args.budget,
        threads=args.threads,
        maximal_only=not args.include_nonmaximal,
    )
    payload = report.to_json()
    lines = [
        f"H = {write_graph6(h)}, mu = {format_rational(mu)}: "
        f"{len(report.candidates)} candidates, "
        f"{len(report.maximal_graphs)} graph(s)"
    ]
    for m in report.maximal_graphs:
        reg = f"{m.regular}-regular" if m.regular is not None else "irregular"
        lines.append(
            f"  {write_graph6(m.graph)}  X = {list(m.star_vertices)}  {reg}"
        )
    return payload, lines, EXIT_OK


def cmd_theorem(args) -> tuple[dict, list[str], int]:
    report = theorem_check(args.s, args.t_max, threads=args.threads)
    payload = report.to_json()
    lines = [f"classification check at s = {args.s}, t = 2..{args.t_max}"]
    for b in report.branches:
        status = "PASS" if b.passed else "FAIL"
        summary = (
            f"unique graph {b.graph6}" if b.t == 2 and b.graph6 else f"{b.graphs_found} graphs"
        )
        lines.append(
            f"  t={b.t} mu={format_rational(b.mu)}: {status} "
            f"({b.candidates} candidates, {summary})"
        )
        for name, ok, detail in b.checks:
            if not ok:
                lines.append(f"    FAILED {name}: {detail}")
    lines.append("overall: " + ("PASS" if report.passed else "FAIL"))
    return payload, lines, EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_explore(args) -> tuple[dict, list[str], int]:
    s_range = parse_range(args.s)
    t_range = parse_range(args.t)
    mu_lo, mu_hi = parse_range(args.mu)
    table = solution_explorer(s_range, t_range, range(mu_lo, mu_hi + 1))
    payload = {
        "s_range": list(s_range),
        "t_range": list(t_range),
        "mu_range": [mu_lo, mu_hi],
        **table.to_json(),
    }
    lines = [
        f"integer solutions over s={args.s}, t={args.t}, mu={args.mu} "
        f"({len(table.rows)} rows, {table.dropped_nonintegral} dropped non-integral, "
        f"{table.skipped_eigenvalue} skipped eigenvalue combinations)",
        f"  {'s':>3} {'t':>3} {'mu':>5} {'a':>3} {'b':>3}  t+mu=0",
    ]
    for r in table.rows:
        lines.append(
            f"  {r.s:>3} {r.t:>3} {format_rational(r.mu):>5} {r.a:>3} {r.b:>3}  "
            f"{'yes' if r.degenerate_linear else 'no'}"
        )
    return payload, lines, EXIT_OK


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starcomp",
        description="Exact star-complement toolkit for graph eigenvalue structure.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, mu=True, threads_help="search worker threads"):
        p.add_argument("--graph", required=True, help="graph6 string, split:s,t, or cocktail:p")
        if mu:
            p.add_argument("--mu", required=True, help="rational eigenvalue, p or p/q")
        p.add_argument("--budget", type=int, default=10_000_000, help="subset-test budget")
        p.add_argument("--threads", type=int, default=1, help=threads_help)

    p = sub.add_parser("spectrum", help="factored characteristic polynomial with main/non-main tags")
    p.add_argument("--graph", required=True, help="graph6 string, split:s,t, or cocktail:p")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("starsets", help="exhaustive star-set search for an eigenvalue")
    add_common(p, threads_help="at least 1, otherwise ignored: star-set search runs on one thread")
    p.set_defaults(func=cmd_starsets)

    p = sub.add_parser("candidates", help="enumerate attachment candidates for a star complement")
    add_common(p)
    p.add_argument("--nonmain", action="store_true", help="require <b, j> = -1")
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("extend", help="maximal graphs with the given star complement")
    add_common(p)
    p.add_argument("--nonmain", action="store_true", help="require <b, j> = -1")
    p.add_argument("--regular-only", action="store_true", help="keep only regular graphs")
    p.add_argument(
        "--include-nonmaximal",
        action="store_true",
        help="also report graphs from non-maximal candidate cliques (counted against --budget)",
    )
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("theorem", help="run the cocktail-party classification check")
    p.add_argument("--s", type=int, required=True, help="clique size of the star complement")
    p.add_argument("--t-max", type=int, required=True, help="check t = 2..t_max with mu = -t")
    p.add_argument("--threads", type=int, default=1, help="search worker threads")
    p.set_defaults(func=cmd_theorem)

    p = sub.add_parser("explore", help="integer solutions of the two type constraints")
    p.add_argument("--s", required=True, help="clique-size range lo..hi (lo >= 2)")
    p.add_argument("--t", required=True, help="independent-part range lo..hi (lo >= 2)")
    p.add_argument("--mu", required=True, help="integer eigenvalue range lo..hi")
    p.set_defaults(func=cmd_explore)

    return parser


_USAGE_ERRORS = (ValueError, BudgetExceededError)


def _error_kind(exc: Exception) -> str:
    if isinstance(exc, Graph6Error):
        return "graph6-parse"
    if isinstance(exc, BudgetExceededError):
        return "budget"
    if isinstance(
        exc,
        (
            EngineRestrictionError,
            MuIsEigenvalueError,
            MuIsSplitEigenvalueError,
            NotAnEigenvalueError,
            SingularResolventError,
        ),
    ):
        return "precondition"
    return "usage"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines, code = args.func(args)
    except _USAGE_ERRORS as exc:
        envelope = {
            "schema": SCHEMA_VERSION,
            "command": args.command,
            "error": {"kind": _error_kind(exc), "detail": str(exc)},
        }
        if args.format == "json":
            print(json.dumps(envelope, indent=2, sort_keys=True))
        else:
            print(f"error ({envelope['error']['kind']}): {exc}", file=sys.stderr)
        return EXIT_USAGE
    envelope = {"schema": SCHEMA_VERSION, "command": args.command, **payload}
    if args.format == "json":
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
