"""Command-line front end: one subcommand per pipeline, text or JSON reports.

Graphs are accepted either as graph6 strings or as the named constructions
"split:s,t" (clique joined to isolated vertices) and "cocktail:p"
(complement of p disjoint edges), so experiments stay one-liners.  All
output is deterministic.  Every search runs on one thread: --threads is
accepted (at least 1) and ignored.

A JSON report is exactly the bytes of json.dumps(report, indent=2,
sort_keys=True), written by write_json: with an indent set, json falls back
to its pure-Python encoder, which would cost a scan report more than the
scan.  Each command returns its text lines as a lazy iterable, so they are
only formatted in text mode.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 (128 +
SIGPIPE) when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from typing import Iterable

from .extend import enumerate_candidates, maximal_extensions
from .graphs import Graph, Graph6Error, make_cocktail, make_complete_split, parse_graph6, write_graph6
from .linalg import (
    PreconditionError,
    adjacency_matrix,
    char_poly,
    eig_multiplicity,
    format_rational,
    is_nonmain,
    parse_rational,
)
from .multipartite import solution_explorer, theorem_check
from .starsets import DEFAULT_BUDGET, BudgetExceededError, find_star_sets, verify_star_set

SCHEMA_VERSION = "starcomp/1"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


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
# Subcommand payloads: (json payload, lazy text lines, exit code)
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> tuple[dict, Iterable[str], int]:
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
    lines = chain(
        [f"graph {payload['graph6']} on {g.n} vertices"],
        (
            f"  root {e['value']:>6}  multiplicity {e['multiplicity']}  "
            f"{'main' if e['main'] else 'non-main'}"
            for e in entries
        ),
        [f"  residual factor (no rational roots): {residual}"] if residual.degree > 0 else [],
    )
    return payload, lines, EXIT_OK


def _check_threads(args) -> None:
    """--threads must be at least 1; every search runs on one thread anyway."""
    if args.threads < 1:
        raise ValueError(f"threads must be at least 1, got {args.threads}")


def cmd_starsets(args) -> tuple[dict, Iterable[str], int]:
    _check_threads(args)
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
    lines = chain(
        [
            f"mu = {payload['mu']} has multiplicity "
            f"{payload['multiplicity']} in {payload['graph6']}",
            f"star sets found: {len(stars)}",
        ],
        (f"  X = {list(star)}" for star in stars),
    )
    return payload, lines, EXIT_OK


def cmd_candidates(args) -> tuple[dict, Iterable[str], int]:
    _check_threads(args)
    h = load_graph(args.graph)
    mu = parse_rational(args.mu)
    cands = enumerate_candidates(h, mu, nonmain=args.nonmain, budget=args.budget)
    payload = {
        "H": write_graph6(h),
        "mu": format_rational(mu),
        "nonmain": args.nonmain,
        "count": len(cands),
        "candidates": [c.vertices for c in cands],  # write_json takes the tuples
    }
    lines = chain(
        [
            f"candidate attachments to {payload['H']} for mu = {payload['mu']}"
            f" ({'non-main' if args.nonmain else 'unfiltered'}): {len(cands)}"
        ],
        (f"  b = {list(c.vertices)}" for c in cands),
    )
    return payload, lines, EXIT_OK


def cmd_extend(args) -> tuple[dict, Iterable[str], int]:
    _check_threads(args)
    h = load_graph(args.graph)
    mu = parse_rational(args.mu)
    report = maximal_extensions(
        h,
        mu,
        nonmain=args.nonmain,
        regular_only=args.regular_only,
        budget=args.budget,
        maximal_only=not args.include_nonmaximal,
    )
    payload = report.to_json()
    lines = chain(
        [
            f"H = {payload['H']}, mu = {payload['mu']}: "
            f"{len(report.candidates)} candidates, "
            f"{len(report.maximal_graphs)} graph(s)"
        ],
        (
            f"  {write_graph6(m.graph)}  X = {list(m.star_vertices)}  "
            f"{'irregular' if m.regular is None else f'{m.regular}-regular'}"
            for m in report.maximal_graphs
        ),
    )
    return payload, lines, EXIT_OK


def _branch_lines(b) -> Iterable[str]:
    status = "PASS" if b.passed else "FAIL"
    summary = f"unique graph {b.graph6}" if b.t == 2 and b.graph6 else f"{b.graphs_found} graphs"
    yield f"  t={b.t} mu={format_rational(b.mu)}: {status} ({b.candidates} candidates, {summary})"
    for name, ok, detail in b.checks:
        if not ok:
            yield f"    FAILED {name}: {detail}"


def cmd_theorem(args) -> tuple[dict, Iterable[str], int]:
    _check_threads(args)
    report = theorem_check(args.s, args.t_max)
    payload = report.to_json()
    lines = chain(
        [f"classification check at s = {args.s}, t = 2..{args.t_max}"],
        chain.from_iterable(map(_branch_lines, report.branches)),
        ["overall: " + ("PASS" if report.passed else "FAIL")],
    )
    return payload, lines, EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_explore(args) -> tuple[dict, Iterable[str], int]:
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
    lines = chain(
        [
            f"integer solutions over s={args.s}, t={args.t}, mu={args.mu} "
            f"({len(table.rows)} rows, {table.dropped_nonintegral} dropped non-integral, "
            f"{table.skipped_eigenvalue} skipped eigenvalue combinations)",
            f"  {'s':>3} {'t':>3} {'mu':>5} {'a':>3} {'b':>3}  t+mu=0",
        ],
        (
            f"  {r.s:>3} {r.t:>3} {format_rational(r.mu):>5} {r.a:>3} {r.b:>3}  "
            f"{'yes' if r.degenerate_linear else 'no'}"
            for r in table.rows
        ),
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

    threads_help = "at least 1, otherwise ignored: every search runs on one thread"

    def add_common(p, mu=True):
        p.add_argument("--graph", required=True, help="graph6 string, split:s,t, or cocktail:p")
        if mu:
            p.add_argument("--mu", required=True, help="rational eigenvalue, p or p/q")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="subset-test budget")
        p.add_argument("--threads", type=int, default=1, help=threads_help)

    p = sub.add_parser("spectrum", help="factored characteristic polynomial with main/non-main tags")
    p.add_argument("--graph", required=True, help="graph6 string, split:s,t, or cocktail:p")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("starsets", help="exhaustive star-set search for an eigenvalue")
    add_common(p)
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
    p.add_argument("--threads", type=int, default=1, help=threads_help)
    p.set_defaults(func=cmd_theorem)

    p = sub.add_parser("explore", help="integer solutions of the two type constraints")
    p.add_argument("--s", required=True, help="clique-size range lo..hi (lo >= 2)")
    p.add_argument("--t", required=True, help="independent-part range lo..hi (lo >= 2)")
    p.add_argument("--mu", required=True, help="integer eigenvalue range lo..hi")
    p.set_defaults(func=cmd_explore)

    return parser


_encode_str = json.encoder.encode_basestring_ascii


def _write_key(key) -> str:
    # json writes an int, float, bool or None key as the string of its JSON
    # text and rejects other types; a one-key dump gives its bytes and errors.
    if isinstance(key, str):
        return _encode_str(key)
    return json.dumps({key: 0})[1:-4]


def write_json(obj, pad: str = "") -> str:
    """Exactly json.dumps(obj, indent=2, sort_keys=True), nested at `pad`.

    Containers, strings, None, bools and ints are written here, a list of
    plain ints as one join and a list of such lists as one join of those;
    floats and anything else go to json.dumps, so their bytes and errors are
    json's own.  A bool or an int or list subclass takes the general path.
    """
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            body = sep.join(map(int.__repr__, obj))
        elif set(map(type, obj)) <= {list, tuple} and set(
            map(type, chain.from_iterable(obj))
        ) <= {int}:
            deeper = inner + "  "
            head, row_sep, tail = f"[\n{deeper}", ",\n" + deeper, f"\n{inner}]"
            body = sep.join(
                [head + row_sep.join(map(int.__repr__, row)) + tail if row else "[]" for row in obj]
            )
        else:
            body = sep.join([write_json(x, inner) for x in obj])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = sep.join(
            [f"{_write_key(k)}: {write_json(v, inner)}" for k, v in sorted(obj.items())]
        )
        return f"{{\n{inner}{body}\n{pad}}}"
    return json.dumps(obj)


_USAGE_ERRORS = (ValueError, BudgetExceededError)


def _error_kind(exc: Exception) -> str:
    if isinstance(exc, Graph6Error):
        return "graph6-parse"
    if isinstance(exc, BudgetExceededError):
        return "budget"
    if isinstance(exc, PreconditionError):
        return "precondition"
    return "usage"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines, code = args.func(args)
    except _USAGE_ERRORS as exc:
        kind = _error_kind(exc)
        if args.format != "json":
            print(f"error ({kind}): {exc}", file=sys.stderr)
            return EXIT_USAGE
        payload, code = {"error": {"kind": kind, "detail": str(exc)}}, EXIT_USAGE
    if args.format == "json":
        text = write_json({"schema": SCHEMA_VERSION, "command": args.command, **payload})
    else:
        text = "\n".join(lines)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Python flushes stdout again at exit,
        # so point it at devnull for that flush to succeed silently.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
