"""Command-line front end: one subcommand per pipeline, text or JSON reports.

Graphs are accepted either as graph6 strings or as the named constructions
"split:s,t" (clique joined to isolated vertices) and "cocktail:p"
(complement of p disjoint edges), so experiments stay one-liners.  All
output is deterministic.  Every search runs on one thread: --threads is
accepted (at least 1) and ignored.

A JSON report is exactly the bytes of json.dumps(report, indent=2,
sort_keys=True), written by write_json: with an indent set, json falls back
to its pure-Python encoder, which would cost a scan report more than the
scan.  A list of int rows, such as the candidates or the star sets, is
written in one pass: one str.join of the rows, each row one join of its
ints' texts from an int-to-text table, driven by map, so no Python code
runs per row or per int.  A value no report holds (a float, a non-str
key) is json.dumps' own text, re-indented.  Each command returns its text
lines as a lazy iterable, so they are only formatted in text mode.

The command line is read from one table, COMMANDS, which also writes the
usage and the help: --opt value or --opt=value (a dash-led value needs the =
form unless it is a negative number), unique prefixes, the last repetition
winning, --format before the command, -h on every command.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 (128 +
SIGPIPE) when the reader closes stdout early.  An exit-2 error is reported
with one of four kinds (_error_kind): graph6-parse for a Graph6Error,
budget for a BudgetExceededError, precondition for a PreconditionError
(SingularResolventError among them) and usage for any other ValueError.
"""

from __future__ import annotations

import json
import os
import re
import sys
from itertools import chain, repeat
from types import SimpleNamespace
from typing import Iterable, Optional

from . import __version__
from .extend import check_subset_budget, enumerate_candidates, maximal_extensions
from .graphs import MAX_VERTICES, Graph, Graph6Error, make_cocktail, make_complete_split
from .graphs import parse_graph6, write_graph6
from .linalg import (
    PreconditionError,
    char_poly,
    eig_multiplicity,
    format_rational,
    integer_roots,
    is_nonmain,
    parse_rational,
    poly_text,
)
from .multipartite import solution_explorer, theorem_check
from .starsets import DEFAULT_BUDGET, BudgetExceededError, find_star_sets, verify_star_set

SCHEMA_VERSION = "starcomp/1"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


def load_graph(spec: str, budget: Optional[int] = None) -> Graph:
    """graph6, "split:s,t" or "cocktail:p"; a construction with 2^n > budget is refused unbuilt."""
    if spec.startswith("split:"):
        try:
            s, t = (int(x) for x in spec[len("split:") :].split(","))
        except ValueError as exc:
            raise ValueError(f"bad split construction {spec!r}: want split:s,t") from exc
        if budget is not None and min(s, t) >= 1 and s + t <= MAX_VERTICES:
            check_subset_budget(s + t, budget)
        return make_complete_split(s, t)
    if spec.startswith("cocktail:"):
        try:
            p = int(spec[len("cocktail:") :])
        except ValueError as exc:
            raise ValueError(f"bad cocktail construction {spec!r}: want cocktail:p") from exc
        if budget is not None and 1 <= p <= MAX_VERTICES // 2:
            check_subset_budget(2 * p, budget)
        return make_cocktail(p)
    return parse_graph6(spec)


def parse_range(text: str) -> tuple[int, int]:
    """Parse "lo..hi" into an inclusive integer range."""
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"bad range {text!r}: want lo..hi")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"bad range {text!r}: want integers lo..hi") from exc
    if lo > hi:
        raise ValueError(f"bad range {text!r}: lo > hi")
    return lo, hi


# ---------------------------------------------------------------------------
# Subcommand payloads: (json payload, lazy text lines, exit code).  extend
# and theorem write their engine's payload as it is, explore adds its ranges
# to it, and starsets lists the certificates of one verify_star_set call over
# all its star sets unchanged; every text report is rendered from its payload.
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> tuple[dict, Iterable[str], int]:
    g = load_graph(args.graph)
    poly = char_poly(g.adj)
    roots, residual = integer_roots(poly)
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
        "char_poly": [str(c) for c in poly],
        "roots": entries,
        "residual": [str(c) for c in residual] if len(residual) > 1 else None,
    }
    lines = chain(
        [f"graph {payload['graph6']} on {g.n} vertices"],
        (
            f"  root {e['value']:>6}  multiplicity {e['multiplicity']}  "
            f"{'main' if e['main'] else 'non-main'}"
            for e in entries
        ),
        [f"  residual factor (no rational roots): {poly_text(residual)}"]
        if payload["residual"] else [],
    )
    return payload, lines, EXIT_OK


def _check_counts(args) -> None:
    """--threads must be at least 1 (every search runs on one thread anyway) and --budget,
    on the commands that take it, at least 0."""
    if args.threads < 1:
        raise ValueError(f"threads must be at least 1, got {args.threads}")
    if getattr(args, "budget", 0) < 0:
        raise ValueError(f"budget must be at least 0, got {args.budget}")


def cmd_starsets(args) -> tuple[dict, Iterable[str], int]:
    _check_counts(args)
    g = load_graph(args.graph)
    mu = parse_rational(args.mu)
    stars = find_star_sets(g, mu, budget=args.budget)
    payload = {
        "graph6": write_graph6(g),
        "mu": format_rational(mu),
        "multiplicity": eig_multiplicity(g, mu),
        "count": len(stars),
        "star_sets": [list(star) for star in stars],
        "certificates": verify_star_set(g, mu, stars),
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
    _check_counts(args)
    h = load_graph(args.graph, args.budget)
    mu = parse_rational(args.mu)
    cands = enumerate_candidates(h, mu, nonmain=args.nonmain, budget=args.budget)
    payload = {
        "H": write_graph6(h),
        "mu": format_rational(mu),
        "nonmain": args.nonmain,
        "count": len(cands),
        "candidates": cands,
    }
    lines = chain(
        [
            f"candidate attachments to {payload['H']} for mu = {payload['mu']}"
            f" ({'non-main' if args.nonmain else 'unfiltered'}): {len(cands)}"
        ],
        (f"  b = {list(c)}" for c in cands),
    )
    return payload, lines, EXIT_OK


def cmd_extend(args) -> tuple[dict, Iterable[str], int]:
    _check_counts(args)
    h = load_graph(args.graph, args.budget)
    mu = parse_rational(args.mu)
    payload = maximal_extensions(
        h,
        mu,
        nonmain=args.nonmain,
        regular_only=args.regular_only,
        budget=args.budget,
        maximal_only=not args.include_nonmaximal,
    )
    lines = chain(
        [
            f"H = {payload['H']}, mu = {payload['mu']}: "
            f"{payload['candidates']} candidates, "
            f"{len(payload['maximal'])} graph(s)"
        ],
        (
            f"  {m['graph6']}  X = {m['X']}  "
            + ("irregular" if m["regular"] is None else f"{m['regular']}-regular")
            for m in payload["maximal"]
        ),
    )
    return payload, lines, EXIT_OK


def _branch_lines(b: dict) -> Iterable[str]:
    status = "PASS" if b["passed"] else "FAIL"
    if b["t"] == 2 and b["graph6"]:
        summary = f"unique graph {b['graph6']}"
    else:
        summary = f"{b['graphs']} graphs"
    yield f"  t={b['t']} mu={b['mu']}: {status} ({b['candidates']} candidates, {summary})"
    for check in b["checks"]:
        if not check["ok"]:
            yield f"    FAILED {check['name']}: {check['detail']}"


def cmd_theorem(args) -> tuple[dict, Iterable[str], int]:
    _check_counts(args)
    payload = theorem_check(args.s, args.t_max)
    lines = chain(
        [f"classification check at s = {args.s}, t = 2..{args.t_max}"],
        chain.from_iterable(map(_branch_lines, payload["branches"])),
        ["overall: " + ("PASS" if payload["passed"] else "FAIL")],
    )
    return payload, lines, EXIT_OK if payload["passed"] else EXIT_VERIFICATION


def cmd_explore(args) -> tuple[dict, Iterable[str], int]:
    s_range = parse_range(args.s)
    t_range = parse_range(args.t)
    mu_lo, mu_hi = parse_range(args.mu)
    table = solution_explorer(s_range, t_range, range(mu_lo, mu_hi + 1))
    payload = {
        "s_range": list(s_range),
        "t_range": list(t_range),
        "mu_range": [mu_lo, mu_hi],
        **table,
    }
    lines = chain(
        [
            f"integer solutions over s={args.s}, t={args.t}, mu={args.mu} "
            f"({len(table['rows'])} rows, {table['dropped_nonintegral']} dropped non-integral, "
            f"{table['skipped_eigenvalue']} skipped eigenvalue combinations)",
            f"  {'s':>3} {'t':>3} {'mu':>5} {'a':>3} {'b':>3}  t+mu=0",
        ],
        (
            f"  {r['s']:>3} {r['t']:>3} {r['mu']:>5} {r['a']:>3} {r['b']:>3}  "
            f"{'yes' if r['t_plus_mu_zero'] else 'no'}"
            for r in table["rows"]
        ),
    )
    return payload, lines, EXIT_OK


# ---------------------------------------------------------------------------
# Driver: one table is the grammar, the usage and the help
# ---------------------------------------------------------------------------

_GRAPH = ("--graph", str, None, "graph6 string, split:s,t, or cocktail:p")
_THREADS = ("--threads", int, 1, "at least 1, otherwise ignored: every search runs on one thread")
_SEARCH = (_GRAPH, ("--mu", str, None, "rational eigenvalue, p or p/q"),
           ("--budget", int, DEFAULT_BUDGET, "subset-test budget"), _THREADS)
_NONMAIN = ("--nonmain", bool, False, "require <b, j> = -1")

# Each command's handler, help line and options; the None entry is the command line before
# the command.  An option is (name, type, default, help): str, int or a tuple of the values
# allowed take a value, bool is a flag, and a default of None makes the option required.
COMMANDS = {
    None: (None, "Exact star-complement toolkit for graph eigenvalue structure.", (
        ("--format", ("text", "json"), "text", "output format"),
        ("--version", "version", False, "print the version and exit"))),
    "spectrum": (cmd_spectrum, "factored characteristic polynomial with main/non-main tags",
                 (_GRAPH,)),
    "starsets": (cmd_starsets, "exhaustive star-set search for an eigenvalue", _SEARCH),
    "candidates": (cmd_candidates, "enumerate attachment candidates for a star complement",
                   (*_SEARCH, _NONMAIN)),
    "extend": (cmd_extend, "maximal graphs with the given star complement", (
        *_SEARCH, _NONMAIN, ("--regular-only", bool, False, "keep only regular graphs"),
        ("--include-nonmaximal", bool, False,
         "also report graphs from non-maximal candidate cliques (counted against --budget)"))),
    "theorem": (cmd_theorem, "run the cocktail-party classification check", (
        ("--s", int, None, "clique size of the star complement"),
        ("--t-max", int, None, "check t = 2..t_max with mu = -t"), _THREADS)),
    "explore": (cmd_explore, "integer solutions of the two type constraints", (
        ("--s", str, None, "clique-size range lo..hi (lo >= 2)"),
        ("--t", str, None, "independent-part range lo..hi (lo >= 2)"),
        ("--mu", str, None, "integer eigenvalue range lo..hi"))),
}
_HELP = ("-h, --help", "help", False, "print this help and exit")

# A dash-led argument is an option, known or not, unless it is "-", holds a
# space or is a negative number by this pattern, the standard library's.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _spell(option) -> str:
    name, kind = option[:2]
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    return f"{name} {name[2:].upper().replace('-', '_')}" if kind in (str, int) else name


def _usage(command: Optional[str]) -> str:
    words = [_spell(o) if o[2] is None else f"[{_spell(o)}]" for o in COMMANDS[command][2]]
    head = "starcomp" if command is None else f"starcomp {command}"
    return f"usage: {head} [-h] {' '.join(words)}" + (" COMMAND ..." if command is None else "")


def _help(command: Optional[str]) -> str:
    _, blurb, options = COMMANDS[command]
    rows = [(name, c[1]) for name, c in COMMANDS.items() if name and command is None]
    rows += [(_spell(o), o[3]) for o in (_HELP, *options)]
    width = 2 + max(len(left) for left, _ in rows)
    return "\n".join([_usage(command), "", blurb, "", *(f"  {a:<{width}}{b}" for a, b in rows)])


def _fail(command: Optional[str], message: str):
    prog = "starcomp" if command is None else f"starcomp {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _read(arg: str, table: dict, command: Optional[str]):
    """None if arg is a value, else (option, its "=" text or None); option "" if unknown."""
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in table:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and name in table:
        return name, value
    if arg[1] != "-":  # -hh... repeats -h; any other tail is a value given to -h
        hits = ["-h"] if arg[1] == "h" else []
        eq, value = arg.strip("h") != "-", arg[2:]
    else:  # a unique prefix names its option
        hits = [n for n in table if n.startswith(name)]
    if len(hits) > 1:
        _fail(command, f"ambiguous option: {arg} could match {', '.join(hits)}")
    if hits:
        return hits[0], value if eq else None
    return None if _NEGATIVE_NUMBER.match(arg) or " " in arg else ("", None)


def parse_args(argv) -> SimpleNamespace:
    """argv as a namespace: format, command, func (its handler) and one attribute per option
    of the command (--t-max is t_max); SystemExit 0 after -h or --version, 2 after a usage
    error.  All arguments are read against the options before the command, and those after
    it against the command's, before any is applied; stray values, unknown options and all
    from "--" on are an error once every option is applied."""
    args, ns, extras, seen = list(argv), SimpleNamespace(format="text", command=None), [], set()
    end = args.index("--") if "--" in args else len(args)
    command, table = None, {"-h": _HELP, "--help": _HELP, **{o[0]: o for o in COMMANDS[None][2]}}
    hits, i = [_read(arg, table, None) for arg in args[:end]], 0
    while i < end:
        hit, i = hits[i], i + 1
        if hit is None and command is None:
            if args[i - 1] not in COMMANDS:
                _fail(None, f"invalid command {args[i - 1]!r}: starcomp -h lists them")
            ns.command = command = args[i - 1]
            ns.func, _, options = COMMANDS[command]
            table = {"-h": _HELP, "--help": _HELP, **{o[0]: o for o in options}}
            ns.__dict__.update((o[0][2:].replace("-", "_"), o[2]) for o in options)
            hits[i:] = [_read(arg, table, command) for arg in args[i:end]]
            continue
        if hit is None or not hit[0]:
            extras.append(args[i - 1])
            continue
        (name, value), kind = hit, table[hit[0]][1]
        if kind in (bool, "help", "version"):
            if value is not None:
                _fail(command, f"argument {name}: ignored explicit argument {value!r}")
            if kind is not bool:
                print(_help(command) if kind == "help" else f"starcomp {__version__}")
                raise SystemExit(EXIT_OK)
            value = True
        elif value is None:
            if i == end or hits[i] is not None:
                _fail(command, f"argument {name}: expected one argument")
            value, i = args[i], i + 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _fail(command, f"argument {name}: invalid int value: {value!r}")
        if isinstance(kind, tuple) and value not in kind:
            _fail(command, f"argument {name}: {value!r} is not one of {', '.join(kind)}")
        setattr(ns, name[2:].replace("-", "_"), value)
        seen.add(name)
    if command is None:
        _fail(None, "the following arguments are required: command")
    missing = [o[0] for o in COMMANDS[command][2] if o[2] is None and o[0] not in seen]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if extras or end < len(args):
        _fail(None, f"unrecognized arguments: {' '.join(extras + args[end:])}")
    return ns


_encode_str = json.encoder.encode_basestring_ascii


# The texts of ints below this in magnitude are kept once made.
INT_TEXT_KEPT = 1 << 12


class _IntText(dict):
    """Each int's JSON text, int.__repr__, kept once made for a small int."""

    def __missing__(self, key: int) -> str:
        text = int.__repr__(key)
        if -INT_TEXT_KEPT < key < INT_TEXT_KEPT:
            self[key] = text
        return text


# Looks up by value, so True would read "1": only exact ints may be passed.
_int_text = _IntText().__getitem__


def write_json(obj, pad: str = "") -> str:
    """Exactly json.dumps(obj, indent=2, sort_keys=True), nested at `pad`.

    Lists, tuples, dicts keyed by str, strings, None, bools and ints are
    written here; anything else (a float, a dict with another key) is
    json.dumps' own text and errors, `pad` put after each newline, which a
    JSON string never holds raw.  A list of plain ints is one join of their
    texts, and a list of nonempty such lists or tuples one join of the
    rows' joins, at C speed.  An empty row, a bool, an int or list subclass
    or a nested value takes the general path, one write_json per item.
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
            body = sep.join(map(_int_text, obj))
        elif (
            set(map(type, obj)) <= {list, tuple}
            and all(obj)
            and set(map(type, chain.from_iterable(obj))) <= {int}
        ):
            # Nonempty rows of plain ints: one join of the rows, each row
            # one join of its ints' texts, all of it run by map and join.
            deeper = inner + "  "
            rows = f"\n{inner}],\n{inner}[\n{deeper}".join(
                map(f",\n{deeper}".join, map(map, repeat(_int_text), obj))
            )
            body = f"[\n{deeper}{rows}\n{inner}]"
        else:
            body = sep.join([write_json(x, inner) for x in obj])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        if not obj:
            return "{}"
        body = sep.join(
            [f"{_encode_str(k)}: {write_json(v, inner)}" for k, v in sorted(obj.items())]
        )
        return f"{{\n{inner}{body}\n{pad}}}"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)


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
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
