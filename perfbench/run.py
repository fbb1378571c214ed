"""Pipeline benchmark for starcomp: whole CLI commands, timed end to end and per module.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --record     # rewrite perfbench/reference.json (seed 0)

Each workload is a fixed list of ``starcomp`` commands.  A repetition runs
every command once with ``--threads 1`` and once with ``--threads 2`` (where
the subcommand takes it), each in a fresh interpreter (perfbench/child.py)
that imports ``starcomp`` from ``src/``, calls ``kernels.warmup()`` and then
times ``cli.main(argv)`` with ``--format json``.  Fresh processes matter: the
canonical-form cache and the ``lru_cache`` resolvent and minimal-polynomial
caches live for the process, and a CLI user pays them cold on every run.
Repetitions run back to back (a closed loop, one client) for as many as fit
in ``--seconds`` (at least one); metrics are medians over repetitions.

Workloads, why each was chosen, and the layer it should move:

* ``classify``: ``theorem --s 8 --t-max 6``, the paper's classification of
  regular graphs with a complete split star complement.  Dominated by
  assembly (``resolvent_via_minpoly`` recomputed per ``assemble_graph``) and
  ``canonical_form``; the subset scan is a small share.  Moves with
  ``extend.assemble_graph``, ``linalg.resolvent_via_minpoly`` and
  ``graphs.canonical_form``.
* ``extend``: ``extend --graph split:8,3 --mu=-3`` in main mode with no
  ``--regular-only``: many cliques collapse to few graphs.  The only workload
  through ``maximal_extensions`` with the regular filter off, so a
  regular-first shortcut that helps ``classify`` must not cost it.  Moves
  with ``extend.build_compat_graph``, ``extend.maximal_cliques`` and
  ``extend.assemble_graph``.
* ``scan``: three ``candidates`` runs.  ``split:6,13 --mu=-2`` and
  ``split:15,4 --mu=-4 --nonmain`` sweep 2^19 masks through the int64
  kernel (the second with the ``<b,j>`` test); ``split:4,8 --mu=-5/2
  --nonmain`` has a non-integral resolvent and runs the pure-Fraction
  ``_subset_scan_exact``.  Kernel-bound with no assembly, and the one
  workload whose dominant layer shards across threads, so it is where
  ``wall_2t_s`` means most.  Moves with ``kernels.subset_scan_int64`` and
  ``extend.enumerate_candidates``; widening the int64 path at the cost of
  the exact path shows here.
* ``starsets``: ``spectrum --graph cocktail:10``, ``starsets --graph
  cocktail:6 --mu=-2`` (792 subsets, 192 certificates) and ``starsets``
  on the Petersen graph with mu = 1.  Linear-algebra and rank bound; never
  runs the extension engine.  Moves with ``starsets.verify_star_set``,
  ``kernels.try_int_rank``, ``linalg.char_poly`` and ``cli.self_s`` (JSON
  serialisation of the certificates).

Inputs.  ``--seed`` picks a vertex relabelling of every ``--graph`` input,
which is passed as graph6; seed 0 is the identity.  Canonical-form search and
the Gray-code scan both depend on labels, so speed-ups keyed to vertex order
show up on other seeds.

Correctness.  perfbench/reference.json holds, per command at seed 0, the
exit code, the sha256 of stdout and a label-invariant summary (candidate,
star-set and graph counts, multiplicities, canonical forms of reported
graphs).  Every run checks exit codes and summaries, at seed 0 also the
digest, and the ``--threads 2`` stdout must equal the ``--threads 1`` stdout
byte for byte.  Each mismatch counts in ``failed``.

Host speed.  On a host whose cores are shared with other virtual machines,
the speed a process gets drifts by tens of percent within minutes, CPU time
included.  So every child also times fixed calibration rounds that call no starcomp code
just before and just after ``cli.main`` (perfbench/hostspeed.py), and its
times are scaled into seconds of a reference host on which one round takes
``hostspeed.REF_S``.  Every time metric, per-layer ones too, is in those
seconds.  A change to starcomp cannot move the calibration, so a slower
program still reads slower; a slower host does not.  ``--out`` keeps the
unscaled ``raw_wall_s`` and ``raw_wall_2t_s`` and the factors per
repetition.

End-to-end metrics (``--trace 0``), medians over repetitions:
``wall_s`` (sum over the commands of the time in ``cli.main``, one thread),
``cpu_s`` (user+sys CPU over the same spans), ``wall_2t_s`` (``wall_s`` with
``--threads 2``; a subcommand without that option is not run again and
counts its one-thread time), ``setup_s`` (interpreter start through import
and warmup, median over every child) and ``peak_rss_mib`` (largest child
peak RSS).

Per-layer metrics (``--trace 1``) come from separate traced repetitions
(perfbench/tracer.py), alternated with untraced ones; ``trace.overhead_s``
is traced minus untraced ``wall_s``.  The run fails, printing no result, if a
wrapped name has vanished or a layer the workload must use recorded no call.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the run environment (backend, versions, nproc,
``STARCOMP_PURE_NUMPY``).  ``--out FILE`` also writes both with the
per-repetition numbers, which perfbench/compare.py compares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import TraceError, layer_metrics  # this script's directory is on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

WORKLOADS = {
    "classify": [["theorem", "--s", "8", "--t-max", "6"]],
    "extend": [["extend", "--graph", "split:8,3", "--mu=-3"]],
    "scan": [
        ["candidates", "--graph", "split:6,13", "--mu=-2"],
        ["candidates", "--graph", "split:15,4", "--mu=-4", "--nonmain"],
        ["candidates", "--graph", "split:4,8", "--mu=-5/2", "--nonmain"],
    ],
    "starsets": [
        ["spectrum", "--graph", "cocktail:10"],
        ["starsets", "--graph", "cocktail:6", "--mu=-2"],
        ["starsets", "--graph", "IheA@GUAo", "--mu=1"],
    ],
}

# Spans each workload must record at least one call of (tracer self-check).
MUST_RUN = {
    "classify": [
        "multipartite.theorem_check", "extend.enumerate_candidates", "kernels.subset_scan_int64",
        "extend.build_compat_graph", "extend.maximal_cliques", "extend.assemble_graph",
        "linalg.resolvent_via_minpoly", "graphs.canonical_form", "graphs.is_isomorphic",
        "starsets.verify_star_set", "linalg.char_poly", "kernels.try_int_rank",
    ],
    "extend": [
        "extend.enumerate_candidates", "kernels.subset_scan_int64", "extend.build_compat_graph",
        "extend.maximal_cliques", "extend.assemble_graph", "linalg.resolvent_via_minpoly",
        "graphs.canonical_form", "starsets.verify_star_set",
    ],
    "scan": [
        "extend.enumerate_candidates", "kernels.subset_scan_int64", "extend.subset_scan_exact",
    ],
    "starsets": [
        "starsets.find_star_sets", "starsets.verify_star_set", "kernels.try_int_rank",
        "linalg.char_poly", "linalg.eig_multiplicity",
    ],
}

# Subcommands that accept --threads.
THREADED = {"theorem", "extend", "candidates", "starsets"}

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "wall_2t_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
}

CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def _import_starcomp():
    if not (SRC / "starcomp" / "cli.py").is_file():
        raise BenchError(f"no starcomp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from starcomp import cli, graphs

    return cli, graphs


# ---------------------------------------------------------------------------
# Inputs and correctness
# ---------------------------------------------------------------------------


def relabelled(argv, seed, cli, graphs):
    """argv with every --graph value replaced by graph6 of a seeded relabelling."""
    out = list(argv)
    for i, arg in enumerate(argv[:-1]):
        if arg == "--graph":
            spec = argv[i + 1]
            g = cli.load_graph(spec)
            perm = list(range(g.n))
            if seed:
                random.Random(f"{seed}/{spec}").shuffle(perm)
            out[i + 1] = graphs.write_graph6(graphs.relabel(g, perm))
    return out


def summarize(stdout, graphs):
    """Label-invariant digest of one command's JSON report (None if unparsable)."""
    try:
        return _summary(json.loads(stdout), graphs)
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


def _summary(doc, graphs):
    if "error" in doc:
        return {"error": doc["error"]["kind"]}
    cmd = doc["command"]
    if cmd == "theorem":
        summary = doc
    elif cmd == "spectrum":
        summary = {k: doc[k] for k in ("n", "char_poly", "roots", "residual")}
    elif cmd == "starsets":
        summary = {
            "mu": doc["mu"],
            "multiplicity": doc["multiplicity"],
            "count": doc["count"],
            "sizes": sorted(Counter(len(x) for x in doc["star_sets"]).items()),
            "valid": sum(c["valid"] for c in doc["certificates"]),
        }
    elif cmd == "candidates":
        summary = {
            "mu": doc["mu"],
            "nonmain": doc["nonmain"],
            "count": doc["count"],
            "sizes": sorted(Counter(len(c) for c in doc["candidates"]).items()),
        }
    elif cmd == "extend":
        summary = {
            "mu": doc["mu"],
            "candidates": doc["candidates"],
            "filters": doc["filters"],
            "maximal": sorted(
                [
                    graphs.canonical_form(graphs.parse_graph6(m["graph6"])).decode(),
                    len(m["X"]),
                    m["regular"],
                ]
                for m in doc["maximal"]
            ),
        }
    else:
        raise BenchError(f"no summary defined for command {cmd!r}")
    return json.loads(json.dumps(summary))  # tuples to lists, as stored


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check(report, ref, seed, graphs):
    """Mismatches of one command's report against its seed-0 reference."""
    bad = []
    if report["exit"] != ref["exit"]:
        bad.append(f"exit {report['exit']} != {ref['exit']}")
    if seed == 0 and sha256(report["stdout"]) != ref["sha256"]:
        bad.append("stdout digest differs from reference")
    if summarize(report["stdout"], graphs) != ref["summary"]:
        bad.append("label-invariant summary differs from reference")
    return bad


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def run_child(argv, trace):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-s", str(HERE / "child.py"), repr(spawn)],
        input=json.dumps({"argv": argv, "trace": trace}),
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"child failed on {argv[:1]}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout)
    if not Path(report["starcomp_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"starcomp imported from {report['starcomp_file']}, not {SRC}")
    return report


class Run:
    """Repetitions of one workload at one seed, with their checks."""

    def __init__(self, workload, seed, reference, cli, graphs):
        self.workload = workload
        self.seed = seed
        self.graphs = graphs
        self.commands = [
            (relabelled(ref["argv"], seed, cli, graphs), ref) for ref in reference[workload]
        ]
        self.attempted = 0
        self.failures = []
        self.env = None

    def _run(self, argv, ref, trace):
        report = run_child(argv, trace)
        self.attempted += 1
        bad = check(report, ref, self.seed, self.graphs)
        self.failures.extend(f"{argv[0]}: {b}" for b in bad)
        if self.env is None:
            self.env = {"backend": report["backend"], "numpy": report["numpy"]}
        return report

    def plain_rep(self, threaded):
        """One untraced repetition; with `threaded`, also the --threads 2 pass."""
        rep = {"wall_s": 0.0, "cpu_s": 0.0, "wall_2t_s": 0.0, "setup": [], "peak_rss_mib": 0.0,
               "raw_wall_s": 0.0, "raw_wall_2t_s": 0.0, "host_scale": []}
        for argv, ref in self.commands:
            r1 = self._run(argv, ref, False)
            k1 = r1["host_scale"]
            rep["wall_s"] += r1["wall_s"] * k1
            rep["cpu_s"] += r1["cpu_s"] * k1
            rep["setup"].append(r1["setup_s"] * k1)
            rep["raw_wall_s"] += r1["wall_s"]
            rep["host_scale"].append(k1)
            rep["peak_rss_mib"] = max(rep["peak_rss_mib"], r1["peak_rss_mib"])
            if threaded and argv[0] not in THREADED:
                rep["wall_2t_s"] += r1["wall_s"] * k1  # no --threads option: the same run
                rep["raw_wall_2t_s"] += r1["wall_s"]
            elif threaded:
                r2 = self._run(argv + ["--threads", "2"], ref, False)
                if r2["stdout"] != r1["stdout"] or r2["exit"] != r1["exit"]:
                    self.failures.append(f"{argv[0]}: --threads 2 output differs from --threads 1")
                k2 = r2["host_scale"]
                rep["wall_2t_s"] += r2["wall_s"] * k2
                rep["raw_wall_2t_s"] += r2["wall_s"]
                rep["setup"].append(r2["setup_s"] * k2)
                rep["host_scale"].append(k2)
        return rep

    def traced_rep(self):
        """One traced repetition: summed span rows, counts and cache statistics."""
        wall = 0.0
        spans, counts, caches = {}, Counter(), {}
        for argv, ref in self.commands:
            r = self._run(argv, ref, True)
            k = r["host_scale"]
            wall += r["wall_s"] * k
            for name, (incl, self_s, calls) in r["layers"]["spans"].items():
                acc = spans.setdefault(name, [0.0, 0.0, 0])
                acc[0] += incl * k
                acc[1] += self_s * k
                acc[2] += calls
            counts.update(r["layers"]["counts"])
            for name, (hits, misses) in r["caches"].items():
                h, m = caches.get(name, (0, 0))
                caches[name] = (h + hits, m + misses)
        missing = [n for n in MUST_RUN[self.workload] if spans.get(n, [0, 0, 0])[2] == 0]
        if missing:
            raise TraceError(f"{self.workload}: no calls recorded for {', '.join(missing)}")
        return {"wall_s": wall, "layers": {"spans": spans, "counts": dict(counts)}, "caches": caches}


def measure(workload, seed, seconds, trace, reference):
    """Run repetitions for `seconds`; return (result line, environment, repetitions)."""
    cli, graphs = _import_starcomp()
    run = Run(workload, seed, reference, cli, graphs)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run.plain_rep(threaded=not trace))
        if trace:
            traced.append(run.traced_rep())
        elapsed = time.monotonic() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break  # stop before a repetition that would overrun --seconds

    if trace:
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        per_rep = [
            layer_metrics(r["layers"], r["caches"], r["wall_s"], untraced_wall) for r in traced
        ]
        metrics = {
            name: {"value": statistics.median(m[name][0] for m in per_rep), "unit": unit}
            for name, (_, unit) in per_rep[0].items()
        }
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "wall_2t_s": statistics.median(r["wall_2t_s"] for r in plain),
            "setup_s": statistics.median(s for r in plain for s in r["setup"]),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    env = dict(
        run.env,
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        STARCOMP_PURE_NUMPY=os.environ.get("STARCOMP_PURE_NUMPY") is not None,
        repetitions=len(plain) + len(traced),
        host_scale=statistics.median(k for r in plain for k in r["host_scale"]),
    )
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    return result, env, {"plain": plain, "traced": traced}


def record(workloads):
    """Exit code, digest and summary of every command at seed 0, per workload."""
    cli, graphs = _import_starcomp()
    reference = {}
    for workload, commands in workloads.items():
        reference[workload] = []
        for argv in commands:
            report = run_child(relabelled(argv, 0, cli, graphs), False)
            if report["exit"] != 0:
                raise BenchError(f"{argv} exits {report['exit']}; workloads must not fail")
            reference[workload].append(
                {
                    "argv": argv,
                    "exit": report["exit"],
                    "sha256": sha256(report["stdout"]),
                    "summary": summarize(report["stdout"], graphs),
                }
            )
            print(f"{workload}: {' '.join(argv)}  {report['wall_s']:.2f} s", file=sys.stderr)
    return reference


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write environment and per-repetition numbers here")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json at seed 0")
    args = parser.parse_args(argv)
    try:
        if args.record:
            REFERENCE.write_text(json.dumps(record(WORKLOADS), indent=1, sort_keys=True) + "\n")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        reference = json.loads(REFERENCE.read_text())
        if [ref["argv"] for ref in reference[args.workload]] != WORKLOADS[args.workload]:
            raise BenchError(f"reference.json is stale for {args.workload}: rerun --record")
        result, env, reps = measure(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    except Exception as exc:  # no result line on any failure to measure
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "env": env, "result": result, "reps": reps},
                indent=1,
            )
        )
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
