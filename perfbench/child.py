"""Run one starcomp command in a fresh interpreter and report what it cost.

Usage: python child.py SPAWN_TIME < spec.json

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, ``import starcomp.cli`` and
``kernels.warmup()``.  The spec is ``{"argv": [...], "trace": bool}``; argv
excludes ``--format json``, which is always passed.  The report is one JSON
object on stdout: exit code, captured command stdout, set-up, wall and CPU
seconds of ``cli.main``, peak RSS, backend, and with tracing the layer rows
and cache statistics.  Times are as measured; ``host_scale``, from
calibration rounds run just before and just after ``cli.main``
(perfbench/hostspeed.py), converts them to reference-host seconds.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _cpu():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main():
    spawn = float(sys.argv[1])
    spec = json.load(sys.stdin)

    import numpy
    from starcomp import cli, kernels, linalg

    kernels.warmup()
    setup_s = time.monotonic() - spawn

    import hostspeed  # this script's directory is on sys.path

    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()

    speed = hostspeed.sample()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cpu0 = _cpu()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(["--format", "json", *spec["argv"]])
            else:
                code = tracer.call("cli", cli.main, (["--format", "json", *spec["argv"]],), {})
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:  # a crash is a failed command, reported with its traceback
            traceback.print_exc()
            code = "exception"
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu() - cpu0
    speed += hostspeed.sample()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {
        "exit": code,
        "stdout": out.getvalue(),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_kib / 1024,
        "host_scale": hostspeed.scale(speed),
        "backend": kernels.BACKEND,
        "numpy": numpy.__version__,
        "starcomp_file": cli.__file__,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.layers()
        report["caches"] = {
            name: list(getattr(linalg, name).cache_info()[:2])
            for name in ("resolvent_inverse", "graph_min_poly")
        }
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
