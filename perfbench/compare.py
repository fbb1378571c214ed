"""Compare two result files written by ``perfbench/run.py --out``.

Usage: python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric of both runs and the relative change.  Refuses (exit 2)
when the runs used different kernel backends or workloads: numba and numpy
timings of the same code are not comparable.
"""

import json
import sys
from pathlib import Path


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(path).read_text()) for path in argv)
    for key, a, b in (
        ("backend", before["env"]["backend"], after["env"]["backend"]),
        ("workload", before["workload"], after["workload"]),
    ):
        if a != b:
            print(f"refusing to compare: {key} {a!r} vs {b!r}", file=sys.stderr)
            return 2
    print(f"workload {before['workload']}, backend {before['env']['backend']}")
    for name, m in before["result"]["metrics"].items():
        other = after["result"]["metrics"].get(name)
        if other is None:
            print(f"  {name:45s} {m['value']:>14.6g} {'(missing)':>14}")
            continue
        change = (other["value"] - m["value"]) / m["value"] if m["value"] else float("nan")
        print(f"  {name:45s} {m['value']:>14.6g} {other['value']:>14.6g} {change:+8.1%} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
