"""How fast the host runs right now, from a fixed calibration round.

On a host whose cores are shared with other virtual machines, the speed a
process gets drifts by tens of percent within minutes, CPU time included.
A child times ``ROUNDS`` calibration rounds just before and just after the
command it measures; the median round time says how fast the host ran
meanwhile, and the benchmark scales the command's times by
``REF_S / median`` into seconds of a reference host on which one round takes
``REF_S``.

A round is fixed work of the kinds starcomp spends its time on: small exact
Fractions with a dict and a sort, Gaussian elimination of a Fraction matrix,
a Bron-Kerbosch clique search over Python sets, lookups in a dict larger than
the caches, and an int64 numpy pass over a megabyte.  The Fraction-and-dict
half alone tracked the ``theorem`` and ``extend`` commands best and the rest
the ``candidates`` and ``starsets`` commands; both together tracked all four
about as well as the better half did.
The round calls no starcomp code, so a change to starcomp cannot move it: a
slower program still reads slower, a slower host does not.
"""

import random
import statistics
import time
from fractions import Fraction

import numpy as np

ROUNDS = 6
REF_S = 0.010

_rng = random.Random(1)
_N = 9
_MATRIX = [[Fraction(_rng.randint(-3, 3)) for _ in range(_N)] for _ in range(_N)]
_ADJ = {v: set() for v in range(40)}
for _v in range(40):
    for _u in range(_v + 1, 40):
        if _rng.random() < 0.5:
            _ADJ[_v].add(_u)
            _ADJ[_u].add(_v)
_TABLE = {i * 2654435761 % (1 << 32): i for i in range(1 << 15)}
_KEYS = list(_TABLE)
_rng.shuffle(_KEYS)
_KEYS = _KEYS[:6000]
_ARRAY = np.arange(1 << 17, dtype=np.int64)


def _fractions():
    acc, table = Fraction(0), {}
    for i in range(1, 1000):
        acc = Fraction(i % 7 - 3, i % 11 + 1) + (acc / 2 if i % 32 else 0)
        table[(i * 7919) % 1009] = (acc.numerator * i) % 97
    sorted(table.items(), key=lambda kv: (kv[1], kv[0]))


def _rank(m):
    m = [row[:] for row in m]
    r = 0
    for c in range(_N):
        p = next((i for i in range(r, _N) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, _N):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _cliques(r, p, x, out):
    if not p and not x:
        out.append(len(r))
        return
    u = max(p | x, key=lambda v: len(_ADJ[v] & p))
    for v in list(p - _ADJ[u]):
        _cliques(r | {v}, p & _ADJ[v], x & _ADJ[v], out)
        p = p - {v}
        x = x | {v}
        if len(out) > 60:
            return


def _round():
    _fractions()
    _rank(_MATRIX)
    _cliques(frozenset(), set(range(40)), set(), [])
    sum(_TABLE[k] for k in _KEYS)
    int(((_ARRAY * 3) & 1023).sum())


def sample():
    """Seconds of each of ROUNDS calibration rounds, run back to back."""
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        _round()
        times.append(time.perf_counter() - t0)
    return times


def scale(samples):
    """Factor from seconds measured while `samples` were taken to reference seconds."""
    return REF_S / statistics.median(samples)
