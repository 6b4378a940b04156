"""A fixed pure-Python workload that gauges the host's current speed.

On a shared host the speed of every CPU-bound program drifts by tens of
percent over minutes, as other tenants come and go.  ``run.py`` times this
kernel right before and after each timed piece of work and scales the
work's time by ``REFERENCE_S`` over the kernel's time, so that a reported
time reads as seconds at the reference speed and the drift cancels.

The kernel does what blockgraph does, in the benchmark's own code (so no
change to the program can move it): big-integer bitset clique search with
recursion, hashing of tuples and frozensets into dicts and sets, sorting,
and building and joining many small strings.  Its result is checked, so
that it cannot silently do less work.
"""

from __future__ import annotations

import random
from time import perf_counter

# Median time of one ``kernel()`` call on a 2-vCPU Intel Xeon (Python
# 3.11.7) at its usual speed; it only sets the scale of the reported times.
REFERENCE_S = 0.035

_V = 115
_rng = random.Random(20231102)
_ROWS = [0] * _V
for _u in range(_V):
    for _w in range(_u + 1, _V):
        if _rng.random() < 0.5:
            _ROWS[_u] |= 1 << _w
            _ROWS[_w] |= 1 << _u
_TUPLES = [tuple(_rng.randrange(30) for _ in range(4)) for _ in range(8000)]
del _u, _w


def _max_clique(rows) -> int:
    best = 0

    def expand(size: int, candidates: int) -> None:
        nonlocal best
        if not candidates:
            best = max(best, size)
            return
        if size + candidates.bit_count() <= best:
            return
        while candidates:
            v = candidates.bit_length() - 1
            candidates &= ~(1 << v)
            expand(size + 1, candidates & rows[v])
            if size + candidates.bit_count() <= best:
                return

    expand(0, (1 << len(rows)) - 1)
    return best


def kernel() -> tuple:
    omega = _max_clique(_ROWS)
    counts: dict = {}
    for t in _TUPLES:
        key = frozenset(t)
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(_TUPLES, key=lambda t: (t[3], t[1], t))
    text = "\n".join(" ".join(str(x) for x in t) for t in ordered)
    return omega, len(counts), len(text)


EXPECTED = kernel()


def seconds(calls: int = 3) -> float:
    """Median time of ``calls`` kernel runs."""
    times = []
    for _ in range(calls):
        start = perf_counter()
        result = kernel()
        times.append(perf_counter() - start)
        if result != EXPECTED:
            raise RuntimeError(f"calibration kernel gave {result}, expected {EXPECTED}")
    times.sort()
    return times[len(times) // 2]
