"""Host-speed reference: fixed pure-Python work timed next to the program.

The benchmark runs on shared hosts whose speed moves by tens of percent
over minutes, and CPU time moves with wall time, so neither is steady on
its own.  The reference work below is independent of ``inertia_bounds``
and does the same kind of work its hot paths do (rational elimination,
adjacency sets, small lists), so a slower host slows both alike.  Each
timed unit of the program is scaled by ``REFERENCE_S`` over the
reference's call time measured right before and right after it: the
result reads as the unit's time on a host where one reference call
takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Seconds one reference call takes on an unloaded 2-vCPU Xeon VM
# (Python 3.11.7), the speed every normalised time is expressed at.
REFERENCE_S = 0.0013

_N = 9
# A fixed symmetric integer matrix: a 9-cycle plus chords, with a diagonal
# that forces both 1x1 pivots and fraction growth.
_MATRIX = [[((i * 7 + j * 7 + i * j) % 5) - 2 if i != j else (i % 3) - 1 for j in range(_N)] for i in range(_N)]
for _i in range(_N):
    for _j in range(_i):
        _MATRIX[_i][_j] = _MATRIX[_j][_i]
_ADJ = {v: {(v + 1) % 24, (v - 1) % 24, (v * 5) % 24} - {v} for v in range(24)}


def _signature() -> tuple[int, int, int]:
    m = [[Fraction(x) for x in row] for row in _MATRIX]
    active = list(range(_N))
    p = n = 0
    while active:
        pivot = next((i for i in active if m[i][i]), None)
        if pivot is None:
            break
        d = m[pivot][pivot]
        if d > 0:
            p += 1
        else:
            n += 1
        rest = [i for i in active if i != pivot]
        prow = m[pivot]
        for i in rest:
            ci = m[i][pivot]
            if ci:
                f = ci / d
                mi = m[i]
                for j in rest:
                    if prow[j]:
                        mi[j] -= f * prow[j]
        active = rest
    return p, n, len(active)


def _components() -> int:
    seen: set[int] = set()
    count = 0
    for start in _ADJ:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            for w in sorted(_ADJ[stack.pop()]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def reference_call() -> tuple:
    """One unit of reference work; the result is returned so it is computed."""
    return _signature(), sum(_components() for _ in range(30))


def slowness(budget_s: float) -> float:
    """Run the reference for at least ``budget_s`` (at least one call).

    Returns its mean call time over ``REFERENCE_S``: how much slower than
    nominal the host is right now.
    """
    clock = time.perf_counter
    calls, start = 0, clock()
    while True:
        reference_call()
        calls += 1
        elapsed = clock() - start
        if elapsed >= budget_s:
            return elapsed / calls / REFERENCE_S
