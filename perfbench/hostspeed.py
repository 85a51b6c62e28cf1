"""Host speed, measured with a fixed piece of pure-Python work.

The host that runs the benchmark shares its cores with other jobs, and its
speed drifts: :func:`reference_work` took from 6 to 14 ms on a 2-CPU
container, in spells that last from seconds to minutes, with CPU time
equal to wall time.  Such a spell moves every timing of a run together, and no
aggregation inside one run removes it.

So the benchmark times :func:`reference_work` between operations, and
scales each operation's time by ``REFERENCE_S`` over the reference time
measured around it.  The reported times are the ones the operations would
take on a host where the reference takes ``REFERENCE_S``.  The reference
work uses none of the program, so a change to the program moves the
scaled times as much as the raw ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

# The time of one reference_work() on the 2-CPU container the benchmark's
# bounds were set on, in a fast spell.  A fixed constant: it sets the scale
# of the reported times and is the same for every commit measured.
REFERENCE_S = 0.0065


def reference_work() -> int:
    """Fixed pure-Python work of the kinds the program does: closure of a
    relation held as sets of pairs, tuple-keyed dicts, recursion over
    nested tuples, sorting and string building."""
    n = 40
    succ = {i: {j for j in range(i + 1, n) if (i * 7 + j * 3) % 4 == 0} for i in range(n)}
    changed = True
    while changed:
        changed = False
        for i in range(n):
            extra = set()
            for j in succ[i]:
                extra |= succ[j]
            if not extra <= succ[i]:
                succ[i] |= extra
                changed = True
    pairs = {(i, j) for i in range(n) for j in succ[i]}
    covers = [
        (i, j) for (i, j) in pairs
        if not any((i, k) in pairs and (k, j) in pairs for k in range(i + 1, j))
    ]

    def build(depth: int, k: int):
        if depth == 0:
            return ("t", "abcd"[k % 4])
        return ("c" if k % 2 else "q", tuple(build(depth - 1, k * 3 + m) for m in range(3)))

    def flatten(t) -> tuple:
        kind, body = t
        if kind == "t":
            return (body,)
        parts = tuple(x for p in body for x in flatten(p))
        return tuple(sorted(parts)) if kind == "q" else parts

    counts: dict = {}
    for k in range(60):
        key = flatten(build(4, k))
        counts[key] = counts.get(key, 0) + 1
    text = ";".join(f"{i}<{j}" for i, j in sorted(covers))
    return len(text) + len(counts) + sum(len(k) for k in counts)


def measure() -> float:
    """Seconds of one reference_work(), with the garbage collector held
    off, so that objects the program left behind do not change it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def scale(samples: List[float]) -> float:
    """The factor that turns times measured alongside ``samples`` into
    times on the reference host."""
    return REFERENCE_S / statistics.median(samples)
