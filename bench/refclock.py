"""Reference-scaled timing.

The host's speed drifts by up to 2x in phases lasting seconds (measured:
a fixed loop took 8 to 18 ms per call), and the drift shows in CPU time as
much as in wall time. Each timed piece of work is therefore bracketed by
runs of a fixed pure-Python reference, and reported as its raw time times
REF_SECONDS over the mean of the reference times before and after it: the
time the work would take on a host where the reference takes REF_SECONDS.

The reference is the geometric mean of three small kernels, chosen because
together they slowed by the same factor as counting operations did across
the host's slow and fast phases (one kernel alone was off by up to 1.5x in
either direction): a frozen copy of a tiny DPLL model counter, a loop of
short function calls, and a loop of small tuple, set and dict operations.
None of them touches aspsubcount, so a change to the program cannot move
the reference.
"""

import math
import random
import time

# Scaled times read as seconds on a host where the reference takes this long.
REF_SECONDS = 0.004


def _reduce(clauses, lit):
    out = []
    neg = -lit
    for clause in clauses:
        if lit in clause:
            continue
        if neg in clause:
            kept = tuple(x for x in clause if x != neg)
            if not kept:
                return None
            out.append(kept)
        else:
            out.append(clause)
    return out


def _count(clauses, free):
    free = set(free)
    while True:
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        clauses = _reduce(clauses, unit)
        if clauses is None:
            return 0
        free.discard(abs(unit))
    if not clauses:
        return 1 << len(free)
    occurrences = {}
    for clause in clauses:
        for lit in clause:
            occurrences[abs(lit)] = occurrences.get(abs(lit), 0) + 1
    var = max(occurrences, key=lambda v: (occurrences[v], -v))
    total = 0
    for lit in (var, -var):
        reduced = _reduce(clauses, lit)
        if reduced is not None:
            total += _count(reduced, free - {var})
    return total


_rng = random.Random(7)
_CNF = [
    tuple(v if _rng.random() < 0.5 else -v for v in _rng.sample(range(1, 15), 3))
    for _ in range(40)
]
_CNF_MODELS = _count(_CNF, range(1, 15))


def _kernel_dpll():
    for _ in range(5):
        if _count(_CNF, range(1, 15)) != _CNF_MODELS:
            raise AssertionError("reference counter drifted")


def _pair(a, b):
    return (a, b) if a < b else (b, a)


def _kernel_calls():
    acc = 0
    for i in range(25_000):
        acc += _pair(i & 31, 17)[0]
    return acc


def _kernel_small():
    acc = 0
    for i in range(2_500):
        t = (i & 15, -(i & 7), 3)
        seen = {abs(v) for v in t}
        signs = {v: v > 0 for v in t}
        acc += len(seen) + len(signs) + sum(1 for v in t if signs.get(v))
    return acc


def reference() -> float:
    """Geometric mean of the three kernels' times, in seconds."""
    logs = 0.0
    for kernel in (_kernel_dpll, _kernel_calls, _kernel_small):
        start = time.perf_counter()
        kernel()
        logs += math.log(time.perf_counter() - start)
    return math.exp(logs / 3)


class ScaledClock:
    """Times work between reference runs. The reference after one piece of
    work serves as the reference before the next."""

    def __init__(self):
        self.previous = reference()

    def measure(self, work):
        """Run ``work()``; return (its result, raw seconds, scale factor)."""
        start = time.perf_counter()
        result = work()
        raw = time.perf_counter() - start
        after = reference()
        factor = REF_SECONDS / ((self.previous + after) / 2)
        self.previous = after
        return result, raw, factor
