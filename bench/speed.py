"""A fixed reference computation that gauges the machine's current speed.

The benchmark runs on a share of a host whose load changes from minute to
minute: the same query, or the same set-up, can take 1.7 times as long in
one run as in another a few minutes later, which no amount of repetition
inside one run removes.  So before each timed query the benchmark times
`reference`, a fixed computation that does not touch rewardsep: exact
rational elimination, a JSON round trip and a small numpy solve, the kinds
of work the workloads do.  Each query time is then scaled by
STANDARD_MS over the median reference time of the runs around it, which
gives it in milliseconds at a standard speed: the speed at which the
reference takes STANDARD_MS.  The raw times are printed beside them.
"""

from __future__ import annotations

import json
import random
import statistics
from fractions import Fraction
from time import perf_counter

import gen

STANDARD_MS = 1.0    # about the reference's time on an unloaded 2-CPU machine
WINDOW = 8           # reference runs on each side that set a query's scale
SETUP_SAMPLES = 100  # reference runs after a set-up

_rng = random.Random("bench/reference")
_SYSTEM = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(9)] for _ in range(9)]
_RHS = [Fraction(_rng.randint(-9, 9)) for _ in range(9)]
_DOC = {f"s{i}": {f"a{j}": str(Fraction(_rng.randint(1, 99), 97)) for j in range(3)}
        for i in range(40)}
_MATRIX = [[4.0 * (i == j) + _rng.random() for j in range(8)] for i in range(8)]
_VECTOR = [float(i) for i in range(8)]


def reference() -> float:
    """Seconds one run of the reference computation takes now."""
    # Imported here, where rewardsep has already imported it, so that the
    # import stays part of the set-up being timed.
    import numpy as np

    start = perf_counter()
    gen.solve_exact(_SYSTEM, _RHS)
    json.loads(json.dumps(_DOC))
    np.linalg.solve(np.array(_MATRIX), np.array(_VECTOR))
    return perf_counter() - start


def scales(samples) -> list:
    """For each reference sample, the factor that turns a time taken next
    to it into one at the standard speed."""
    out = []
    for i in range(len(samples)):
        window = samples[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(STANDARD_MS / 1000.0 / statistics.median(window))
    return out


def setup_scale() -> float:
    """The factor for a set-up that has just finished."""
    return STANDARD_MS / 1000.0 / statistics.median(reference() for _ in range(SETUP_SAMPLES))
