"""Host speed, measured by a fixed calibration loop timed next to the jobs.

The 2-core VM this benchmark was built on shares its host, and its speed
drifts between regimes up to about 1.4x apart that last for minutes: a run
of any length can fall in a slow or a fast one.  Wall time alone then measures the host.
So every job and every set-up round is bracketed by calibration rounds, and
its time is rescaled to ``CAL_REF_S``, the calibration's time on the
reference VM:

    reference seconds = wall seconds * CAL_REF_S / median(calibration)

A program change does not touch the calibration, so it shows in full.
Nothing here imports the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one calibration() on the reference VM (2-core Intel Xeon,
# Python 3.11, numpy 2.4), in a middle regime.
CAL_REF_S = 0.029
# calibration() calls per round.
CAL_REPEATS = 5


# Preallocated, so a calibration does not depend on the allocator's state:
# fresh arrays page-fault until the process's heap has grown, which made the
# first rounds of a run about 15% slower.
_BUF = np.empty(300_000)


def calibration() -> float:
    """Seconds taken by a fixed mix of numpy array work and interpreted
    scalar loops, the two kinds of work the program does."""
    start = time.perf_counter()
    np.random.default_rng(0).standard_normal(out=_BUF)
    np.exp(_BUF, out=_BUF)
    _BUF.sort()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    return time.perf_counter() - start


def calibration_round() -> list[float]:
    return [calibration() for _ in range(CAL_REPEATS)]


def factor(before: list[float], after: list[float]) -> float:
    """How much slower than the reference VM the host ran between two
    calibration rounds (above 1: slower)."""
    return statistics.median(before + after) / CAL_REF_S
