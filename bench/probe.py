"""Fixed reference computations that gauge the machine's speed around each operation.

On a shared virtual machine the speed of the same code drifts by up to a
factor of two over minutes (one process repeating one operation measured
0.44 to 0.90 s within 60 s).  Run medians of raw wall time then spread by
15 to 35% between runs, so ``op_p50_rel`` divides each operation's wall time
by the time of a probe run just before and just after it, in the same
process.  The probes never touch levy_info, so a change to the package
cannot move them.  Two kinds track the two ways the workloads spend time:
``interpreter`` (CSV rows and float reprs in Python) and ``arrays`` (large
numpy array passes); a workload whose time is split runs both.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

_ROWS = 6000


def _interpreter() -> None:
    writer = csv.writer(io.StringIO())
    for i in range(_ROWS):
        writer.writerow([i, repr(i * 0.1), repr(i / 7.0)])


def _arrays() -> None:
    # Allocated per call, so the interpreter probe adds nothing to peak RSS.
    array = np.linspace(0.0, 1.0, 512 * 2048).reshape(512, 2048)
    ones = np.ones(2048)
    for _ in range(3):
        float((np.exp(-array) @ ones).sum())


PROBES = {"interpreter": _interpreter, "arrays": _arrays}


def timed(kinds) -> float:
    """Wall time of one run of each named probe, in order."""
    start = time.perf_counter()
    for kind in kinds:
        PROBES[kind]()
    return time.perf_counter() - start
