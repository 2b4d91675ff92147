"""Machine-speed probes: fixed work timed around every call of a run.

The host this benchmark was built on changes speed by tens of percent over
seconds to minutes (other tenants share its cores), and a run's raw times
drift with it. Each call is therefore timed between two speed measurements
(each the median of three runs of a probe of fixed work), and its time is
rescaled to the probe's reference speed:

    normalised = raw * reference_s / mean(speed before, speed after)

A probe must slow down the way the workload does, so there are two: an
interpreter probe (dict and list churn, like the per-epoch simulator) and
an array probe (random draws and elementwise math on arrays of a few
hundred kB, like the batched estimators). The reference times are the
typical speed measurements on the machine the benchmark was built on
(2-core Intel Xeon, Python 3.11, numpy 2.4), so normalised seconds read as
typical seconds there.
"""

from __future__ import annotations

import time

import numpy as np


def interpreter_probe() -> float:
    """Seconds for a fixed amount of dict, list and float-object churn."""
    t0 = time.perf_counter()
    table = {}
    for i in range(50_000):
        table[i] = [i, float(i)]
        if i % 3 == 0:
            table.pop(i - 1, None)
    return time.perf_counter() - t0


def array_probe() -> float:
    """Seconds for a fixed amount of numpy random draws, math and sorting."""
    t0 = time.perf_counter()
    gains = np.random.default_rng(0).standard_normal((1 << 16, 4))
    info = np.log2(1.0 + np.abs(gains) ** 2).sum(axis=1)
    np.sort(info)
    return time.perf_counter() - t0


# kind -> (probe, reference seconds)
PROBES = {
    "interpreter": (interpreter_probe, 0.016),
    "array": (array_probe, 0.009),
}


def measure_speed(kind: str) -> float:
    """Median of three runs of probe ``kind``; the median drops short bursts."""
    probe = PROBES[kind][0]
    return sorted(probe() for _ in range(3))[1]


def normalised(raw_s: float, probe_s: float, kind: str) -> float:
    """``raw_s`` rescaled to the reference speed of probe ``kind``."""
    return raw_s * PROBES[kind][1] / probe_s
