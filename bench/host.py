"""The host the benchmark runs on: one CPU for the run, and its speed.

A run pins itself to one CPU (pin_to_one_cpu), and probe() times a fixed
piece of work that owes nothing to divstat on that CPU, so the gated
timings can be scaled to the speed of a reference host (see README.md,
"Host-adjusted times").
"""

import math
import os
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

# probe() on 2 cores of an Intel Xeon, unloaded; adjusted times scale to it
REFERENCE_S = 0.0022


def pin_to_one_cpu():
    """Run this process, the threads it starts and its children on the
    lowest CPU it may use; returns that CPU, or None where it cannot pin."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _oscillator(t, y):
    return np.array([y[1], -y[0] + 0.1 * math.sin(t)])


def reference_work():
    """Fixed work of the kinds divstat does, none of it divstat's own:
    Python arithmetic and dict lookups, 3x3 numpy products, and a short
    scipy RK45 integration with a Python right-hand side."""
    acc = 0.0
    a = np.arange(9.0).reshape(3, 3)
    for i in range(350):
        d = {"x": i * 0.5, "y": 1.0}
        acc += math.sin(d["x"]) * d["y"]
        acc += float((a @ a[:, 0])[1]) + i
    sol = solve_ivp(_oscillator, (0.0, 0.8), [1.0, 0.0], rtol=1e-9, atol=1e-12)
    return acc + float(sol.y[0, -1])


def probe():
    """How long reference_work() takes on the host right now: the median
    of three runs, so that one preemption does not decide it."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
