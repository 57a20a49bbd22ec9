"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of the same code drifts by 30% and more over
tens of seconds, in regimes that last longer than a run, so run-to-run
spread of raw times is set by the neighbours rather than by the program.
The harness therefore runs this kernel right next to every timed op and
rescales the op's time to the host's nominal speed:

    t_nominal = t * NOMINAL_S / (kernel time next to the op)

The kernel mixes the kinds of work dpnoise does (per-row string parsing and
dict updates in Python, numpy transcendental and prefix-sum passes over
arrays) and shares no code with dpnoise, so a change to the program moves
the rescaled times and a change of host speed mostly does not.  Raw times
are reported beside the rescaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the host that defined the benchmark (2-core Xeon,
# Python 3.11, numpy 2.4) in its fast regime; rescaled times read as if
# measured there.
NOMINAL_S = 0.02


def kernel_seconds() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(10_000):
        key, value = f"{i},{i * 7 % 13}.25".split(",")
        table[key] = float(value)
    x = np.linspace(0.0, 1.0, 200_000)
    float((np.exp(-x) * np.expm1(x)).sum())
    float(np.cumsum(np.ones(1_000_000))[-1])
    return time.perf_counter() - start
