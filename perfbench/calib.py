"""Machine-speed calibration of the timings.

The benchmark runs on shared virtual machines whose speed drifts by tens of
per cent over seconds to minutes, with CPU time tracking wall time, so raw
wall times of the same code spread past any useful bound.  Every timed
interval is therefore bracketed by a fixed calibration kernel that does not
touch orthopoly, and reported at a reference speed:

    t_ref = t_wall * REF_S / k

where k is the mean of the kernel's times just before and just after the
interval and REF_S is a fixed constant, about the kernel's time on the
2-core Xeon VM the benchmark was defined on.  A change to orthopoly
moves t_wall and leaves k alone, so it shows in t_ref in full; a slow
period of the machine moves both.

Two kernels: `warm` (in-process pure-Python and small-array numpy work, like
a warm library call) for the in-process workloads, and `cold` (a fresh
interpreter that imports numpy, like a cold CLI launch) for `cli-cold` and
for the set-up time.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

WARM_REF_S = 0.0055
COLD_REF_S = 0.17


def warm() -> float:
    """Seconds of one warm kernel: mostly a pure-Python loop (the warm
    workloads spend most of their time in the interpreter), then a
    three-term recurrence on a 1001-point grid and a 100x100 symmetric
    eigensolve."""
    import numpy as np
    t0 = time.perf_counter()
    s, d = 0.0, {}
    for i in range(30000):
        s += math.sqrt(i) * 1.0001
        d[i & 255] = s
    x = np.linspace(-1.0, 1.0, 1001)
    p0, p1 = np.ones_like(x), x.copy()
    for k in range(1, 100):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    j = np.diag(np.linspace(1.0, 2.0, 100))
    j += np.diag(np.full(99, 0.3), 1) + np.diag(np.full(99, 0.3), -1)
    np.linalg.eigvalsh(j)
    return time.perf_counter() - t0


def cold(env: dict, cwd: str) -> float:
    """Seconds of one cold kernel: a fresh interpreter importing numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=True, timeout=60)
    return time.perf_counter() - t0


class Clock:
    """Calibration samples taken between timed intervals.

    Call `mark()` right before each timed interval and keep the index it
    returns; it runs the kernel when `every_s` has passed since the last
    sample.  Call `close()` after the last interval; then `scale(index)`
    is the factor REF_S / k that takes that interval to the reference
    speed."""

    def __init__(self, kernel, ref_s: float, every_s: float):
        self.kernel, self.ref_s, self.every_s = kernel, ref_s, every_s
        self.samples: list[float] = []
        self._last = -math.inf
        kernel()  # warm-up: first-call costs are not machine speed

    def mark(self) -> int:
        if time.perf_counter() - self._last >= self.every_s:
            self.samples.append(self.kernel())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def close(self) -> None:
        self.samples.append(self.kernel())

    def scale(self, index: int) -> float:
        k = 0.5 * (self.samples[index] + self.samples[index + 1])
        return self.ref_s / k
