"""Machine-speed reference for the timed routes.

A shared 2-vCPU virtual machine can change speed by up to 1.6x over tens
of seconds (a fixed loop's time flips between two levels), so raw wall
seconds of two runs minutes apart differ by more than a regression bound.  `SpeedProbe` measures the machine's speed during the
timed routes themselves: while it is active, a SIGALRM handler runs a
fixed GK-style insertion loop (`kernel`) every INTERVAL_S and records how
long it took.  A route's time is reported as its wall time minus the
kernel's own time, scaled by REFERENCE_S / (median kernel time): seconds
at the reference speed.  The kernel is frozen here and shares no code with
sketchks, so a change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

INTERVAL_S = 0.05
REFERENCE_S = 1.5e-3  # about the kernel's median on a 2-vCPU Intel Xeon VM
MIN_SAMPLES = 5
_STREAM = [((i * 7919) % 10007) / 10007.0 for i in range(1200)]


def kernel() -> None:
    """Insert a fixed stream into (value, g, delta) lists, compressing every
    50 values, as the per-value Greenwald-Khanna path does."""
    vals, gs, ds = [], [], []
    for count, v in enumerate(_STREAM, start=1):
        pos = bisect.bisect_right(vals, v)
        d = 0 if pos in (0, len(vals)) else math.floor(0.02 * count)
        vals.insert(pos, v)
        gs.insert(pos, 1)
        ds.insert(pos, d)
        if count % 50 == 0:
            threshold = math.floor(0.02 * count)
            kv, kg, kd = [vals[-1]], [gs[-1]], [ds[-1]]
            for i in range(len(vals) - 2, 0, -1):
                if gs[i] + kg[-1] + kd[-1] <= threshold:
                    kg[-1] += gs[i]
                else:
                    kv.append(vals[i])
                    kg.append(gs[i])
                    kd.append(ds[i])
            kv.append(vals[0])
            kg.append(gs[0])
            kd.append(ds[0])
            vals, gs, ds = kv[::-1], kg[::-1], kd[::-1]


class SpeedProbe:
    """Context manager sampling the kernel on a timer while it is active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def net(self, t0: float, t1: float) -> float:
        """Wall seconds in [t0, t1] minus the kernel's samples inside it."""
        return t1 - t0 - sum(dt for s, dt in self.samples if t0 <= s < t1)

    def scale(self) -> float:
        """REFERENCE_S over the median kernel time, topped up to MIN_SAMPLES."""
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        return REFERENCE_S / statistics.median(dt for _, dt in self.samples)
