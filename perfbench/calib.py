"""Host-speed calibration for the benchmark's timings.

On a shared host the same code runs up to ~40% slower for tens of seconds at
a time, and a fixed reference loop slows by the same share (its ratio to an
istanet forward pass stays within a few percent while the pass itself swings
from 7 to 10 ms). So the benchmark times a reference probe between its own
operations, never inside one of the program's calls, and scales each timed
interval, less the probes inside it, by (the probe's nominal ms) / (median
of the probes nearest to it). Within an evaluation pass it probes between
samples, so that the pass is calibrated by probes taken during it. The result
reads as the time the interval would take on a host where the probe takes
its nominal time; a change to the program moves it, a change of host speed
does not.

The probe runs a fixed set of parts. Each workload names the parts that
track it: over a few minutes of host-speed swings, train-coarse steps,
train-fine steps and infer forwards were timed against each part. The
interpreter loop plus the large-array pass tracked the training steps best
(residual 5.4% and 6.2% on 10-step medians, against 10.9% and 5.7% raw). An
infer request at N=1 spends its time dispatching numpy calls on tiny arrays,
which the slow host mode hits harder; it tracked all four parts best (5.5%
against 19.7% raw). The parts' code and inputs are fixed, so the probe does
not depend on the program or the seed.
"""

import bisect
import statistics
import time

import numpy as np

# Probe parts and the ms each takes on an unloaded 2-vCPU host, with the
# benchmark's malloc settings. A probe of some parts is calibrated to the sum
# of their nominal times.
PART_NOMINAL_MS = {"loop": 0.55, "ufuncs": 0.5, "einsum": 0.7, "big": 0.7}
NEAREST = 7  # probes whose median calibrates an interval
PROBE_EVERY_S = 0.05


class Calibrator:
    """Times reference probes; turns raw (start, end) stamps into calibrated
    seconds. Disabled, it probes nothing and returns raw seconds."""

    def __init__(self, parts=("loop", "big"), enabled=True, burst=1):
        self.enabled = enabled
        self.burst = burst
        self.parts = [getattr(self, "_" + name) for name in parts]
        self.nominal_ms = sum(PART_NOMINAL_MS[name] for name in parts)
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((4, 64, 64))
        self._b = rng.standard_normal((4, 64, 64))
        self._big = rng.standard_normal(200_000)
        self.starts, self.ends, self.ms = [], [], []

    @staticmethod
    def _loop():
        s = 0
        for i in range(6000):
            s += i * i
        return s

    @staticmethod
    def _ufuncs():
        x = np.arange(256.0)
        for _ in range(80):
            x = np.tanh(x * 0.5) + 1.0
        return x

    def _einsum(self):
        return np.einsum("bij,bjk->bik", self._a, self._b)

    def _big(self):
        return np.clip(np.tanh(self._big), -0.5, 0.5)

    def probe(self, times=1):
        if not self.enabled:
            return
        for _ in range(times):
            t0 = time.perf_counter()
            for part in self.parts:
                part()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.ends.append(t1)
            self.ms.append((t1 - t0) * 1000.0)

    def maybe_probe(self):
        """Probe burst times if none ran in the last PROBE_EVERY_S."""
        if self.enabled and (not self.ends
                             or time.perf_counter() - self.ends[-1] >= PROBE_EVERY_S):
            self.probe(self.burst)

    def factor(self, t0, t1):
        """The probe's nominal ms over the median of the NEAREST probes to
        the interval's midpoint; 1 when disabled."""
        if not self.enabled:
            return 1.0
        if not self.ms:
            raise RuntimeError("no calibration probes were taken")
        mid = (t0 + t1) / 2.0
        i = bisect.bisect_left(self.starts, mid)
        lo, hi = i, i  # the window [lo, hi) grows towards the nearer probe
        while hi - lo < min(NEAREST, len(self.ms)):
            if lo > 0 and (hi >= len(self.ms) or mid - self.ends[lo - 1] <= self.starts[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return self.nominal_ms / statistics.median(self.ms[lo:hi])

    def elapsed(self, t0, t1):
        """Calibrated seconds from stamp t0 to t1, less the probes between.
        Each piece between probes is calibrated on its own, so a long
        interval that spans a change of host speed is scaled piecewise."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        edges = [t0]
        for i in range(lo, hi):
            edges += [self.starts[i], self.ends[i]]
        edges.append(t1)
        return sum((b - a) * self.factor(a, b) for a, b in zip(edges[::2], edges[1::2]))

    def summary(self):
        if not self.ms:
            return "off"
        q = statistics.quantiles(self.ms, n=4)
        return (f"{len(self.ms)} probes, ms p25/p50/p75 {q[0]:.3f}/{q[1]:.3f}/{q[2]:.3f}, "
                f"nominal {self.nominal_ms:.2f} ms")
