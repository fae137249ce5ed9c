"""The host's CPU speed, sampled inside a benchmark process while it works.

On a shared host the speed of one core drifts by a third or more over
seconds to minutes (other tenants on the same cores; CPU time equals wall
time, so it is not descheduling).  A fixed NumPy loop shaped like one ascent
step slows down with it.  `Sampler` times that loop from a SIGALRM handler
every PERIOD_S seconds of wall time, and once at its start and stop, so the
samples cover the same stretch of time as the work they accompany.  The
loop shares no code with drauc, so a change to the program cannot move it.

A time rescaled by `C_REF_S / mean(samples)` reads as seconds on a host
where one loop takes C_REF_S, about its time on the 2-core VM the
README's figures come from.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2
LOOPS = 150
C_REF_S = 0.005


class Sampler:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x0 = rng.uniform(size=(128, 2))
        self.w = rng.uniform(size=(8, 2))
        self.samples = []           # (start, duration) in perf_counter seconds

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        x, w = self.x0, self.w
        for _ in range(LOOPS):
            h = np.tanh(x @ w.T + 0.1)
            f = 1.0 / (1.0 + np.exp(-(h @ w[:, 0])))
            x = np.clip(x + 1e-3 * (f * (1.0 - f))[:, None] * (h @ w), 0.0, 1.0)
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.sample()

    def paused_s(self, t0=float("-inf"), t1=float("inf")):
        """Time spent sampling that began within [t0, t1)."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def report(self):
        durations = [d for _, d in self.samples]
        return {"speed_mean_s": statistics.mean(durations), "speed_n": len(durations),
                "paused_s": self.paused_s()}


def rescale(seconds, report):
    """seconds at the reference host speed, from a Sampler report."""
    return seconds * C_REF_S / report["speed_mean_s"]
