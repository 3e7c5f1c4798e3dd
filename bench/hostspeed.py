"""The host's speed, measured in the run by two fixed reference kernels.

The benchmark runs on a shared machine whose speed drifts from one minute
to the next as other tenants load the physical cores. CPU time tracks wall
time there, so the drift is contention, not steal, and no statistic inside
a run of under a minute removes it. The drift hits interpreter-bound code
hardest: in alternating half-second windows over 90 s, a loop of small
numpy calls spread 24% (IQR of its rate), a full-batch gradient on a
2000 x 200 matrix 8%.

So the benchmark runs two kernels in short slices interleaved with its
timed work (between pool calls, or from a timer signal inside a long call)
and reports every timing in reference seconds: wall seconds
multiplied by ``rate / NOMINAL`` of the kernel that matches the timed work
(or the geometric mean of both kernels' factors, for mixed work), where ``rate`` is the kernel's calls per wall second in the same run and
``NOMINAL`` its typical rate on the machine where the benchmark was
calibrated. There, in a typical stretch, a reference second is a wall
second; when the host slows down, the work and its kernel slow down alike
and the figure stays put. The kernels are the benchmark's own numpy code
on fixed inputs and never call the program, so a change to the program
moves the figures in full.

``scalar``  per-sample steps of exponential weights and projected OGD over
            five experts in dim 20: small numpy calls and Python overhead,
            like the pool's step, prediction and small rollovers.
``batch``   a full-batch logistic gradient on a 2000 x 200 interval:
            arithmetic, like the ERM oracle, the proxy draws and the
            offline training at the ``wide`` shape.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

SHARE = 0.1  # reference time after a timed stretch, as a share of it
PERIOD = 0.05  # seconds between reference slices inside a long call
STEPS = 50
# Calls per wall second of each kernel, the median over the runs on the
# calibration machine (see README.md, Reference figures).
NOMINAL = {"scalar": 1150.0, "batch": 2600.0}


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20220212)
        self.experts = rng.normal(size=(5, 20)) / math.sqrt(20)
        self.X = rng.normal(size=(STEPS, 20)) / math.sqrt(20)
        self.y = np.where(rng.random(STEPS) < 0.5, -1.0, 1.0)
        self.Xb = rng.normal(size=(2000, 200)) / math.sqrt(200)
        self.yb = np.where(rng.random(2000) < 0.5, -1.0, 1.0)
        self.wb = rng.normal(size=200) / math.sqrt(200)
        self.kernels = {"scalar": self._scalar, "batch": self._batch}
        self.calls = dict.fromkeys(self.kernels, 0)
        self.seconds = dict.fromkeys(self.kernels, 0.0)
        self.spent = 0.0  # wall seconds in slices, bookkeeping included
        for kernel in self.kernels.values():
            kernel()  # first numpy calls are slower; keep them out

    def _scalar(self):
        experts, X, y = self.experts, self.X, self.y
        alpha = np.full(len(experts), 1.0 / len(experts))
        w = np.zeros(X.shape[1])
        total = 0.0
        for t in range(STEPS):
            x, label = X[t], y[t]
            losses = np.logaddexp(0.0, -label * (experts @ x))
            total += float(alpha @ losses)
            alpha = alpha * np.exp(-0.1 * losses)
            alpha /= alpha.sum()
            z = label * float(w @ x)
            w = w + (label * 0.5 * (1.0 - math.tanh(0.5 * z)) / math.sqrt(t + 1.0)) * x
            norm = float(np.linalg.norm(w))
            if norm > 1.0:
                w = w / norm
        return total

    def _batch(self):
        coef = -self.yb * 0.5 * (1.0 - np.tanh(0.5 * self.yb * (self.Xb @ self.wb)))
        return float(np.linalg.norm(self.Xb.T @ coef))

    def slice(self, seconds):
        """Run whole calls of each kernel for at least half of ``seconds``."""
        clock = time.perf_counter
        begin = clock()
        for kind, kernel in self.kernels.items():
            start = clock()
            calls = 0
            while True:
                kernel()
                calls += 1
                elapsed = clock() - start
                if elapsed >= seconds / 2:
                    break
            self.calls[kind] += calls
            self.seconds[kind] += elapsed
        self.spent += clock() - begin

    def follow(self, wall_seconds):
        """Run the kernels right after a timed stretch of ``wall_seconds``,
        for SHARE of that time."""
        self.slice(SHARE * wall_seconds)

    def during(self, fn):
        """Call ``fn()`` with a reference slice every PERIOD seconds inside
        it, run from a timer signal between two bytecodes of the call.
        Returns its result and its wall seconds without the slices."""
        def tick(signum, frame):
            self.slice(SHARE * PERIOD)

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        spent = self.spent
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return result, time.perf_counter() - start - (self.spent - spent)

    def rate(self, kind):
        """Calls of one kernel per wall second over every slice so far."""
        return self.calls[kind] / self.seconds[kind]

    def factor(self, kind):
        """Reference seconds per wall second of this run, by one kernel or,
        for ``mixed``, by the geometric mean of the two."""
        if kind == "mixed":
            return math.sqrt(self.factor("scalar") * self.factor("batch"))
        return self.rate(kind) / NOMINAL[kind]
