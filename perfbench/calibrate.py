"""Machine-speed calibration for a shared host.

The host the benchmark was built on shares its cores with other tenants,
whose load changes the speed of pure-Python code by up to 1.8x, switching
every tenth of a second or so and for minutes at a time; CPU time slows
down with wall time, so timing CPU time does not help.  A fixed kernel
that uses no charp code (a few steps of a normal-form loop on dicts of
exponent tuples, the operations charp spends its time in) therefore runs
from a SIGALRM interval timer every INTERVAL_S seconds while tasks run, so
that the host's speed is sampled during each task, not only between
tasks.
A task's *slowdown factor* is the median time of the kernel runs inside
it (widened to the MIN_SAMPLES runs nearest in time when the task is
short) divided by the kernel's time on the reference machine, and its
reported latency is the measured one, less the time spent in the kernel,
divided by that factor: a latency in seconds of the reference machine.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from time import perf_counter

# the kernel's median time on the reference machine (a 2-vCPU x86 virtual
# machine, host in its quiet state); it fixes the unit of reported times
REFERENCE_S = 1.52e-4
INTERVAL_S = 0.005
MIN_SAMPLES = 9


# the kernel's reducers: (leading monomial, polynomial), each monic over F_5
REDUCERS = (
    ((3, 0, 0), {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}),
    ((0, 4, 0), {(0, 4, 0): 1, (1, 1, 2): 3}),
    ((0, 0, 5), {(0, 0, 5): 1, (2, 2, 1): 2}),
)


def _grevlex(m):
    return (sum(m), tuple(-e for e in reversed(m)))


class Kernel:
    """The calibration kernel: 15 steps of a normal-form loop like the
    one charp spends its time in (take the leading term of a fixed 20-term
    polynomial over F_5, rewrite it by the first reducer whose leading
    monomial divides it), on dicts of exponent tuples, with no charp code,
    so that a change to charp does not change the unit."""

    def __init__(self):
        rng = random.Random(0)
        self._terms = {
            (rng.randrange(9), rng.randrange(9), rng.randrange(9)): rng.randrange(1, 5)
            for _ in range(20)
        }

    def __call__(self) -> float:
        """Run the kernel once; its duration in seconds."""
        start = perf_counter()
        terms, out, keys = dict(self._terms), {}, {}
        for _ in range(15):
            if not terms:
                break
            m = max(terms, key=lambda t: keys.get(t) or keys.setdefault(t, _grevlex(t)))
            c = terms.pop(m)
            for lead, g in REDUCERS:
                if all(a >= b for a, b in zip(m, lead)):
                    q = tuple(a - b for a, b in zip(m, lead))
                    for gm, gc in g.items():
                        if gm != lead:
                            t = tuple(a + b for a, b in zip(q, gm))
                            v = (terms.get(t, 0) - c * gc) % 5
                            if v:
                                terms[t] = v
                            else:
                                terms.pop(t, None)
                    break
            else:
                out[m] = c
        return perf_counter() - start


class Sampler:
    """Runs the kernel from an interval timer inside a ``with`` block.

    ``spent`` is the total time spent in the timer's handler, so that a
    caller can take it out of what it measured; ``factor(t0, t1)`` is the
    slowdown factor of the interval [t0, t1] of perf_counter time."""

    def __init__(self):
        self.kernel = Kernel()
        self.times: list = []  # start of each kernel run
        self.durations: list = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:  # a signal that arrived while the handler ran
            return
        self._busy = True
        start = perf_counter()
        self.durations.append(self.kernel())
        self.times.append(start)
        self.spent += perf_counter() - start
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """Median kernel time over [t0, t1], widened on both sides to at
        least MIN_SAMPLES kernel runs, over REFERENCE_S."""
        times, n = self.times, len(self.times)
        if n == 0:
            raise RuntimeError("no calibration samples: the interval timer never fired")
        i, j = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        while j - i < min(MIN_SAMPLES, n):
            if i > 0:
                i -= 1
            if j < n and j - i < MIN_SAMPLES:
                j += 1
        return statistics.median(self.durations[i:j]) / REFERENCE_S
