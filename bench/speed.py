"""Run time corrected for the machine's momentary speed.

On a shared host the same single-threaded code runs up to 2x slower for
stretches of seconds to minutes, because other tenants load the physical
core. Raw wall times of identical runs then spread by 15-40%. SpeedClock
runs a fixed reference kernel about every ``period_s`` seconds, from hooks
on a few frequently called program functions and between the benchmark's
operations, and scales each stretch of work between two samples by
``nominal / reference time``. The result is in seconds at the speed at
which the kernel takes its nominal time. Time spent in the samples is left
out of every reading. SetupClock does the same for the set-up, sampled by a
timer signal.

The kernel has two parts of about 1.25 ms each, whose speed factors are
combined by their geometric mean: an interpreter loop of float arithmetic,
and numpy calls on 8-element arrays. Neither touches more than a few cache
lines of data, so neither depends on what the program just did to the
caches, and a program change that grows or shrinks its working set shows in
the corrected time as it does in the raw time. Under load the loop slows
less than the bar and law workloads and the numpy calls slow more than the
sparse solves; their mean follows both (see README.md).
"""

from __future__ import annotations

import math
import signal
import time

# Nominal seconds of the loop part and the numpy part.
REF_NOMINAL_S = (0.00125, 0.00125)
_LOOP_ITERATIONS = 20000
_NUMPY_ITERATIONS = 950


def loop_kernel_s() -> float:
    """Wall seconds of the interpreter part of the reference kernel."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(_LOOP_ITERATIONS):
        s += math.sqrt(i)
    return time.perf_counter() - t0


def speed_factor(before: tuple, after: tuple) -> float:
    """Nominal over measured time of each part, averaged over the two samples
    that bracket a stretch of work; geometric mean of the two parts."""
    (n1, n2), (b1, b2), (a1, a2) = REF_NOMINAL_S, before, after
    return math.sqrt(n1 / (0.5 * (b1 + a1)) * n2 / (0.5 * (b2 + a2)))


class SetupClock:
    """Speed-corrected wall time from the start of the process to stop().

    The set-up runs before any hook is installed and mostly before numpy is
    imported, so a timer signal runs the loop part of the kernel every
    ``period_s`` seconds, and the set-up time is scaled by its nominal over
    the median sample. Two samples around a set-up of under a second were
    too few: so corrected, set-up times spread more than raw ones.
    """

    def __init__(self, process_age_s: float, period_s: float = 0.05):
        self._t0 = time.perf_counter() - process_age_s
        self._samples = []
        self._sampling_s = 0.0
        self._on_alarm()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)

    def _on_alarm(self, *_):
        t0 = time.perf_counter()
        self._samples.append(loop_kernel_s())
        self._sampling_s += time.perf_counter() - t0

    def stop(self) -> tuple:
        """(corrected, raw) seconds since the process started, samples left out."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._on_alarm()
        raw = time.perf_counter() - self._t0 - self._sampling_s
        median = sorted(self._samples)[len(self._samples) // 2]
        return raw * REF_NOMINAL_S[0] / median, raw


# Program functions called often enough to sample the speed inside long
# operations. A missing one raises at install time, as a missing trace
# target does in layers.py.
TICK_TARGETS = (
    "scipy.sparse.linalg:spsolve",
    "scipy.sparse.linalg:splu",
    "scipy.sparse.linalg:factorized",
    "cdfdamage.fem2d:SentSolver.solve_step",
    "cdfdamage.quasistatic:BarProblem.state_energy",
)


class SpeedClock:
    """Accumulates speed-corrected wall and CPU time between start() and stop()."""

    def __init__(self, period_s: float = 0.1):
        self.period_s = period_s
        self.sampling_wall_s = 0.0
        self.sampling_cpu_s = 0.0
        self._restore = []
        self._next = math.inf
        import numpy as np

        self._np, self._m, self._v = np, np.ones((8, 8)), np.ones(8)
        for _ in range(5):  # the first runs of the kernel in a process are slower
            self._kernel_s()

    def now(self) -> float:
        """Wall time that leaves out the samples."""
        return time.perf_counter() - self.sampling_wall_s

    def _cpu_now(self) -> float:
        return time.process_time() - self.sampling_cpu_s

    def _kernel_s(self) -> tuple:
        """Wall seconds of the two parts of the reference kernel."""
        np, m, v = self._np, self._m, self._v
        loop_s = loop_kernel_s()
        t0 = time.perf_counter()
        for _ in range(_NUMPY_ITERATIONS):
            m @ v
            np.exp(v)
        return loop_s, time.perf_counter() - t0

    def _sample(self) -> tuple:
        w0, c0 = time.perf_counter(), time.process_time()
        ref = self._kernel_s()
        self.sampling_wall_s += time.perf_counter() - w0
        self.sampling_cpu_s += time.process_time() - c0
        self._next = time.perf_counter() + self.period_s
        return ref

    def start(self):
        self.wall_s = self.cpu_s = self.raw_wall_s = self.raw_cpu_s = 0.0
        self._ref = self._sample()
        self._w0, self._c0 = self.now(), self._cpu_now()

    def tick(self):
        if time.perf_counter() >= self._next:
            self._close_stretch()

    def _close_stretch(self):
        wall, cpu = self.now() - self._w0, self._cpu_now() - self._c0
        ref = self._sample()
        speed = speed_factor(self._ref, ref)
        self.wall_s += wall * speed
        self.cpu_s += cpu * speed
        self.raw_wall_s += wall
        self.raw_cpu_s += cpu
        self._ref = ref
        self._w0, self._c0 = self.now(), self._cpu_now()

    def stop(self):
        """Close the interval; wall_s, cpu_s (corrected) and raw_* hold its totals."""
        self._close_stretch()
        self._next = math.inf

    def install(self):
        """Tick from the program functions of TICK_TARGETS."""
        from layers import patch_everywhere

        def make(fn):
            def hooked(*args, **kwargs):
                self.tick()
                return fn(*args, **kwargs)

            hooked.__wrapped__ = fn
            return hooked

        for path in TICK_TARGETS:
            patch_everywhere(path, make, self._restore)

    def uninstall(self):
        from layers import unpatch

        unpatch(self._restore)
