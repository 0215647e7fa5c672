"""Host speed, sampled while the work runs.

The benchmark's host is a shared VM whose speed changes from one moment to
the next: the same piece of pure-Python work takes anywhere from 47 to 83
ms, and the level drifts over minutes.  A calibration loop run *next to*
the work does not track that.  So the sampler runs a tiny fixed kernel
*during* the work: a wall-clock interval timer raises SIGALRM every PERIOD_S
seconds, and the handler, which Python runs in the main thread between
bytecodes, times one call of ``kernel``.

The kernel is pure Python on small integers: it allocates nothing that the
garbage collector tracks, depends little on the work's memory and imports
nothing, so set-up can be sampled from the first line of a fresh
interpreter.  It uses nothing from vtres, so a change to the program cannot
change the yardstick.

``Sampler.normalise(seconds)`` turns a wall time into seconds at the
reference speed.  Each sample stands for the PERIOD_S around it, in which
the host ran at ``REF_KERNEL_S / kernel time`` of the reference speed, so
the time left after the samples' own is multiplied by the mean of that
ratio over the samples.  A faster program gives a proportionally smaller
value at any host speed, while a host that runs everything 1.3 times
slower leaves it unchanged.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.01
# the kernel's time at the reference speed; on a 2-vCPU Xeon VM its
# samples take 80-150 us, so normalised times stay near wall times
REF_KERNEL_S = 1.0e-4


def kernel() -> int:
    x = 1
    for i in range(1000):
        x = (x * 31 + i) & 0xFFFF
    return x


class Sampler:
    """Kernel times sampled every PERIOD_S seconds between start and stop."""

    def __init__(self):
        self.samples: list[float] = []
        for _ in range(20):  # warm the kernel's code and data
            kernel()

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def restart(self) -> None:
        """Forget the samples so far: a new window of work begins."""
        self.samples = []

    def spent(self) -> float:
        """Seconds the window's samples themselves took."""
        return sum(self.samples)

    def factor(self) -> float:
        """The window's mean speed over the reference speed: below 1 on a slow host."""
        if not self.samples:  # a window shorter than PERIOD_S
            self._sample(None, None)
        return REF_KERNEL_S * sum(1.0 / t for t in self.samples) / len(self.samples)

    def normalise(self, seconds: float) -> float:
        """Seconds of the window's work, less the samples', at reference speed."""
        return (seconds - self.spent()) * self.factor()
