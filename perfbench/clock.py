"""Reference seconds: wall time corrected for the machine's speed at the time.

On a shared virtual machine the same code runs up to 1.7x slower in
phases that last from seconds to minutes, while other tenants load the
host; the guest sees no steal time, and process CPU time slows with wall
time.  Phases that long land whole runs in a slow or a fast phase, so no
statistic over one run removes them.

SpeedClock measures the phase as it happens.  A SIGALRM handler in the
measured process runs a fixed calibration kernel every INTERVAL_S seconds
and records how long it took.  The slowdown at a sample is the rolling
median of the kernel's time over WINDOW samples, divided by REFERENCE_S.
ref_elapsed(t0, t1) is the wall time of an interval less the handler's
own time, with each stretch between two samples divided by the slowdown
of the sample that ends it.  The kernel touches no random-number state,
so the measured program computes exactly what it computes without it.

The kernel uses only the interpreter and numpy, never ffbm, so that an
optimisation of ffbm cannot speed it up and cancel itself out.  It mixes
the kinds of work ffbm's hot paths do: integer arithmetic, dict and list
operations with calls, and small numpy calls.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1
WINDOW = 11
# The kernel's time at the fast end of what a shared 2-vCPU Xeon (KVM guest)
# showed: about the 5th percentile of 5000 samples taken over eight minutes.
REFERENCE_S = 0.65e-3

_MATRIX = np.linspace(-1.0, 1.0, 9).reshape(3, 3)
_ROWS = np.linspace(0.0, 1.0, 210).reshape(70, 3)


def _integer_loop():
    total = 0
    for i in range(10_000):
        total += i * i
    return total


def _container_loop():
    counts, pairs = {}, []
    for i in range(2_000):
        key = i & 255
        counts[key] = counts.get(key, 0) + 1
        pairs.append((i, counts[key]))
    return sorted(pairs, key=lambda pair: pair[1])


def _numpy_calls():
    for _ in range(60):
        z = _ROWS @ _MATRIX
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)
    return z


KERNELS = (_integer_loop, _container_loop, _numpy_calls)


def calibration_kernel() -> float:
    """Geometric mean of the kernel parts' times, in seconds."""
    product = 1.0
    for part in KERNELS:
        start = time.perf_counter()
        part()
        product *= time.perf_counter() - start
    return product ** (1.0 / len(KERNELS))


class SpeedClock:
    """Samples the machine's speed in this process while it runs.

    Timestamps are time.monotonic(), which on Linux is one clock for every
    process, so an interval may start in the parent that spawned this one.
    """

    def __init__(self):
        self.starts, self.ends, self.kernel = [], [], []
        self._slowdown = None

    def _tick(self, signum=None, frame=None):
        start = time.monotonic()
        kernel = calibration_kernel()
        self.starts.append(start)
        self.kernel.append(kernel)
        self.ends.append(time.monotonic())

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop sampling; top up to WINDOW samples after the measured work."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.kernel) < WINDOW:
            self._tick()
        kernel = np.array(self.kernel)
        half = WINDOW // 2
        self._slowdown = np.array([np.median(kernel[max(0, i - half):i + half + 1])
                                   for i in range(len(kernel))]) / REFERENCE_S

    def _elapsed(self, t0: float, t1: float, scale: np.ndarray) -> float:
        if self._slowdown is None:
            raise RuntimeError("stop the clock before reading intervals")
        # Stretch i runs from the end of sample i-1 to the start of sample i;
        # the last runs on from the last sample.  Handler time is in none.
        lo = np.concatenate(([-np.inf], self.ends))
        hi = np.concatenate((self.starts, [np.inf]))
        overlap = np.clip(np.minimum(hi, t1) - np.maximum(lo, t0), 0.0, None)
        return float((overlap / np.concatenate((scale, scale[-1:]))).sum())

    def ref_elapsed(self, t0: float, t1: float) -> float:
        """Reference seconds of work between two time.monotonic() readings."""
        return self._elapsed(t0, t1, self._slowdown)

    def wall_elapsed(self, t0: float, t1: float) -> float:
        """Wall seconds between two readings, less the handler's time."""
        return self._elapsed(t0, t1, np.ones(len(self.kernel)))

    def mean_slowdown(self, t0: float, t1: float) -> float:
        """Wall over reference seconds for an interval."""
        return self.wall_elapsed(t0, t1) / self.ref_elapsed(t0, t1)


if __name__ == "__main__":
    clock = SpeedClock()
    clock.start()
    begin = time.monotonic()
    while time.monotonic() - begin < 10.0:
        _integer_loop()
    end = time.monotonic()
    clock.stop()
    kernel = sorted(clock.kernel)
    print(f"{len(kernel)} samples; kernel 10th/50th/90th percentile "
          f"{kernel[len(kernel) // 10]:.6f} {kernel[len(kernel) // 2]:.6f} "
          f"{kernel[9 * len(kernel) // 10]:.6f} s; mean slowdown {clock.mean_slowdown(begin, end):.3f}")
