"""A fixed reference loop that measures the machine's current speed.

The 2-core machine the baseline was taken on drifts in speed by about 20%
over tens of seconds to minutes, because of load outside the container.
Measured over ten minutes in 25-second windows, the median process-window
sweep ranged from 0.73 s to 1.08 s while the sweep time divided by this
loop's time, measured just before and after each sweep, ranged from 5.65 to
6.43. The speed also changes within a long solver run: over three runs of
``long_focus`` with a burst after every outer iteration, each iteration's
time and the mean of the bursts on either side of it correlated at 0.92.
The benchmark therefore times an operation in pieces separated by bursts and
reports ``sum(piece wall time * NOMINAL_S / mean(burst before, burst
after))``, the time at the nominal speed of this loop. The wall times
themselves go into the run's record.

The loop uses numpy and scipy alone, never the package, so no change to the
package can move it: an FFT convolution on the production lattice (a 144^2
field, a 100^2 kernel, a 243^2 lattice) followed by box projection and a
squared-norm reduction, the work mix of the solver.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import fft as sfft

REPS = 40
# Longest stretch of a timed operation between two bursts, where the
# operation offers points to pause at (the solver, once per outer iteration).
INTERVAL_S = 1.0
# A representative burst time on the baseline machine (2-core x86_64,
# numpy 2.4.6, scipy 1.17.1), whose run medians ranged from 0.088 to 0.131 s.
NOMINAL_S = 0.110


class Reference:
    """The bursts of the reference loop made so far in a run, in order."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.field = rng.standard_normal((144, 144))
        self.spectrum = sfft.fft2(rng.standard_normal((100, 100)), (243, 243))
        self.bursts: list[float] = []

    def burst(self) -> None:
        """Time REPS passes of the loop."""
        t0 = time.perf_counter()
        for _ in range(REPS):
            full = sfft.ifft2(sfft.fft2(self.field, (243, 243)) * self.spectrum)
            box = np.clip(full[49:193, 49:193].real - 0.1 * self.field, 0.0, 1.0)
            float(np.sum(box * box))
        self.bursts.append(time.perf_counter() - t0)

    def scale_after(self, i: int) -> float:
        """Factor to nominal speed for what ran between bursts i and i + 1."""
        return NOMINAL_S / ((self.bursts[i] + self.bursts[i + 1]) / 2)


class Stopwatch:
    """Times one operation in pieces, bursting the reference loop between
    pieces where the operation pauses. A burst must precede ``start`` and
    follow ``stop`` before ``scaled`` is read."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.pieces: list[tuple[float, int]] = []  # (seconds, burst before)

    def start(self) -> None:
        self._before = len(self.reference.bursts) - 1
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.pieces.append((time.perf_counter() - self._t0, self._before))

    def pause(self, *_) -> None:
        """Burst if INTERVAL_S has passed in the current piece."""
        if time.perf_counter() - self._t0 >= INTERVAL_S:
            self.stop()
            self.reference.burst()
            self.start()

    @property
    def wall_s(self) -> float:
        return sum(t for t, _ in self.pieces)

    def scaled_s(self) -> float:
        """Each piece at the nominal speed of the bursts on either side."""
        return sum(t * self.reference.scale_after(i) for t, i in self.pieces)
