"""Host-speed calibration: scale measured times to one reference host speed.

The 2-vCPU VM this benchmark was built on runs a fixed pure-Python loop
about 1.2 ms or about 1.6-1.9 ms per 20 000 steps, switching between the two
for seconds to minutes at a time, on both vCPUs at once.  A whole 50 s run
can fall in the slow state, so wall times of the same code spread by up to
1.6x from run to run, far past any bound that could catch a regression.

So every timed interval is bracketed by a short calibration loop (this
file's own code, the same work every time, allocating no container objects
and so never triggering the cyclic garbage collector), and reported as

    wall time x REFERENCE_S / mean(calibration before, calibration after)

that is, in seconds at the speed where the loop takes ``REFERENCE_S``, about
this host's fast state.  A change to the package moves the interval and not
the loop, so it shows in full; a change of host speed moves both and
cancels.  The raw wall times are kept next to the scaled ones in each
result record.
"""

from __future__ import annotations

from time import perf_counter

STEPS = 40_000
REFERENCE_S = 0.0023  # the loop's time in the fast state of the host above


def calibrate() -> float:
    """Wall time of the fixed loop, in seconds."""
    t0 = perf_counter()
    s = 0
    for i in range(STEPS):
        s += i * i % 7
    return perf_counter() - t0


class Scaler:
    """Scales consecutive intervals by the calibrations around each one."""

    def __init__(self) -> None:
        self.before = calibrate()

    def scale(self, wall_s: float) -> float:
        """Call right after an interval ends; returns it at reference speed."""
        after = calibrate()
        scaled = wall_s * REFERENCE_S * 2 / (self.before + after)
        self.before = after
        return scaled
