"""The calibration loop every benchmark time is scaled by.

Machine speed here wanders in bursts of about a second, and the swing is
shared by all pure-Python code.  So the benchmark times this loop, which
runs no tcsp code, immediately before and immediately after each timed
operation, and reports the operation's time as::

    raw_seconds * CAL_REF / mean(calibration before, calibration after)

``CAL_REF`` is the loop's time on the reference machine (the median of
``python3 bench/calib.py``, see the README), so a scaled time is in
seconds at that fixed reference speed.  Change it only together with every
reference figure in the README.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

CAL_REF = 0.0014
_STEPS = 400


def _body() -> Fraction:
    # Exact rational arithmetic with small, bounded denominators, the mix
    # of adds, compares and constructions the interval algebra performs.
    acc = Fraction(0)
    limit = Fraction(1000, 3)
    for k in range(_STEPS):
        acc += Fraction(k % 17 - 8, 3 + k % 5)
        if acc > limit or acc < -limit:
            acc = -acc / 2
    return acc


def calibrate() -> float:
    """Seconds one calibration loop takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _body()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    samples = [calibrate() for _ in range(2000)]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    print(f"calibration loop: median {q2 * 1e3:.4f} ms, quartiles {q1 * 1e3:.4f}..{q3 * 1e3:.4f} ms"
          f" over {len(samples)} runs (CAL_REF {CAL_REF * 1e3:.4f} ms)")
