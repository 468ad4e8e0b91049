"""Host-speed calibration for the benchmark's timings.

The reference machine is a shared virtual machine whose speed drifts by
about ±25% over tens of seconds to minutes, so the median of a run's rounds
follows the host as much as the program: raw ten-seed spreads of the
timings reach 0.15-0.34. Before the first round and after every round the
parent times ``calibrate()``: a fresh interpreter that imports numpy and
exits, started a few times in a row on the CPU the rounds run on. It shares
no code with the package, and of the loads tried (a pure-Python loop, small
and large numpy calls, touching 100 MB, a fresh interpreter) it tracks the
host's slow phases best, since every round is a fresh interpreter too. The
run's timings are scaled by ``REFERENCE_S`` over the mean of its
calibrations, so they read as seconds on this host at its reference
speed. The factor depends only on the host, never on the program, so a
change to the program moves the scaled timings by the same share as the
raw ones; the raw figures stay in the result file.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# Median of calibrate() on the 2-core reference machine; a fixed constant,
# so figures from different runs and commits compare directly.
REFERENCE_S = 0.60
STARTS = 3


def calibrate() -> float:
    """Seconds taken by ``STARTS`` fresh interpreters importing numpy."""
    start = time.perf_counter()
    for _ in range(STARTS):
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def factor(calibrations: list[float]) -> float:
    """The run's host-speed factor: ``REFERENCE_S`` over the mean calibration.

    One calibration takes place before the first round and one after each
    round. A single calibration is noisy by itself (its start-up times
    cluster in steps of about 50 ms), so the factor is taken over the whole
    run, the scale on which the host's speed drifts between runs; the mean
    smooths those steps, where a median would keep them.
    """
    return REFERENCE_S / statistics.fmean(calibrations)
