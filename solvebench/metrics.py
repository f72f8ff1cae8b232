"""Summary arithmetic for per-instance solve times, and the host-speed probe."""
from __future__ import annotations

import math
import time

SGM_SHIFT_MS = 10.0
# Ranks on either side of the nearest rank that a reported percentile averages.
PERCENTILE_HALF_WINDOW = 5
CALIBRATION_ROUNDS = 30_000
# Median calibration() time on the reference host: 2 vCPUs of an Intel
# Xeon, Python 3.11.
REFERENCE_CALIBRATION_S = 0.0049


def calibration() -> float:
    """Seconds taken by a fixed integer loop that allocates nothing the
    collector tracks, so the solver's heap cannot slow it: a probe of how
    fast this host runs Python at the moment (about 5 ms)."""
    t0 = time.perf_counter()
    x = 1
    for _ in range(CALIBRATION_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.perf_counter() - t0


def sgm(values_ms: list[float]) -> float:
    """Shifted geometric mean: exp(mean(log(v + shift))) - shift, shift 10 ms.
    The shift keeps near-zero times from dominating a heavy-tailed suite."""
    if not values_ms:
        raise ValueError("sgm of no values")
    return math.exp(sum(math.log(v + SGM_SHIFT_MS) for v in values_ms)
                    / len(values_ms)) - SGM_SHIFT_MS


def percentile(values: list[float], q: float) -> float:
    """Smoothed percentile: the geometric mean of the values ranked within
    PERCENTILE_HALF_WINDOW of the nearest rank ceil(q * n). A single order
    statistic jumps between instances when noise reorders them; the window
    does not. At 100 values and q=0.9 it spans ranks 85 to 95."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered))) - 1
    window = ordered[max(0, rank - PERCENTILE_HALF_WINDOW):rank + PERCENTILE_HALF_WINDOW + 1]
    return math.exp(sum(math.log(v) for v in window) / len(window))

