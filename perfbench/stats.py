"""Small statistics shared by the workloads."""

from __future__ import annotations

import bisect
import math
import statistics
from collections.abc import Iterable, Mapping, Sequence
from typing import Any


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the base is empty."""
    return num / den if den else 0.0


def outage_max(
    disruptions: Sequence[tuple[float, Iterable[Any]]],
    brcv_times: Mapping[Any, Sequence[float]],
) -> float:
    """Longest time from a disruption to the next brcv at a member of
    the component that holds the majority after it.

    ``disruptions`` lists ``(time, majority members)``: the start of
    sending, and every partition or heal.  ``brcv_times`` maps each
    member to its sorted brcv times.  A member with no brcv after a
    disruption is not counted here; completeness is checked separately.
    """
    worst = 0.0
    for at, members in disruptions:
        for m in members:
            times = brcv_times.get(m, ())
            k = bisect.bisect_left(times, at)
            if k < len(times):
                worst = max(worst, times[k] - at)
    return worst
