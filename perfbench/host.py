"""Host-speed normalisation of CPU times.

The benchmark shares a small machine with other work.  On the 2-core
development host identical work took from 1x to 2x its fastest thread
CPU time, in spells lasting from a few seconds to a minute.

Every CPU time the end-to-end metrics report is therefore measured in
slices, and each slice is scaled by how fast a fixed
reference loop ran just before and just after it:
``slice * REFERENCE_S / reference``.  The result reads as CPU time on a
host where the reference loop takes :data:`REFERENCE_S`.  Over four sets
of ten seeds this kept the spread of the simulator's CPU per delivery
at 0.045-0.086 where raw thread CPU of the same runs spread up to 0.36
(``perfbench/README.md``).  Wall-clock figures are never scaled, and
the traced run reports raw CPU times.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: str) -> None:
        self.key = key
        self.value = value


def _reference_work() -> int:
    """Allocation, dict, list, tuple and string work of the kind the
    protocol stack does."""
    index: dict[int, _Item] = {}
    window: list[tuple[int, str]] = []
    total = 0
    for i in range(2000):
        item = _Item(i % 211, f"v{i}")
        index[item.key] = item
        window.append((i, item.value))
        if len(window) > 64:
            total += len(window[:32])
            del window[:32]
        total += len(index)
    return total


#: Thread CPU seconds of one reference loop on an uncontended core of
#: the development host (the fastest spell seen there).
REFERENCE_S = 0.0011


def reference_seconds() -> float:
    """Thread CPU time of one reference loop, now.  The cyclic garbage
    collector is held off, since its cost grows with the heap of the
    program under test, not with the host's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _reference_work()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


#: CPU seconds between two reference samples while a timed meter runs.
SAMPLE_PERIOD_S = 0.2


class CpuMeter:
    """Normalised thread CPU of the main thread, in chunks.

    A slice ends at every :meth:`lap` and, while the meter is entered
    with ``timer`` on, after every :data:`SAMPLE_PERIOD_S` of CPU, when
    a virtual-time interval timer interrupts the work.  The reference
    loop runs at each slice boundary, and each slice is scaled by the
    reference times on either side of it.  Reference loops are not
    counted.  Traced runs keep the timer off, so that no reference loop
    runs inside a span.
    """

    def __init__(self, timer: bool = True) -> None:
        self.timer = timer
        self.raw_cpu: list[float] = []
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self._raw = self._norm = 0.0
        self._ref = reference_seconds()
        self._start = time.thread_time()
        self._wall = time.perf_counter()

    def _slice(self) -> None:
        cpu = time.thread_time() - self._start
        ref = reference_seconds()
        self._raw += cpu
        self._norm += cpu * REFERENCE_S / ((ref + self._ref) / 2)
        self._ref = ref
        self._start = time.thread_time()

    def lap(self) -> None:
        """End the current chunk."""
        wall = time.perf_counter() - self._wall
        self._slice()
        self.raw_cpu.append(self._raw)
        self.cpu.append(self._norm)
        self.wall.append(wall)
        self._raw = self._norm = 0.0
        self._wall = time.perf_counter()

    def __enter__(self) -> CpuMeter:
        if self.timer:
            self._previous = signal.signal(signal.SIGVTALRM, lambda *_: self._slice())
            signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._raw = self._norm = 0.0
        self._start = time.thread_time()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
            signal.signal(signal.SIGVTALRM, self._previous)


#: A timed check is repeated until it has used this much CPU, at most
#: :data:`REPEAT_MOST` times, and the median is reported.
REPEAT_BUDGET_S = 1.5
REPEAT_MOST = 5


def normalised_once(fn, *args):  # type: ignore[no-untyped-def]
    """Run ``fn`` once (a short step such as a set-up); return ``(its
    result, normalised thread CPU seconds)``."""
    with CpuMeter(timer=False) as meter:
        out = fn(*args)
        meter.lap()
    return out, meter.cpu[0]


def timed_normalised(fn, *args):  # type: ignore[no-untyped-def]
    """Run ``fn`` (a deterministic check) repeatedly, each time after a
    full garbage collection; return ``(first result, median raw thread
    CPU seconds, median normalised seconds)``."""
    raw: list[float] = []
    normalised: list[float] = []
    first = None
    while not raw or (len(raw) < REPEAT_MOST and sum(raw) < REPEAT_BUDGET_S):
        gc.collect()
        with CpuMeter() as meter:
            out = fn(*args)
            meter.lap()
        if not raw:
            first = out
        raw.append(meter.raw_cpu[0])
        normalised.append(meter.cpu[0])
    return first, statistics.median(raw), statistics.median(normalised)
