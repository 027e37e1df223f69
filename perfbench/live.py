"""The live workload, ``live-paced``.

Three :class:`~repro.rt.node.LiveNode` objects share one process and
one asyncio loop and talk over loopback TCP with the binary wire and
same-turn flushing (one group, no shards).  The benchmark submits each
value the way a node's control plane does: it records the ``bcast`` in
the node's event log and calls ``runtime.broadcast``.  There are no
client connections.

A run sets the cluster up several times (the set-up time is the
median), keeps the last cluster, sends for a warm-up and then for the
measured window, stops sending, waits until every value is delivered
at every member, closes the cluster and verifies the event logs with
:func:`repro.rt.trace.verify_log_dir`.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import math
import resource
import shutil
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro.rt.trace as rt_trace
from repro.rt.cluster import free_port
from repro.rt.node import LiveNode, default_ring_config, initial_view_for

from perfbench.gen import LIVE_PROCS, PacedInputs, paced_inputs
from perfbench.host import CpuMeter, timed_normalised
from perfbench.stats import outage_max, percentile, ratio
from perfbench.tracer import Recorder, installed

#: Sending before the measured window starts, in seconds.
WARMUP_S = 1
#: Longest wait for the last values after sending stops, in seconds.
DRAIN_TIMEOUT_S = 15.0
#: Period of the event-loop lag probe (traced runs only), in seconds.
LAG_PERIOD_S = 0.005


class LoopErrors:
    """The loop's exception handler: counts instead of printing.

    Closing in-process nodes makes the loop report errors: each
    cancelled inbound connection handler, and ring timers that fire
    after the node closed its event log.  These are counted.  An error
    before shutdown starts is kept so the run can fail with it.
    """

    def __init__(self) -> None:
        self.count = 0
        self.closing = False
        self.unexpected: list[str] = []

    def __call__(self, loop: asyncio.AbstractEventLoop, context: dict[str, Any]) -> None:
        self.count += 1
        if not self.closing:
            self.unexpected.append(
                f"{context.get('message')}: {context.get('exception')!r}"
            )


class Cluster:
    """Three live nodes in this process."""

    def __init__(self, log_dir: Path) -> None:
        self.log_dir = log_dir
        self.nodes: list[LiveNode] = []

    async def start(self) -> float:
        """Set-up: construct the nodes, connect every peer stream and
        start the ring members.  Returns the wall seconds it took."""
        t0 = time.perf_counter()
        ports = {p: ("127.0.0.1", free_port()) for p in LIVE_PROCS}
        self.nodes = [
            LiveNode(
                p,
                ports,
                self.log_dir,
                config=default_ring_config(),
                wire="binary",
                flush_after=0.0,
                shards=1,
            )
            for p in LIVE_PROCS
        ]
        for node in self.nodes:
            await node.start()
        for node in self.nodes:
            if not await node.network.wait_connected(timeout=10.0):
                raise RuntimeError(f"{node.proc_id}: peers did not connect")
        for node in self.nodes:
            node.member.start()
        return time.perf_counter() - t0

    def submit(self, index: int, value: str) -> None:
        """A client bcast at node ``index``, as the control plane does it."""
        node = self.nodes[index]
        node.log.record("bcast", value, node.proc_id)
        node.runtime.broadcast(node.proc_id, value)

    def on_deliver(self, sink: Callable[[Any, Any, Any], None]) -> None:
        """Also report every brcv to ``sink`` (after the node logs it)."""
        for node in self.nodes:
            logged = node.runtime.on_deliver

            def both(value: Any, origin: Any, dst: Any, logged: Any = logged) -> None:
                if logged is not None:
                    logged(value, origin, dst)
                sink(value, origin, dst)

            node.runtime.on_deliver = both

    async def close(self, errors: LoopErrors) -> None:
        errors.closing = True
        for node in self.nodes:
            await node.close()


@dataclass
class Sample:
    """Counters read at a window boundary."""

    wall: float
    brcv: int
    rss_kb: int
    wire: dict[str, float]
    log_bytes: int

    @classmethod
    def take(cls, cluster: Cluster, brcv: int) -> Sample:
        return cls(
            wall=time.perf_counter(),
            brcv=brcv,
            rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            wire=wire_totals(cluster),
            log_bytes=sum(node.log.path.stat().st_size for node in cluster.nodes),
        )


def wire_totals(cluster: Cluster) -> dict[str, float]:
    """Outbound wire counters summed over nodes and codecs."""
    out = {"frames": 0.0, "bytes": 0.0, "entries": 0.0, "flushes": 0.0}
    for node in cluster.nodes:
        for stats in node.network.tx_stats.values():
            out["frames"] += stats.frames
            out["bytes"] += stats.bytes_on_wire
            out["entries"] += stats.entries
            out["flushes"] += stats.flushes
    return out


@dataclass
class LiveRun:
    """What one live run measured and checked.  The ``chunk_*`` lists
    hold one entry per chunk of the measured window."""

    setup_s: list[float]
    samples: list[Sample]
    #: per chunk: thread CPU of the loop thread, normalised and raw
    chunk_cpu: list[float]
    chunk_raw_cpu: list[float]
    chunk_wall: list[float]
    chunk_brcv: list[int]
    #: per chunk with values due in it: (p50, p90) latency in seconds
    chunk_latency: list[tuple[float, float]]
    outage_max: float
    late: list[float]
    lag: list[float]
    attempted: int
    #: every brcv of the run, warm-up and drain included
    deliveries: int
    layer: dict[str, float]
    verify_s: float = 0.0
    verify_norm_s: float = 0.0
    to_s: float = 0.0
    verify_events: int = 0
    failed: int = 0
    loop_errors: int = 0
    problems: list[str] = field(default_factory=list)


class Paced:
    """Open loop: each value is sent at its generated due time.  Keeps
    the due times, the generator's lateness and every brcv time."""

    def __init__(self, cluster: Cluster, inputs: PacedInputs) -> None:
        self.cluster = cluster
        self.inputs = inputs
        self.due: dict[str, float] = {}
        self.late: list[tuple[float, float]] = []
        self.brcv: list[tuple[str, str, float]] = []
        self.sending = True
        cluster.on_deliver(self._deliver)

    def _deliver(self, value: Any, origin: Any, dst: Any) -> None:
        self.brcv.append((value, dst, time.perf_counter()))

    def send(self, index: int, value: str, due: float) -> None:
        self.due[value] = due
        self.cluster.submit(index, value)

    def complete(self) -> bool:
        return len(self.brcv) >= len(self.due) * len(LIVE_PROCS)

    async def run(self, t0: float) -> None:
        index = {p: i for i, p in enumerate(LIVE_PROCS)}
        for offset, origin, value in self.inputs.sends:
            due = t0 + offset
            wait = due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            if not self.sending:
                return
            self.late.append((due, time.perf_counter() - due))
            self.send(index[origin], value, due)


async def _lag_probe(lags: list[float], stop: asyncio.Event) -> None:
    loop = asyncio.get_running_loop()
    while not stop.is_set():
        t = loop.time()
        await asyncio.sleep(LAG_PERIOD_S)
        lags.append(loop.time() - t - LAG_PERIOD_S)


async def _run(
    seed: int,
    seconds: float,
    out_dir: Path,
    rec: Recorder | None,
    errors: LoopErrors,
) -> LiveRun:
    loop = asyncio.get_running_loop()
    loop.set_exception_handler(errors)
    cluster = Cluster(out_dir / "run")
    setup_s = await cluster.start()

    try:
        load = Paced(cluster, paced_inputs(seed, WARMUP_S + math.ceil(seconds)))
        t0 = time.perf_counter()
        sender = loop.create_task(load.run(t0))
        await asyncio.sleep(max(0.0, t0 + WARMUP_S - time.perf_counter()))

        lags: list[float] = []
        stop_probe = asyncio.Event()
        probe = loop.create_task(_lag_probe(lags, stop_probe)) if rec is not None else None
        chunks = max(2, math.ceil(seconds))
        with installed(rec) if rec is not None else contextlib.nullcontext():
            samples = [Sample.take(cluster, len(load.brcv))]
            w0 = samples[0].wall
            with CpuMeter(timer=rec is None) as meter:
                for chunk in range(1, chunks + 1):
                    await asyncio.sleep(
                        max(0.0, w0 + seconds * chunk / chunks - time.perf_counter())
                    )
                    meter.lap()
                    samples.append(Sample.take(cluster, len(load.brcv)))
        load.sending = False
        stop_probe.set()
        await sender
        if probe is not None:
            await probe

        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while not load.complete() and time.perf_counter() < deadline:
            await asyncio.sleep(0.01)
        return _summarise(load, cluster, setup_s, samples, meter, lags)
    finally:
        await cluster.close(errors)


async def _spare_setup(log_dir: Path, errors: LoopErrors) -> float:
    """One extra set-up, closed at once; in a loop of its own, so its
    timers end with that loop."""
    asyncio.get_running_loop().set_exception_handler(errors)
    cluster = Cluster(log_dir)
    try:
        return await cluster.start()
    finally:
        await cluster.close(errors)


def _summarise(
    load: Paced,
    cluster: Cluster,
    setup_s: float,
    samples: list[Sample],
    meter: CpuMeter,
    lags: list[float],
) -> LiveRun:
    bounds = [sample.wall for sample in samples]
    w0, w1 = bounds[0], bounds[-1]
    by_chunk: list[list[float]] = [[] for _ in bounds[1:]]
    for value, _dst, at in load.brcv:
        due = load.due[value]
        if w0 <= due < w1:
            by_chunk[bisect.bisect_right(bounds, due) - 1].append(at - due)
    brcv_times: dict[str, list[float]] = {p: [] for p in LIVE_PROCS}
    for _value, dst, at in load.brcv:
        brcv_times[dst].append(at)
    late = [lateness for due, lateness in load.late if w0 <= due < w1]
    nodes = cluster.nodes
    layer = {
        "ring.formations": sum(n.member.formations_initiated for n in nodes),
        "ring.retransmissions": sum(n.member.retransmissions for n in nodes),
        "ring.resyncs": sum(n.member.token_resyncs for n in nodes),
        "ring.token_entries_per_forward": ratio(
            sum(n.member.token_entries_sent for n in nodes),
            sum(n.member.token_forwards for n in nodes),
        ),
        "ring.append_entries_per_batch": ratio(
            sum(n.member.token_entries_appended for n in nodes),
            sum(n.member.token_append_batches for n in nodes),
        ),
        "net.packets": sum(n.network.messages_sent for n in nodes),
        "net.drops": sum(
            n.network.counters["blocked_out"]
            + n.network.counters["blocked_in"]
            + n.network.counters["disconnected_drops"]
            for n in nodes
        ),
        "net.delivered_ratio": ratio(
            sum(n.network.messages_delivered for n in nodes),
            sum(n.network.messages_sent for n in nodes),
        ),
    }
    return LiveRun(
        setup_s=[setup_s],
        samples=samples,
        chunk_cpu=meter.cpu,
        chunk_raw_cpu=meter.raw_cpu,
        chunk_wall=meter.wall,
        chunk_brcv=[b.brcv - a.brcv for a, b in zip(samples, samples[1:])],
        chunk_latency=[
            (percentile(lat, 0.50), percentile(lat, 0.90)) if lat else (0.0, 0.0)
            for lat in by_chunk
        ],
        outage_max=outage_max([(min(load.due.values()), LIVE_PROCS)], brcv_times),
        late=late,
        lag=lags,
        attempted=len(load.due),
        deliveries=len(load.brcv),
        layer=layer,
    )


def _verify(run: LiveRun, log_dir: Path, timed: bool) -> None:
    """Check the event logs: VS and TO conformance, and every value
    delivered at every member.  With ``timed`` the TO check of the first
    verification is timed on its own."""
    to_time: list[float] = []
    original = rt_trace.check_to_trace
    if timed:

        def timed_check(*args: Any, **kwargs: Any) -> Any:
            t = time.thread_time()
            try:
                return original(*args, **kwargs)
            finally:
                to_time.append(time.thread_time() - t)

        rt_trace.check_to_trace = timed_check
    try:
        report, run.verify_s, run.verify_norm_s = timed_normalised(
            rt_trace.verify_log_dir, log_dir, LIVE_PROCS, initial_view_for(LIVE_PROCS)
        )
    finally:
        rt_trace.check_to_trace = original
    run.to_s = to_time[0] if to_time else 0.0
    run.verify_events = report.events
    for violation in report.violations[:5]:
        run.problems.append(f"VS-machine: {violation}")
    if not report.to_ok:
        run.problems.append(f"TO-machine trace: {report.to_reason}")
    if report.sends != run.attempted:
        run.problems.append(f"logged {report.sends} bcasts, sent {run.attempted}")
    if not report.delivered_complete:
        run.problems.append("not every value was delivered at every member")


def run_live(
    seed: int,
    seconds: float,
    out_dir: Path,
    setups: int = 3,
    rec: Recorder | None = None,
) -> LiveRun:
    """One live run, verified.  The event logs are removed afterwards."""
    out_dir.mkdir(parents=True, exist_ok=True)
    errors = LoopErrors()
    try:
        spare_setups = []
        for k in range(setups - 1):
            spare_setups.append(asyncio.run(_spare_setup(out_dir / f"setup{k}", errors)))
            errors.closing = False
        run = asyncio.run(_run(seed, seconds, out_dir, rec, errors))
        run.setup_s[:0] = spare_setups
        run.loop_errors = errors.count
        for message in errors.unexpected[:5]:
            run.problems.append(f"event loop: {message}")
        _verify(run, out_dir / "run", timed=rec is not None)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if run.problems:
        run.failed = run.attempted
    return run
