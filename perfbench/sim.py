"""The simulator workloads: ``sim-steady`` and ``sim-churn``.

One *episode* builds the stack from a :class:`~perfbench.gen.SimInputs`,
runs the whole send schedule (the measured window) and then a settle
period outside the window, and checks the result.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import resource
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.monitor import OnlineVSMonitor
from repro.core.quorums import MajorityQuorumSystem
from repro.core.to_spec import check_to_trace
from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS

from perfbench.gen import DELTA, MU, PI, SIM_PROCS, SimInputs, Split
from perfbench.host import CpuMeter, normalised_once, timed_normalised
from perfbench.memory import MemoryPass
from perfbench.stats import outage_max, percentile
from perfbench.tracer import Recorder, installed


@dataclass
class SimStack:
    service: TokenRingVS
    runtime: VStoTORuntime


def build(inputs: SimInputs) -> SimStack:
    """Set-up: construct the stack, schedule the generated input, and
    run virtual time to one δ before the first bcast (the initial view
    is installed and the token has started circulating)."""
    config = RingConfig(delta=DELTA, pi=PI, mu=MU, work_conserving=True)
    service = TokenRingVS(SIM_PROCS, config, seed=inputs.ring_seed)
    runtime = VStoTORuntime(service, MajorityQuorumSystem(SIM_PROCS))
    for due, origin, value in inputs.sends:
        runtime.schedule_broadcast(due, origin, value)
    for split in inputs.splits:
        service.simulator.schedule_at(split.cut, _cut(service, split))
        service.simulator.schedule_at(split.heal, _heal(service, split))
    runtime.start()
    runtime.run_until(inputs.first_due - DELTA)
    return SimStack(service, runtime)


def _cut(service: TokenRingVS, split: Split) -> Any:
    def apply() -> None:
        service.network.oracle.apply_partition(split.groups, time=service.simulator.now)

    return apply


def _heal(service: TokenRingVS, split: Split) -> Any:
    def apply() -> None:
        for p in split.restart:
            service.restart_processor(p)
        service.network.oracle.apply_partition([SIM_PROCS], time=service.simulator.now)

    return apply


def disruptions(inputs: SimInputs) -> list[tuple[float, tuple[int, ...]]]:
    """Start of sending, then every cut and heal, each with the
    component that holds the majority after it."""
    out = [(inputs.first_due, SIM_PROCS)]
    for split in inputs.splits:
        out.append((split.cut, max(split.groups, key=len)))
        out.append((split.heal, SIM_PROCS))
    return out


#: Chunks per episode window; CPU is measured and normalised per chunk.
CHUNKS = 16


@dataclass
class Episode:
    """What one episode measured and checked."""

    setup_s: float
    #: per chunk: normalised CPU s, raw thread CPU s, wall s, brcv
    cpu: list[float]
    raw_cpu: list[float]
    wall: list[float]
    brcv: list[int]
    rss_kb: float
    latency_p50: float
    latency_p90: float
    outage_max: float
    #: verification wall time, raw and normalised
    verify_s: float
    verify_norm_s: float
    vs_s: float
    to_s: float
    verify_events: int
    digest: str
    attempted: int
    failed: int
    #: every brcv of the episode, settle included (what verify checks)
    verified: int = 0
    problems: list[str] = field(default_factory=list)
    stack: SimStack | None = None
    #: retained KB by layer at the window's end (memory pass only)
    mem_kb: dict[str, float] = field(default_factory=dict)

    @property
    def deliveries(self) -> int:
        return sum(self.brcv)

    @property
    def thread_cpu_s(self) -> float:
        """Raw thread CPU of the measured window (span accounting)."""
        return sum(self.raw_cpu)


def run_episode(
    inputs: SimInputs,
    keep: bool = False,
    rec: Recorder | None = None,
    memory: MemoryPass | None = None,
) -> Episode:
    """Build, run and verify one episode.

    The measured window runs from one δ before the first bcast to the
    last one, in :data:`CHUNKS` equal spans of virtual time; the settle
    period that delivers the last values runs after it, unmeasured.
    With ``rec`` the layer wrappers are installed for the window only;
    with ``memory`` the retained memory is grouped by layer at its end.
    """
    gc.collect()
    if memory is not None:
        memory.start()
    stack, setup_s = normalised_once(build, inputs)
    runtime = stack.runtime
    simulator = stack.service.simulator
    start = inputs.first_due - DELTA
    span = inputs.last_due - start
    brcv = []
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with installed(rec) if rec is not None else contextlib.nullcontext():
        with CpuMeter(timer=rec is None) as meter:
            for chunk in range(1, CHUNKS + 1):
                simulator.run_until(start + span * chunk / CHUNKS)
                meter.lap()
                brcv.append(len(runtime.deliveries) - sum(brcv))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
    mem_kb = memory.stop() if memory is not None else {}
    runtime.run_until(inputs.horizon)

    (problems, vs_s, events), verify_s, verify_norm_s = timed_normalised(verify, stack)
    to_s = verify_s - vs_s
    undelivered = undelivered_values(inputs, stack)
    if undelivered:
        problems.append(
            f"{undelivered} of {len(inputs.sends)} values not delivered everywhere"
        )

    dues = {value: due for due, _origin, value in inputs.sends}
    latencies = [d.time - dues[d.value] for d in runtime.deliveries]
    brcv_times: dict[Any, list[float]] = {p: [] for p in SIM_PROCS}
    for d in runtime.deliveries:
        brcv_times[d.dst].append(d.time)
    return Episode(
        setup_s=setup_s,
        cpu=meter.cpu,
        raw_cpu=meter.raw_cpu,
        wall=meter.wall,
        brcv=brcv,
        rss_kb=float(rss_kb),
        latency_p50=percentile(latencies, 0.50),
        latency_p90=percentile(latencies, 0.90),
        outage_max=outage_max(disruptions(inputs), brcv_times),
        verify_s=verify_s,
        verify_norm_s=verify_norm_s,
        vs_s=vs_s,
        to_s=to_s,
        verify_events=events,
        digest=to_digest(runtime),
        attempted=len(inputs.sends),
        failed=len(inputs.sends) if problems else 0,
        verified=len(runtime.deliveries),
        problems=problems,
        stack=stack if keep else None,
        mem_kb=mem_kb,
    )


def verify(stack: SimStack) -> tuple[list[str], float, int]:
    """Replay the VS trace through the online monitor, then check the
    TO trace.  Returns the problems, the VS part's seconds and the
    number of VS events checked."""
    problems, vs_s, events = check_vs(stack)
    report = check_to_trace(stack.runtime.trace.untimed(), SIM_PROCS)
    if not report.ok:
        problems.append(f"TO-machine trace: {report.reason}")
    return problems, vs_s, events


def check_vs(stack: SimStack) -> tuple[list[str], float, int]:
    """Replay the recorded VS trace through the online monitor."""
    t0 = time.thread_time()
    service = stack.service
    monitor = OnlineVSMonitor(SIM_PROCS, service.initial_view, strict=False)
    feeds = {
        "newview": monitor.on_newview,
        "gpsnd": monitor.on_gpsnd,
        "gprcv": monitor.on_gprcv,
        "safe": monitor.on_safe,
    }
    for event in service.trace.events:
        feeds[event.action.name](*event.action.args)
    problems = [f"VS-machine: {v}" for v in monitor.violations[:5]]
    return problems, time.thread_time() - t0, monitor.events_checked


def undelivered_values(inputs: SimInputs, stack: SimStack) -> int:
    """Values not delivered at every member of the final primary view
    (the view at a processor whose VStoTO process is primary)."""
    runtime = stack.runtime
    primary = [p for p in SIM_PROCS if runtime.procs[p].primary]
    if not primary:
        return len(inputs.sends)
    view = stack.service.current_view(primary[0])
    members = sorted(view.set) if view is not None else primary
    delivered = {p: set() for p in members}
    for d in runtime.deliveries:
        if d.dst in delivered:
            delivered[d.dst].add(d.value)
    return sum(
        1
        for _due, _origin, value in inputs.sends
        if any(value not in delivered[p] for p in members)
    )


def to_digest(runtime: VStoTORuntime) -> str:
    """SHA-256 of every member's brcv sequence (value, origin)."""
    h = hashlib.sha256()
    for p in SIM_PROCS:
        h.update(repr(p).encode())
        for d in runtime.deliveries:
            if d.dst == p:
                h.update(f"\x00{d.value}\x01{d.origin}".encode())
    return h.hexdigest()


def layer_counts(stack: SimStack) -> dict[str, float]:
    """Per-layer counters read off the stack's public ``stats()``."""
    service = stack.service
    members = service.members.values()
    stats = service.stats()
    sim = service.simulator.stats()
    forwards = sum(m.token_forwards for m in members)
    appended = sum(m.token_entries_appended for m in members)
    batches = sum(m.token_append_batches for m in members)
    return {
        "sim.events": sim["events_processed"],
        "sim.compactions": sim["compactions"],
        "net.packets": stats["messages_sent"],
        "net.drops": sum(stats["drops"].values()),
        "net.delivered_ratio": stats["messages_delivered"] / max(1, stats["messages_sent"]),
        "ring.formations": stats["formations"],
        "ring.retransmissions": stats["retransmissions"],
        "ring.resyncs": stats["token_resyncs"],
        "ring.token_entries_per_forward": stats["token_entries_sent"] / max(1, forwards),
        "ring.append_entries_per_batch": appended / max(1, batches),
    }
