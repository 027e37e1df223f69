"""One live ring member as a daemon process: ``python -m repro.rt.node``.

The node hosts the *unmodified* protocol stack — a
:class:`~repro.membership.ring.RingMember` over a
:class:`~repro.rt.transport.LiveNetwork`, with a
:class:`~repro.core.vstoto.runtime.VStoTORuntime` on top for TO
semantics — and exposes a small control plane to the cluster driver:

- ``go`` — start the ring (replied once every outbound peer stream is
  up, giving the driver a clean synchronized launch);
- ``send`` — submit one client value (the TO ``bcast`` input);
- ``block`` / ``unblock`` — firewall peers (partition injection);
- ``stats`` — reply with live protocol/transport counters;
- ``stop`` — flush the event log, write the final report, exit.

Every VS and TO external event is appended to
``<log-dir>/<id>.events.jsonl`` (see :mod:`repro.rt.trace`); on stop a
``<id>.report.json`` records transport counters, ring statistics and
the rendered ``repro.obs`` metrics so live runs are observable with
the same vocabulary as simulated ones.

Usage::

    python -m repro.rt.node --id p1 \\
        --peers p1=127.0.0.1:9101,p2=127.0.0.1:9102,p3=127.0.0.1:9103 \\
        --log-dir /tmp/cluster-logs --delta 0.05
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, cast
from collections.abc import Callable

if TYPE_CHECKING:  # structural stand-in: the runtime only uses the
    from repro.membership.service import TokenRingVS  # TokenRingVS surface

from repro.core.quorums import MajorityQuorumSystem
from repro.core.types import View
from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.ring import RingConfig, RingMember
from repro.obs import Observability
from repro.obs.live.snapshot import MetricsSnapshot
from repro.rt.clock import LiveScheduler
from repro.rt.trace import EventLog
from repro.rt.transport import Ctl, LiveNetwork
from repro.shard.live import GroupDemux, GroupNet
from repro.shard.routing import group_names

#: Callback signatures mirrored from TokenRingVS (the runtime installs
#: its sinks on these attributes).
DeliveryCallback = Callable[[Any, str, str], None]
ViewCallback = Callable[[View, str], None]


def initial_view_for(processors: tuple[str, ...]) -> View:
    """The hybrid initial view v0 every node starts from: whole group,
    id (0, min) — identical to the TokenRingVS default, so live and
    simulated runs share their base case."""
    return View((0, min(processors)), frozenset(processors))


class LiveNodeService:
    """The per-node VS service façade.

    Presents the slice of :class:`~repro.membership.service.TokenRingVS`
    that :class:`~repro.membership.ring.RingMember` (RingService
    protocol) and :class:`~repro.core.vstoto.runtime.VStoTORuntime`
    consume, backed by one live transport and one local ring member.
    Every VS external event at this node is recorded to the event log
    before being forwarded.
    """

    def __init__(
        self,
        proc_id: str,
        network: LiveNetwork,
        log: EventLog | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.proc_id = proc_id
        self.network = network
        self.simulator = network.simulator
        self.processors: tuple[str, ...] = network.processors
        self.initial_view = initial_view_for(self.processors)
        self.log = log
        self.obs = obs
        self.member: RingMember | None = None
        self.on_gprcv: DeliveryCallback | None = None
        self.on_safe: DeliveryCallback | None = None
        self.on_newview: ViewCallback | None = None
        self._tracer = obs.tracer if obs is not None else None
        if self._tracer is not None:
            self._tracer.set_initial_view(self.initial_view)

    # -- TokenRingVS-compatible client surface -------------------------
    def start(self) -> None:
        if self.member is not None:
            self.member.start()

    def gpsnd(self, p: str, payload: Any) -> None:
        """Client send at this node (p must be the local processor)."""
        assert p == self.proc_id, f"live node {self.proc_id!r} cannot send as {p!r}"
        self._record("gpsnd", payload, p)
        assert self.member is not None
        self.member.gpsnd(payload)

    def current_view(self, p: str) -> View | None:
        assert self.member is not None
        return self.member.view

    # -- RingService emission ------------------------------------------
    def emit_newview(self, view: View, p: str) -> None:
        self._record("newview", view, p)
        if self.on_newview is not None:
            self.on_newview(view, p)

    def emit_gprcv(self, payload: Any, src: str, dst: str) -> None:
        self._record("gprcv", payload, src, dst)
        if self.on_gprcv is not None:
            self.on_gprcv(payload, src, dst)

    def emit_safe(self, payload: Any, src: str, dst: str) -> None:
        self._record("safe", payload, src, dst)
        if self.on_safe is not None:
            self.on_safe(payload, src, dst)

    def _record(self, name: str, *args: Any) -> None:
        if self.log is not None:
            self.log.record(name, *args)
        if self._tracer is not None:
            self._tracer.on_vs_event(self.simulator.now, name, args)


@dataclass
class _GroupStack:
    """One hosted group's full per-node stack (log through runtime)."""

    group: str
    log: EventLog
    service: LiveNodeService
    member: RingMember
    runtime: VStoTORuntime


class LiveNode:
    """The assembled node: transport + ring + VStoTO + control plane.

    With ``shards > 1`` the node hosts that many complete group stacks
    (ring member + VStoTO runtime + event log per group) over the one
    transport, multiplexed by :class:`~repro.shard.live.ShardEnvelope`
    frames; ``shards == 1`` keeps the pre-sharding wire byte-identical
    (no envelope, member registered directly).

    ``wire`` and ``flush_after`` name the one wire the node speaks (the
    binary codec, peer sends coalesced within one loop turn); they are
    accepted for callers that spell it out, and any other value raises
    :class:`ValueError`.
    """

    def __init__(
        self,
        proc_id: str,
        peers: dict[str, tuple[str, int]],
        log_dir: str | Path,
        config: RingConfig | None = None,
        max_frame: int | None = None,
        wire: str = "binary",
        flush_after: float = 0.0,
        shards: int = 1,
    ) -> None:
        if wire != "binary" or flush_after != 0.0:
            raise ValueError(
                f"the live wire is binary with same-turn flushing; got "
                f"wire={wire!r}, flush_after={flush_after!r}"
            )
        self.proc_id = proc_id
        self.config = config if config is not None else default_ring_config()
        self.shards = max(1, shards)
        loop = asyncio.get_event_loop()
        self.scheduler = LiveScheduler(loop)
        kwargs: dict[str, Any] = {}
        if max_frame is not None:
            kwargs["max_frame"] = max_frame
        self.network = LiveNetwork(
            proc_id,
            peers,
            self.scheduler,
            on_ctl=self._on_ctl,
            **kwargs,
        )
        self.log_dir = Path(log_dir)
        self.log_dir.mkdir(parents=True, exist_ok=True)
        # Span stitching reads one lifecycle tracer per node; with many
        # groups interleaving on one node the spans would alias, so
        # sharded nodes keep metrics (aggregating across groups) and
        # drop tracing.
        self.obs = Observability(metrics=True, tracing=self.shards == 1)
        self.network.attach_obs(self.obs)
        self._stacks: dict[str, _GroupStack] = {}
        if self.shards == 1:
            stack = self._build_stack(None)
            self.network.register(stack.member)
        else:
            names = group_names(self.shards)
            for name in names:
                self._build_stack(name)
            self.network.register(
                GroupDemux(
                    proc_id,
                    {g: s.member for g, s in self._stacks.items()},
                    default=names[0],
                )
            )
        first = self._stacks[min(self._stacks)]
        self.log = first.log
        self.service = first.service
        self.member = first.member
        self.runtime = first.runtime
        self.started = False
        self.sends_accepted = 0
        self.sends_rejected = 0
        self._snapshot_seq = 0
        self._stopping: asyncio.Future[None] = loop.create_future()

    def _build_stack(self, group: str | None) -> _GroupStack:
        """Assemble one group's log/service/member/runtime.  ``None``
        is the unsharded stack: legacy log name, bare transport."""
        name = group if group is not None else "g0"
        suffix = "" if group is None else f"@{group}"
        log = EventLog(
            self.log_dir / f"{self.proc_id}{suffix}.events.jsonl", self.proc_id
        )
        net = self.network if group is None else GroupNet(group, self.network)
        service = LiveNodeService(
            self.proc_id, cast(LiveNetwork, net), log, self.obs
        )
        member = RingMember(
            self.proc_id, service, self.config, service.initial_view
        )
        member.attach_obs(self.obs)
        service.member = member
        runtime = VStoTORuntime(
            cast("TokenRingVS", service),
            MajorityQuorumSystem(self.network.processors),
            on_deliver=functools.partial(self._on_deliver, log),
        )
        stack = _GroupStack(name, log, service, member, runtime)
        self._stacks[name] = stack
        return stack

    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.network.start()

    async def run_until_stopped(self) -> None:
        await self._stopping

    def _on_deliver(
        self, log: EventLog, value: Any, origin: str, dst: str
    ) -> None:
        log.record("brcv", value, origin, dst)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    async def _on_ctl(
        self, src: str, ctl: Ctl, reply: Callable[[Ctl], None]
    ) -> None:
        if ctl.op == "go":
            await self.network.wait_connected(timeout=10.0)
            if not self.started:
                self.started = True
                for name in sorted(self._stacks):
                    self._stacks[name].member.start()
            reply(Ctl("ok", {"op": "go", "node": self.proc_id}))
        elif ctl.op == "send":
            group, value = self._parse_send(ctl.data)
            stack = self._stacks.get(group)
            if stack is None:
                self.sends_rejected += 1
                return
            self.sends_accepted += 1
            stack.log.record("bcast", value, self.proc_id)
            stack.runtime.broadcast(self.proc_id, value)
        elif ctl.op == "block":
            self.network.block(ctl.data or ())
            reply(Ctl("ok", {"op": "block", "blocked": sorted(self.network.blocked)}))
        elif ctl.op == "unblock":
            self.network.unblock(ctl.data)
            reply(Ctl("ok", {"op": "unblock", "blocked": sorted(self.network.blocked)}))
        elif ctl.op == "stats":
            reply(Ctl("stats", {**self.stats(), "snapshot": self.snapshot()}))
        elif ctl.op == "ping":
            reply(Ctl("ok", {"op": "ping", "node": self.proc_id}))
        elif ctl.op == "stop":
            self._write_report()
            reply(Ctl("ok", {"op": "stop", "node": self.proc_id}))
            # Let the reply frame flush before tearing the loop down.
            loop = asyncio.get_running_loop()
            loop.call_later(0.05, self._finish)

    def _finish(self) -> None:
        if not self._stopping.done():
            self._stopping.set_result(None)

    def _parse_send(self, data: Any) -> tuple[str, Any]:
        """Resolve a client send to ``(group, value)``.  Sharded nodes
        accept the dict form ``{"g": group, "v": value}``; a bare value
        (or any send on an unsharded node) goes to the first group."""
        if (
            self.shards > 1
            and isinstance(data, dict)
            and "g" in data
        ):
            return str(data["g"]), data.get("v")
        return min(self._stacks), data

    # ------------------------------------------------------------------
    def _stack_stats(self, stack: _GroupStack) -> dict[str, Any]:
        """One group stack's counters (the legacy per-node shape)."""
        member = stack.member
        view = member.view
        return {
            "view": list(view.id) if view is not None else None,
            "view_size": len(view.set) if view is not None else 0,
            "delivered": len(stack.runtime.deliveries),
            "events_recorded": stack.log.events_recorded,
            "formations": member.formations_initiated,
            "tokens_processed": member.tokens_processed,
            "duplicates_suppressed": member.duplicates_suppressed,
            "token": {
                "forwards": member.token_forwards,
                "entries_sent": member.token_entries_sent,
                "entries_max": member.token_entries_max,
                "resyncs": member.token_resyncs,
                "entries_appended": member.token_entries_appended,
                "append_batches": member.token_append_batches,
                "append_max": member.token_append_max,
                "entries_per_batch": (
                    member.token_entries_appended / member.token_append_batches
                    if member.token_append_batches
                    else 0.0
                ),
            },
        }

    def stats(self) -> dict[str, Any]:
        """Live counters: ring, TO deliveries, transport, event log.
        Sharded nodes aggregate across groups and add a per-group
        breakdown under ``"groups"``."""
        out: dict[str, Any] = {
            "node": self.proc_id,
            "sends_accepted": self.sends_accepted,
        }
        if self.shards == 1:
            out.update(self._stack_stats(next(iter(self._stacks.values()))))
        else:
            per = {
                name: self._stack_stats(self._stacks[name])
                for name in sorted(self._stacks)
            }
            first = per[min(per)]
            token_totals = {
                key: sum(g["token"][key] for g in per.values())
                for key in first["token"]
                if key != "entries_per_batch"
            }
            batches = token_totals["append_batches"]
            token_totals["entries_per_batch"] = (
                token_totals["entries_appended"] / batches if batches else 0.0
            )
            out.update(
                {
                    "shards": self.shards,
                    "view": first["view"],
                    "view_size": first["view_size"],
                    "delivered": sum(g["delivered"] for g in per.values()),
                    "events_recorded": sum(
                        g["events_recorded"] for g in per.values()
                    ),
                    "formations": sum(g["formations"] for g in per.values()),
                    "tokens_processed": sum(
                        g["tokens_processed"] for g in per.values()
                    ),
                    "duplicates_suppressed": sum(
                        g["duplicates_suppressed"] for g in per.values()
                    ),
                    "token": token_totals,
                    "groups": per,
                }
            )
        out["transport"] = self.network.stats()
        return out

    def snapshot(self) -> dict[str, Any]:
        """One typed metrics snapshot frame: the full registry plus a
        per-node sequence number and this node's clocks.  ``ts`` is the
        same wall clock the event log stamps, so the driver's metrics
        timeline and the stitched spans share one time base."""
        self._snapshot_seq += 1
        metrics = (
            self.obs.metrics.to_dict() if self.obs.metrics is not None else {}
        )
        return MetricsSnapshot(
            node=self.proc_id,
            seq=self._snapshot_seq,
            ts=time.time(),
            uptime=self.scheduler.now,
            metrics=metrics,
        ).to_dict()

    def _write_report(self) -> None:
        report = {
            "stats": self.stats(),
            "metrics": (
                self.obs.metrics.render_text() if self.obs.metrics else ""
            ),
        }
        path = self.log_dir / f"{self.proc_id}.report.json"
        path.write_text(json.dumps(report, indent=2), encoding="utf-8")

    async def close(self) -> None:
        """Stop the timers, then the transport (no frame is dispatched
        after it returns), and only then close the event logs, so no
        protocol callback can write to a closed log."""
        self.scheduler.close()
        await self.network.close()
        for name in sorted(self._stacks):
            self._stacks[name].log.close()


def default_ring_config(delta: float = 0.05) -> RingConfig:
    """Live timing: δ is the assumed one-hop bound (50 ms is generous
    for loopback TCP); π and μ scale from it as in the Section 8
    sketch.  Work-conserving keeps delivery latency at circulation
    speed instead of π ticks; one blind retransmission covers frames
    lost to a connection riding through a partition edge."""
    return RingConfig(
        delta=delta,
        pi=4 * delta,
        mu=20 * delta,
        work_conserving=True,
        retransmit_attempts=2,
    )


def parse_peers(spec: str) -> dict[str, tuple[str, int]]:
    """Parse ``p1=host:port,p2=host:port,...``."""
    peers: dict[str, tuple[str, int]] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, addr = part.partition("=")
        host, _, port = addr.rpartition(":")
        if not name or not host or not port:
            raise ValueError(f"bad peer spec {part!r} (want id=host:port)")
        peers[name] = (host, int(port))
    if len(peers) < 2:
        raise ValueError("need at least two peers")
    return peers


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.rt.node",
        description="Host one live ring member (VS + VStoTO over TCP).",
    )
    parser.add_argument("--id", required=True, help="this node's processor id")
    parser.add_argument(
        "--peers",
        required=True,
        help="comma-separated id=host:port for every processor (incl. self)",
    )
    parser.add_argument(
        "--log-dir", required=True, help="directory for event logs and reports"
    )
    parser.add_argument(
        "--delta",
        type=float,
        default=0.05,
        help="assumed one-hop delivery bound in seconds (default 0.05)",
    )
    parser.add_argument(
        "--max-frame",
        type=int,
        default=None,
        help="frame size ceiling in bytes (default 1 MiB)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="number of VS group runtimes to host on this node "
        "(default 1: the unsharded byte-identical wire)",
    )
    return parser


async def amain(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    peers = parse_peers(args.peers)
    if args.id not in peers:
        raise SystemExit(f"--id {args.id!r} not present in --peers")
    node = LiveNode(
        args.id,
        peers,
        args.log_dir,
        config=default_ring_config(args.delta),
        max_frame=args.max_frame,
        shards=args.shards,
    )
    await node.start()
    try:
        await node.run_until_stopped()
    finally:
        await node.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    return asyncio.run(amain(argv))


if __name__ == "__main__":
    raise SystemExit(main())
