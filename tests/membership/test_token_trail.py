"""The token's liveness trail stays within the ring.

``Token.trail`` names the members visited since the leader last
launched the token.  A launch tick starts a fresh trail, and so must
the work-conserving relaunch that sends the token round again as soon
as it comes home with work.  Otherwise the trail grows by one entry per
hop under sustained load, and every hop copies and walks all of it.
Every token a member receives is checked on arrival: it may name each
member at most once.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.quorums import MajorityQuorumSystem
from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.ring import RingConfig, RingMember
from repro.membership.service import TokenRingVS
from repro.rt.cluster import free_port
from repro.rt.node import LiveNode, default_ring_config


@pytest.fixture
def trails(monkeypatch):
    """(trail length on arrival, ring size) for every token any member
    processes."""
    seen: list[tuple[int, int]] = []
    process = RingMember._process_token

    def recording(self, token):
        seen.append((len(token.trail), len(token.members)))
        process(self, token)

    monkeypatch.setattr(RingMember, "_process_token", recording)
    return seen


def _assert_bounded(trails: list[tuple[int, int]]) -> None:
    assert trails, "no token was processed"
    worst = max(trails, key=lambda t: t[0] - t[1])
    assert worst[0] <= worst[1], (
        f"a token arrived with a trail of {worst[0]} entries "
        f"on a ring of {worst[1]}"
    )


def test_trail_bounded_on_sustained_sim_load(trails):
    """n = 5, work-conserving, one bcast every 1.2δ: the token always
    comes home with work, so every circulation is a relaunch."""
    procs = (1, 2, 3, 4, 5)
    service = TokenRingVS(
        procs,
        RingConfig(delta=1.0, pi=10.0, mu=50.0, work_conserving=True),
        seed=211,
    )
    runtime = VStoTORuntime(service, MajorityQuorumSystem(procs))
    sends = 600
    for i in range(sends):
        runtime.schedule_broadcast(10.0 + 1.2 * i, procs[i % 5], f"v{i}")
    runtime.start()
    runtime.run_until(10.0 + 1.2 * sends + 300.0)
    assert len(runtime.deliveries) == sends * len(procs)
    assert len(trails) > 2 * sends  # many circulations were checked
    _assert_bounded(trails)


def test_trail_bounded_on_live_ring(tmp_path, trails):
    """Three live nodes with the live ring configuration (work
    conserving) over loopback TCP."""
    procs = ("p1", "p2", "p3")
    sends = 60

    async def scenario() -> None:
        peers = {p: ("127.0.0.1", free_port()) for p in procs}
        nodes = [
            LiveNode(p, peers, tmp_path, config=default_ring_config(), wire="binary")
            for p in procs
        ]
        try:
            for node in nodes:
                await node.start()
            for node in nodes:
                assert await node.network.wait_connected(timeout=10.0)
            for node in nodes:
                node.member.start()
            for i in range(sends):
                node = nodes[i % len(nodes)]
                node.runtime.broadcast(node.proc_id, f"v{i}")
                await asyncio.sleep(0.005)
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 10.0
            while loop.time() < deadline and any(
                len(node.runtime.deliveries) < sends for node in nodes
            ):
                await asyncio.sleep(0.01)
            assert all(len(node.runtime.deliveries) == sends for node in nodes)
        finally:
            for node in nodes:
                await node.close()

    asyncio.run(scenario())
    _assert_bounded(trails)
