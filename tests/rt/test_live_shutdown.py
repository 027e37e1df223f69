"""Closing in-process live nodes leaves nothing behind for the event
loop to report.

Two kinds of loop error used to surface at teardown: ring timers firing
after ``LiveNode.close()`` had closed their event log (``ValueError: I/O
operation on closed file``), and inbound connection handlers still
running when the loop shut down, whose cancellation the stream protocol
reports as an error.  The nodes here share one loop, as in-process
clusters do, and every error the loop's handler receives is counted.
"""

from __future__ import annotations

import asyncio

from repro.rt.cluster import free_port
from repro.rt.node import LiveNode, default_ring_config

PROCS = ("p1", "p2", "p3")


def _closed_cluster_errors(log_dir, sends: int, linger: float) -> list[dict]:
    """Run three nodes, deliver ``sends`` values, close every node and
    keep the loop running for ``linger`` seconds (long enough for any
    ring timer still armed to fire; 0 ends the loop without yielding to
    it again); return the loop errors."""
    errors: list[dict] = []

    async def scenario() -> None:
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context)
        )
        peers = {p: ("127.0.0.1", free_port()) for p in PROCS}
        nodes = [
            LiveNode(
                p,
                peers,
                log_dir,
                config=default_ring_config(),
                wire="binary",
                flush_after=0.0,
            )
            for p in PROCS
        ]
        for node in nodes:
            await node.start()
        for node in nodes:
            assert await node.network.wait_connected(timeout=10.0)
        for node in nodes:
            node.member.start()
        for i in range(sends):
            node = nodes[i % len(nodes)]
            node.runtime.broadcast(node.proc_id, f"v{i}")
            await asyncio.sleep(0.01)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 10.0
        while loop.time() < deadline and any(
            len(node.runtime.deliveries) < sends for node in nodes
        ):
            await asyncio.sleep(0.01)
        assert all(len(node.runtime.deliveries) == sends for node in nodes)
        for node in nodes:
            await node.close()
        if linger:
            await asyncio.sleep(linger)

    asyncio.run(scenario())
    return errors


def test_closing_a_busy_cluster_raises_no_loop_errors(tmp_path):
    errors = _closed_cluster_errors(tmp_path, sends=30, linger=0.6)
    assert errors == []


def test_closing_then_ending_the_loop_at_once_raises_no_loop_errors(tmp_path):
    """Set up, close at once and end the loop: no inbound handler may
    still be running for loop teardown to cancel."""
    errors = _closed_cluster_errors(tmp_path, sends=0, linger=0.0)
    assert errors == []
