"""Sharded live runtime: the op string codec, the group envelope demux,
and the full subprocess episode with per-group verification."""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.rt.cluster as cluster_module
from repro.rt.cluster import run_sharded_cluster, verify_sharded
from repro.shard.routing import HashRing
from repro.shard.live import (
    GroupDemux,
    ShardEnvelope,
    encode_live_op,
    parse_live_op,
)


class Sink:
    def __init__(self, proc_id):
        self.proc_id = proc_id
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message))


class TestLiveOpCodec:
    def test_round_trip(self):
        value = encode_live_op("k3", 17, "v17")
        assert value == "k3#17#v17"
        assert parse_live_op(value) == ("k3", 17, "v17")

    def test_payload_may_contain_the_separator(self):
        assert parse_live_op(encode_live_op("k", 0, "a#b")) == ("k", 0, "a#b")

    def test_key_may_not_contain_the_separator(self):
        with pytest.raises(ValueError):
            encode_live_op("bad#key", 0, "v")

    def test_foreign_values_parse_to_none(self):
        assert parse_live_op("m17") is None
        assert parse_live_op("a#b") is None
        assert parse_live_op("a#nope#c") is None
        assert parse_live_op(42) is None


class TestGroupDemux:
    def test_routes_envelopes_and_defaults_bare_messages(self):
        g0, g1 = Sink("p1"), Sink("p1")
        demux = GroupDemux("p1", {"g0": g0, "g1": g1}, default="g0")
        demux.on_message("p2", ShardEnvelope("g1", "hello"))
        demux.on_message("p2", "bare")
        assert g1.received == [("p2", "hello")]
        assert g0.received == [("p2", "bare")]
        demux.on_message("p2", ShardEnvelope("g9", "lost"))
        assert demux.unknown_group_drops == 1


class TestLiveEpisode:
    def test_two_shard_cluster_delivers_and_verifies(self):
        report = asyncio.run(
            run_sharded_cluster(
                nodes=3, shards=2, sends=12, delta=0.05, send_interval=0.02
            )
        )
        assert report["ok"], report["violations"]
        assert report["delivered_complete"]
        assert report["cross_shard"]["ok"]
        assert set(report["groups"]) == {"g0", "g1"}
        for group, entry in report["groups"].items():
            assert entry["ok"], f"{group} failed verification"
            assert entry["deliveries"] > 0
        # Every send was routed, completed and accounted for.
        assert report["sends"] == 12
        assert report["router"]["pending_total"] == 0
        assert report["polled_complete"]


class TestShardedCli:
    @pytest.mark.parametrize(
        "extra", [["--kill"], ["--scenario", "any.json"], ["--kill", "--scenario", "x"]]
    )
    def test_flags_the_sharded_episode_ignores_are_refused(
        self, monkeypatch, capsys, extra
    ):
        def no_spawn(*args, **kwargs):
            raise AssertionError("the refused command spawned a process")

        monkeypatch.setattr(cluster_module.subprocess, "Popen", no_spawn)
        with pytest.raises(SystemExit) as exit_info:
            cluster_module.main(["--shards", "2", *extra])
        assert exit_info.value.code == 2
        assert "cannot be combined with --shards" in capsys.readouterr().err


def write_log(path, events):
    """A node's event log with chosen timestamps (EventLog stamps the
    host clock, so tests that need exact times write the JSONL)."""
    with open(path, "w", encoding="utf-8") as handle:
        for seq, (ts, ev, args) in enumerate(events, 1):
            entry = {"ts": ts, "seq": seq, "node": path.name.split("@")[0],
                     "ev": ev, "args": args}
            handle.write(json.dumps(entry) + "\n")


class TestShardedThroughput:
    def test_rate_spans_first_bcast_to_last_brcv_across_groups(self, tmp_path):
        # Two groups whose delivery windows overlap only partly: g0
        # delivers over [10.0, 10.5], g1 over [11.0, 12.0].  The run's
        # rate is 4 deliveries over the 2.0 s from the first bcast (g0)
        # to the last brcv (g1), as an unsharded run would count it.
        ring = HashRing(["g0", "g1"], seed=0)
        keys = {}
        for i in range(64):
            keys.setdefault(ring.owner_of(f"k{i}"), f"k{i}")
        op0 = encode_live_op(keys["g0"], 0, "a")
        op1 = encode_live_op(keys["g1"], 1, "b")
        timeline = {
            "g0": (op0, 10.0, 10.4, 10.5),
            "g1": (op1, 11.0, 11.5, 12.0),
        }
        for group, (op, t_bcast, t_p1, t_p2) in timeline.items():
            write_log(tmp_path / f"p1@{group}.events.jsonl", [
                (t_bcast, "bcast", [op, "p1"]),
                (t_p1, "brcv", [op, "p1", "p1"]),
            ])
            write_log(tmp_path / f"p2@{group}.events.jsonl", [
                (t_p2, "brcv", [op, "p1", "p2"]),
            ])
        submitted = {
            keys["g0"]: [parse_live_op(op0)],
            keys["g1"]: [parse_live_op(op1)],
        }
        report = verify_sharded(
            tmp_path, ("p1", "p2"), ("g0", "g1"), submitted, ring,
            expect_at=("p1", "p2"),
        )
        assert report["ok"], report
        assert report["deliveries"] == 4
        assert report["span_seconds"] == pytest.approx(2.0)
        assert report["throughput"] == pytest.approx(2.0)
