"""The benchmark's own checks: seeded generators, reproducible
simulator runs, and traced-run accounting.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gzip

import pytest

from perfbench.gen import inputs_digest, paced_inputs, sim_inputs
from perfbench.live import run_live
from perfbench.sim import layer_counts, run_episode
from perfbench.tracer import Recorder, is_wrapped, targets

GENERATORS = {
    "sim-steady": lambda seed: sim_inputs(seed),
    "sim-churn": lambda seed: sim_inputs(seed, churn=True),
    "live-paced": lambda seed: paced_inputs(seed, 11),
}


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_one_seed_gives_identical_inputs(workload):
    make = GENERATORS[workload]
    assert inputs_digest(make(7)) == inputs_digest(make(7))


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_another_seed_gives_other_inputs(workload):
    make = GENERATORS[workload]
    assert inputs_digest(make(7)) != inputs_digest(make(8))


def test_churn_cycle_rotates_and_restarts_the_cut_processor():
    splits = sim_inputs(3, churn=True).splits
    assert len(splits) >= 20
    assert [s.groups for s in splits[:3]] == [
        ((1, 2, 3), (4, 5)),
        ((1, 2), (3, 4, 5)),
        ((1, 2, 3, 4),),
    ]
    assert [s.restart for s in splits[:3]] == [(), (), (5,)]
    assert all(s.heal - s.cut == 75.0 for s in splits)


@pytest.mark.parametrize("churn", [False, True])
def test_sim_episode_repeats_exactly(churn):
    inputs = sim_inputs(5, sends=300, churn=churn, period=60.0, outage=30.0)
    first = run_episode(inputs, keep=True)
    again = run_episode(inputs, keep=True)
    assert not first.problems
    assert first.failed == 0
    assert first.digest == again.digest
    assert layer_counts(first.stack) == layer_counts(again.stack)
    assert (first.latency_p50, first.outage_max) == (again.latency_p50, again.outage_max)
    other = run_episode(sim_inputs(6, sends=300, churn=churn, period=60.0, outage=30.0))
    assert other.digest != first.digest


def test_untraced_runs_carry_no_wrappers():
    owners = targets()
    assert owners
    run_episode(sim_inputs(1, sends=50))
    assert not any(is_wrapped(owner, attr) for owner, attr in owners)


def _check_accounting(rec: Recorder, thread_cpu: float) -> None:
    """Self times are the top-level spans split by layer, and the
    top-level spans fit in the window's thread CPU, so ``other.self_s``
    (the rest) is not negative."""
    own = rec.self_seconds()
    assert rec.spans > 0
    assert all(seconds >= 0 for seconds in own.values())
    top_ns = sum(
        rec.end[i] - rec.start[i] for i in range(rec.spans) if rec.parent[i] == -1
    )
    assert sum(own.values()) == pytest.approx(top_ns / 1e9, rel=1e-9)
    assert top_ns / 1e9 <= thread_cpu
    assert not any(is_wrapped(owner, attr) for owner, attr in targets())


def test_sim_traced_accounting_and_spans(tmp_path):
    rec = Recorder()
    episode = run_episode(sim_inputs(2, sends=200), rec=rec)
    assert not episode.problems
    _check_accounting(rec, episode.thread_cpu_s)
    own = rec.self_seconds()
    for layer in ("sim", "net", "ring", "vstoto", "ioa.step", "ioa.enumerate"):
        assert own[layer] > 0, layer
    assert max(rec.trails) > 0
    path = tmp_path / "spans.tsv.gz"
    rec.write(path)
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        rows = handle.read().splitlines()
    assert rows[0] == "name\tstart_ns\tend_ns\tparent"
    assert len(rows) == rec.spans + 1


def test_live_traced_accounting(tmp_path):
    rec = Recorder()
    run = run_live(3, 1.0, tmp_path / "live", setups=1, rec=rec)
    assert not run.problems
    assert run.failed == 0
    _check_accounting(rec, sum(run.chunk_raw_cpu))
    own = rec.self_seconds()
    for layer in ("ring", "vstoto", "wire.encode", "wire.decode", "transport", "log"):
        assert own[layer] > 0, layer
    assert own["sim"] == own["net"] == 0
    assert run.loop_errors > 0  # shutdown errors are counted, not printed
