"""The runtime's drain applies self-enumerated actions unchecked; this
shadow checks them anyway.

``VStoTORuntime._drain`` applies each action that
``enabled_actions()`` has just yielded through ``apply``, skipping the
second precondition evaluation that ``Automaton.step`` would make.  The
shadow below wraps ``VStoTOProcess.apply`` for the duration of a test
and, for every locally controlled action, asserts what ``step`` would
have asserted: the action is in the signature and enabled.  It runs
over a steady load, a partition/heal cycle with a crash-restart, and
the pinned seed-7 chaos execution, whose golden digests must not move.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.quorums import MajorityQuorumSystem
from repro.core.to_spec import check_to_trace
from repro.core.vstoto.process import VSTOTO_INPUTS, VStoTOProcess, is_summary
from repro.core.vstoto.runtime import VStoTORuntime
from repro.membership.ring import RingConfig
from repro.membership.service import TokenRingVS
from repro.obs.digest import rng_digest, trace_shape_digest
from tests.obs.test_determinism import GOLDEN_RNG, GOLDEN_SHAPE, run_chaos_pinned

PROCS = (1, 2, 3, 4, 5)


@pytest.fixture
def shadow(monkeypatch):
    """Checked-action counts by name ("gpsnd" counts ordinary messages,
    "summary" the state-exchange sends)."""
    checked: Counter[str] = Counter()
    apply = VStoTOProcess.apply

    def checked_apply(self, action):
        if action.name not in VSTOTO_INPUTS:
            assert self.signature.contains(action.name), action
            assert self.is_enabled(action), f"{self.name}: {action} applied while disabled"
            if action.name == "gpsnd" and is_summary(action.args[0]):
                checked["summary"] += 1
            else:
                checked[action.name] += 1
        apply(self, action)

    monkeypatch.setattr(VStoTOProcess, "apply", checked_apply)
    return checked


def _stack(seed):
    service = TokenRingVS(
        PROCS,
        RingConfig(delta=1.0, pi=10.0, mu=50.0, work_conserving=True),
        seed=seed,
    )
    return service, VStoTORuntime(service, MajorityQuorumSystem(PROCS))


def _assert_complete(runtime, sends):
    report = check_to_trace([e.action for e in runtime.trace.events], PROCS)
    assert report.ok, report.reason
    for p in PROCS:
        assert sorted(runtime.delivered_values(p)) == sorted(f"v{i}" for i in range(sends))


def test_steady_load(shadow):
    service, runtime = _stack(seed=211)
    sends = 300
    for i in range(sends):
        runtime.schedule_broadcast(10.0 + 1.2 * i, PROCS[i % 5], f"v{i}")
    runtime.start()
    runtime.run_until(10.0 + 1.2 * sends + 300.0)
    _assert_complete(runtime, sends)
    assert shadow["label"] == shadow["gpsnd"] == sends
    assert shadow["brcv"] == sends * len(PROCS)
    assert shadow["confirm"] >= shadow["brcv"]


def test_partition_heal_and_crash_restart(shadow):
    """{1,2,3}|{4,5}, heal; then {1,2,3,4} with 5 cut off, healed with
    5 crash-restarted."""
    service, runtime = _stack(seed=301)
    oracle = service.network.oracle
    simulator = service.simulator
    sends = 300

    def cut(groups):
        return lambda: oracle.apply_partition(groups, time=simulator.now)

    def heal(restart=()):
        def apply():
            for p in restart:
                service.restart_processor(p)
            oracle.apply_partition([PROCS], time=simulator.now)

        return apply

    simulator.schedule_at(85.0, cut([(1, 2, 3), (4, 5)]))
    simulator.schedule_at(160.0, heal())
    simulator.schedule_at(235.0, cut([(1, 2, 3, 4)]))
    simulator.schedule_at(310.0, heal(restart=(5,)))
    for i in range(sends):
        runtime.schedule_broadcast(10.0 + 1.2 * i, PROCS[i % 5], f"v{i}")
    runtime.start()
    runtime.run_until(10.0 + 1.2 * sends + 600.0)
    _assert_complete(runtime, sends)
    # Several state exchanges ran, each through the checked shadow.
    assert shadow["summary"] >= 3 * len(PROCS)
    assert shadow["label"] == sends


def test_pinned_chaos_execution_unchanged(shadow):
    runner = run_chaos_pinned()
    assert trace_shape_digest(runner.service.merged_trace()) == GOLDEN_SHAPE
    assert rng_digest(runner.service.rngs) == GOLDEN_RNG
    assert shadow["brcv"] > 0 and shadow["summary"] > 0
