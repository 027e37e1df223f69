"""Tests for TO-machine (Fig. 3) and the trace membership checker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.to_spec import TOMachine, check_to_trace
from repro.ioa.actions import act
from repro.ioa.automaton import TransitionError
from repro.ioa.execution import RandomScheduler, run_automaton

PROCS = ("p", "q", "r")


def machine():
    return TOMachine(PROCS)


class TestTransitions:
    def test_bcast_appends_to_pending(self):
        m = machine()
        m.step(act("bcast", "a", "p"))
        m.step(act("bcast", "b", "p"))
        assert m.pending["p"] == ["a", "b"]

    def test_to_order_moves_head_to_queue(self):
        m = machine()
        m.step(act("bcast", "a", "p"))
        m.step(act("to-order", "a", "p"))
        assert m.queue == [("a", "p")]
        assert m.pending["p"] == []

    def test_to_order_requires_head(self):
        m = machine()
        m.step(act("bcast", "a", "p"))
        m.step(act("bcast", "b", "p"))
        with pytest.raises(TransitionError):
            m.step(act("to-order", "b", "p"))

    def test_brcv_walks_queue_per_destination(self):
        m = machine()
        for value in ("a", "b"):
            m.step(act("bcast", value, "p"))
            m.step(act("to-order", value, "p"))
        m.step(act("brcv", "a", "p", "q"))
        assert m.next["q"] == 2
        m.step(act("brcv", "b", "p", "q"))
        assert m.next["q"] == 3
        # destination r is independent
        m.step(act("brcv", "a", "p", "r"))
        assert m.next["r"] == 2

    def test_brcv_requires_matching_entry(self):
        m = machine()
        m.step(act("bcast", "a", "p"))
        m.step(act("to-order", "a", "p"))
        with pytest.raises(TransitionError):
            m.step(act("brcv", "wrong", "p", "q"))
        with pytest.raises(TransitionError):
            m.step(act("brcv", "a", "r", "q"))  # wrong origin

    def test_brcv_beyond_queue_disabled(self):
        m = machine()
        with pytest.raises(TransitionError):
            m.step(act("brcv", "a", "p", "q"))

    def test_enabled_actions(self):
        m = machine()
        assert list(m.enabled_actions()) == []
        m.step(act("bcast", "a", "p"))
        assert act("to-order", "a", "p") in list(m.enabled_actions())
        m.step(act("to-order", "a", "p"))
        enabled = list(m.enabled_actions())
        for dest in PROCS:
            assert act("brcv", "a", "p", dest) in enabled


class TestRandomRunsAreTraces:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_executions_yield_valid_traces(self, seed):
        m = machine()
        rng_values = iter(range(100))

        def inputs(step):
            if step % 3 == 0:
                return act("bcast", f"v{next(rng_values)}", PROCS[step % 3])
            return None

        execution = run_automaton(
            m, RandomScheduler(seed), max_steps=300, input_source=inputs
        )
        trace = execution.trace({"bcast", "brcv"})
        report = check_to_trace(trace, PROCS)
        assert report.ok, report.reason


class TestTraceChecker:
    def test_accepts_empty(self):
        assert check_to_trace([], PROCS).ok

    def test_accepts_prefix_deliveries(self):
        trace = [
            act("bcast", "a", "p"),
            act("bcast", "b", "q"),
            act("brcv", "a", "p", "q"),
            act("brcv", "a", "p", "r"),
            act("brcv", "b", "q", "q"),
        ]
        report = check_to_trace(trace, PROCS)
        assert report.ok
        assert report.common_order == [("a", "p"), ("b", "q")]

    def test_rejects_inconsistent_orders(self):
        trace = [
            act("bcast", "a", "p"),
            act("bcast", "b", "q"),
            act("brcv", "a", "p", "q"),
            act("brcv", "b", "q", "q"),
            act("brcv", "b", "q", "r"),
            act("brcv", "a", "p", "r"),
        ]
        report = check_to_trace(trace, PROCS)
        assert not report.ok
        assert "inconsistent" in report.reason

    def test_rejects_delivery_before_bcast(self):
        trace = [act("brcv", "a", "p", "q")]
        report = check_to_trace(trace, PROCS)
        assert not report.ok
        assert "precedes" in report.reason

    def test_rejects_sender_fifo_violation(self):
        trace = [
            act("bcast", "a", "p"),
            act("bcast", "b", "p"),
            act("brcv", "b", "p", "q"),
        ]
        report = check_to_trace(trace, PROCS)
        assert not report.ok

    def test_rejects_duplicate_delivery_of_single_bcast(self):
        trace = [
            act("bcast", "a", "p"),
            act("brcv", "a", "p", "q"),
            act("brcv", "a", "p", "q"),
        ]
        assert not check_to_trace(trace, PROCS).ok

    def test_accepts_repeated_values_bcast_twice(self):
        trace = [
            act("bcast", "a", "p"),
            act("bcast", "a", "p"),
            act("brcv", "a", "p", "q"),
            act("brcv", "a", "p", "q"),
        ]
        assert check_to_trace(trace, PROCS).ok

    def test_rejects_late_causality_violation_in_long_trace(self):
        """A long valid prefix, then q delivers a value from p that p
        has not bcast yet: the (destination, origin) counters must catch
        it at the very end with the same reason as a short trace."""
        trace = []
        for i in range(3000):
            origin = PROCS[i % 3]
            trace.append(act("bcast", f"v{i}", origin))
            for dst in PROCS:
                trace.append(act("brcv", f"v{i}", origin, dst))
        trace.append(act("brcv", "early", "p", "q"))
        report = check_to_trace(trace, PROCS)
        assert not report.ok
        assert report.reason == "delivery of 'early' at 'q' precedes its bcast at 'p'"
        # Without the late delivery the same trace is accepted.
        assert check_to_trace(trace[:-1], PROCS).ok

    def test_rejects_unknown_action(self):
        assert not check_to_trace([act("mystery")], PROCS).ok

    def test_ignores_failure_status_actions(self):
        trace = [act("bcast", "a", "p"), act("bad", "p"), act("good", "p")]
        assert check_to_trace(trace, PROCS).ok

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=0, max_size=30), st.integers(0, 999))
    def test_property_random_machine_walks_produce_traces(self, sends, seed):
        """Any schedule of the machine yields a valid trace."""
        m = machine()
        sends_iter = iter(sends)

        def inputs(step):
            try:
                origin_index = next(sends_iter)
            except StopIteration:
                return None
            return act("bcast", f"s{step}", PROCS[origin_index])

        execution = run_automaton(
            m, RandomScheduler(seed), max_steps=150, input_source=inputs
        )
        report = check_to_trace(execution.trace({"bcast", "brcv"}), PROCS)
        assert report.ok, report.reason
