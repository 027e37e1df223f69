"""Tests for core value types, including hypothesis properties for the
lexicographic label order."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

from hypothesis import given
from hypothesis import strategies as st

from repro.core.types import (
    BOTTOM,
    Bottom,
    Label,
    View,
    initial_view,
    view_id_less,
    view_id_max,
)


class TestBottom:
    def test_singleton(self):
        assert Bottom() is BOTTOM
        assert Bottom() is Bottom()

    def test_deepcopy_preserves_identity(self):
        assert copy.deepcopy(BOTTOM) is BOTTOM
        assert copy.copy(BOTTOM) is BOTTOM

    def test_repr(self):
        assert repr(BOTTOM) == "⊥"


class TestViewIdOrder:
    def test_bottom_below_everything(self):
        assert view_id_less(BOTTOM, 0)
        assert view_id_less(BOTTOM, -100)
        assert not view_id_less(0, BOTTOM)
        assert not view_id_less(BOTTOM, BOTTOM)

    def test_plain_comparison(self):
        assert view_id_less(1, 2)
        assert not view_id_less(2, 1)
        assert not view_id_less(2, 2)

    def test_tuple_ids(self):
        assert view_id_less((1, "a"), (1, "b"))
        assert view_id_less((1, "z"), (2, "a"))

    def test_view_id_max(self):
        assert view_id_max([]) is BOTTOM
        assert view_id_max([BOTTOM, 3, 1]) == 3
        assert view_id_max([BOTTOM, BOTTOM]) is BOTTOM


class TestView:
    def test_selectors(self):
        view = View(1, frozenset({"a", "b"}))
        assert view.id == 1
        assert view.set == {"a", "b"}

    def test_membership_operator(self):
        view = View(1, frozenset({"a"}))
        assert "a" in view
        assert "b" not in view

    def test_set_coerced_to_frozenset(self):
        view = View(1, {"a", "b"})
        assert isinstance(view.set, frozenset)

    def test_equality_and_hash(self):
        assert View(1, {"a"}) == View(1, {"a"})
        assert len({View(1, {"a"}), View(1, {"a"})}) == 1

    def test_initial_view_helper(self):
        v0 = initial_view(["p1", "p2"], g0=0)
        assert v0.id == 0
        assert v0.set == {"p1", "p2"}


class TestLabelOrder:
    def test_lexicographic(self):
        assert Label(1, 1, "a") < Label(1, 1, "b")
        assert Label(1, 1, "z") < Label(1, 2, "a")
        assert Label(1, 9, "z") < Label(2, 1, "a")

    def test_selectors(self):
        label = Label(3, 7, "p")
        assert (label.id, label.seqno, label.origin) == (3, 7, "p")

    def test_sorting(self):
        labels = [Label(2, 1, "a"), Label(1, 2, "a"), Label(1, 1, "b")]
        assert sorted(labels) == [
            Label(1, 1, "b"),
            Label(1, 2, "a"),
            Label(2, 1, "a"),
        ]

    @given(
        st.tuples(
            st.integers(0, 5), st.integers(1, 5), st.sampled_from("abc")
        ),
        st.tuples(
            st.integers(0, 5), st.integers(1, 5), st.sampled_from("abc")
        ),
    )
    def test_order_matches_tuple_order(self, t1, t2):
        l1, l2 = Label(*t1), Label(*t2)
        assert (l1 < l2) == (t1 < t2)
        assert (l1 == l2) == (t1 == t2)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(1, 3), st.sampled_from("ab")
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_total_order_is_consistent(self, tuples):
        labels = [Label(*t) for t in tuples]
        ordered = sorted(labels)
        for earlier, later in zip(ordered, ordered[1:]):
            assert earlier < later or earlier == later


class TestLabelHash:
    def test_hash_is_the_selector_tuple_hash(self):
        label = Label((2, "p"), 7, "q")
        assert hash(label) == hash(((2, "p"), 7, "q"))
        assert hash(label) == hash(Label((2, "p"), 7, "q"))

    def test_cached_hash_is_not_a_field(self):
        label = Label(3, 7, "p")
        assert [f.name for f in dataclasses.fields(label)] == ["id", "seqno", "origin"]
        assert repr(label) == "Label(id=3, seqno=7, origin='p')"
        assert dataclasses.replace(label, seqno=8) == Label(3, 8, "p")

    def test_copies_rebuild_from_the_selectors(self):
        label = Label((1, "p"), 2, "q")
        assert label.__reduce__() == (Label, ((1, "p"), 2, "q"))
        for clone in (pickle.loads(pickle.dumps(label)), copy.deepcopy(label)):
            assert clone == label and hash(clone) == hash(label)

    def test_hash_is_recomputed_in_another_process(self):
        """``str`` hashes differ between processes: a label unpickled
        elsewhere must hash as that process hashes its selectors."""
        blob = pickle.dumps(Label((1, "p1"), 2, "p2"))
        code = (
            "import pickle, sys\n"
            "label = pickle.loads(sys.stdin.buffer.read())\n"
            "assert hash(label) == hash(((1, 'p1'), 2, 'p2'))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        result = subprocess.run(
            [sys.executable, "-c", code], input=blob, env=env, capture_output=True, timeout=60
        )
        assert result.returncode == 0, result.stderr.decode()
