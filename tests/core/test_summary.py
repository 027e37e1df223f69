"""Tests for the Fig. 8 summary type and operations."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.types import BOTTOM, Label
from repro.core.vstoto.summary import (
    Summary,
    chosenrep,
    content_as_function,
    fullorder,
    fullorder_with_labels,
    knowncontent,
    maxnextconfirm,
    maxprimary,
    reps,
    shortorder,
)

L1 = Label(0, 1, "p")
L2 = Label(0, 1, "q")
L3 = Label(0, 2, "p")
L4 = Label(1, 1, "r")


def summary(con=(), ord=(), next=1, high=BOTTOM):
    return Summary(con=frozenset(con), ord=tuple(ord), next=next, high=high)


class TestSummary:
    def test_confirm_is_next_prefix(self):
        x = summary(ord=(L1, L2, L3), next=3)
        assert x.confirm == (L1, L2)

    def test_confirm_clamped_to_order_length(self):
        x = summary(ord=(L1,), next=5)
        assert x.confirm == (L1,)

    def test_confirm_empty_when_next_is_one(self):
        assert summary(ord=(L1, L2), next=1).confirm == ()

    def test_next_must_be_positive(self):
        with pytest.raises(ValueError):
            summary(next=0)

    def test_hashable_and_frozen(self):
        x = summary(con={(L1, "a")}, ord=(L1,), next=2, high=0)
        assert hash(x) == hash(
            summary(con={(L1, "a")}, ord=(L1,), next=2, high=0)
        )


class TestOperations:
    def test_knowncontent_unions(self):
        y = {
            "p": summary(con={(L1, "a")}),
            "q": summary(con={(L2, "b"), (L1, "a")}),
        }
        assert knowncontent(y) == {(L1, "a"), (L2, "b")}

    def test_maxprimary_over_bottom(self):
        y = {"p": summary(high=BOTTOM), "q": summary(high=2)}
        assert maxprimary(y) == 2
        assert maxprimary({"p": summary(high=BOTTOM)}) is BOTTOM
        assert maxprimary({}) is BOTTOM

    def test_reps_are_argmax(self):
        y = {
            "p": summary(high=2),
            "q": summary(high=2),
            "r": summary(high=1),
        }
        assert reps(y) == {"p", "q"}

    def test_reps_all_bottom(self):
        y = {"p": summary(), "q": summary()}
        assert reps(y) == {"p", "q"}

    def test_chosenrep_deterministic_and_in_reps(self):
        y = {
            "p": summary(high=2, ord=(L1,)),
            "q": summary(high=2, ord=(L2,)),
        }
        rep1 = chosenrep(y)
        rep2 = chosenrep(dict(reversed(list(y.items()))))
        assert rep1 == rep2
        assert rep1 in reps(y)

    def test_chosenrep_empty_raises(self):
        with pytest.raises(ValueError):
            chosenrep({})

    def test_shortorder_is_rep_order(self):
        y = {
            "p": summary(high=1, ord=(L1, L3)),
            "q": summary(high=0, ord=(L2,)),
        }
        assert shortorder(y) == (L1, L3)

    def test_fullorder_appends_remaining_in_label_order(self):
        y = {
            "p": summary(high=1, ord=(L3,), con={(L3, "c"), (L1, "a")}),
            "q": summary(high=0, con={(L2, "b"), (L4, "d")}),
        }
        # shortorder = (L3,); remaining = {L1, L2, L4} sorted
        assert fullorder(y) == (L3, L1, L2, L4)

    def test_fullorder_never_duplicates(self):
        y = {
            "p": summary(high=1, ord=(L1,), con={(L1, "a"), (L2, "b")}),
        }
        assert fullorder(y) == (L1, L2)

    def test_fullorder_with_labels_returns_the_order_and_its_labels(self):
        y = {
            "p": summary(high=1, ord=(L3, L4), con={(L3, "c"), (L1, "a")}),
            "q": summary(high=0, con={(L2, "b"), (L1, "a")}),
        }
        order, labels = fullorder_with_labels(y)
        assert order == fullorder(y) == (L3, L4, L1, L2)
        assert labels == frozenset(order)

    def test_maxnextconfirm(self):
        y = {"p": summary(next=4), "q": summary(next=2)}
        assert maxnextconfirm(y) == 4
        with pytest.raises(ValueError):
            maxnextconfirm({})


class TestContentAsFunction:
    def test_builds_mapping(self):
        mapping = content_as_function(frozenset({(L1, "a"), (L2, "b")}))
        assert mapping == {L1: "a", L2: "b"}

    def test_conflict_raises(self):
        with pytest.raises(ValueError, match="not a function"):
            content_as_function(frozenset({(L1, "a"), (L1, "b")}))

    @given(
        st.dictionaries(
            st.tuples(
                st.integers(0, 2), st.integers(1, 3), st.sampled_from("pq")
            ),
            st.text(max_size=3),
            max_size=8,
        )
    )
    def test_roundtrip_for_genuine_functions(self, raw):
        pairs = frozenset(
            (Label(*key), value) for key, value in raw.items()
        )
        mapping = content_as_function(pairs)
        assert len(mapping) == len(raw)
