"""Unit tests for shared value types."""

import dataclasses
import pickle

import pytest

from repro.types import DINER_CYCLE, DinerState, Message


class TestMessage:
    def test_uids_are_unique(self):
        a = Message("p", "q", "t", "k")
        b = Message("p", "q", "t", "k")
        assert a.uid != b.uid

    def test_matches_tag_only(self):
        m = Message("p", "q", "dining", "fork")
        assert m.matches("dining")
        assert not m.matches("other")

    def test_matches_tag_and_kind(self):
        m = Message("p", "q", "dining", "fork")
        assert m.matches("dining", "fork")
        assert not m.matches("dining", "req")

    def test_payload_defaults_empty(self):
        assert dict(Message("p", "q", "t", "k").payload) == {}

    def test_payload_carried(self):
        m = Message("p", "q", "t", "k", payload={"round": 3})
        assert m.payload["round"] == 3

    def test_frozen(self):
        m = Message("p", "q", "t", "k")
        with pytest.raises(AttributeError):
            m.sender = "x"  # type: ignore[misc]

    def test_assignment_raises_frozen_instance_error(self):
        m = Message("p", "q", "t", "k")
        for name in ("sender", "receiver", "tag", "kind", "payload", "uid"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, None)

    def test_equality_and_hash(self):
        a = Message("p", "q", "t", "k", payload={"n": 1}, uid=7)
        assert a == Message("p", "q", "t", "k", payload={"n": 1}, uid=7)
        assert a != Message("p", "q", "t", "k", payload={"n": 2}, uid=7)
        assert a != Message("p", "q", "t", "k", payload={"n": 1}, uid=8)
        # Hash covers every field, so it needs a hashable payload ...
        h = Message("p", "q", "t", "k", payload=(("n", 1),), uid=7)
        assert hash(h) == hash(
            Message("p", "q", "t", "k", payload=(("n", 1),), uid=7))
        assert hash(h) == hash(("p", "q", "t", "k", (("n", 1),), 7))
        # ... and a dict payload (the usual case) is unhashable.
        with pytest.raises(TypeError):
            hash(a)

    def test_pickle_round_trip(self):
        m = Message("p", "q", "t", "k", payload={"last_meal": (1, 2.5)})
        back = pickle.loads(pickle.dumps(m))
        assert back == m
        assert back.uid == m.uid
        assert type(back) is Message

    def test_dataclasses_replace(self):
        m = Message("p", "q", "t", "k", payload={"n": 1})
        r = dataclasses.replace(m, receiver="x")
        assert (r.sender, r.receiver, r.tag, r.kind) == ("p", "x", "t", "k")
        assert r.payload == m.payload and r.uid == m.uid
        assert dataclasses.replace(m, uid=99).uid == 99

    def test_positional_and_keyword_construction_agree(self):
        payload = {"n": 1}
        pos = Message("p", "q", "t", "k", payload, 5)
        kw = Message(sender="p", receiver="q", tag="t", kind="k",
                     payload=payload, uid=5)
        assert pos == kw
        assert pos.payload is payload and kw.payload is payload
        assert [f.name for f in dataclasses.fields(Message)] == [
            "sender", "receiver", "tag", "kind", "payload", "uid"]

    def test_default_payload_is_fresh_dict(self):
        a, b = Message("p", "q", "t", "k"), Message("p", "q", "t", "k")
        assert a.payload == {} and a.payload is not b.payload

    def test_uids_strictly_increasing(self):
        uids = [Message("p", "q", "t", "k").uid for _ in range(50)]
        uids.append(Message(sender="p", receiver="q", tag="t", kind="k",
                            payload={}).uid)
        assert all(a < b for a, b in zip(uids, uids[1:]))

    def test_explicit_uid_does_not_draw(self):
        first = Message("p", "q", "t", "k").uid
        Message("p", "q", "t", "k", uid=-1)
        assert Message("p", "q", "t", "k").uid == first + 1


class TestDinerState:
    def test_cycle_has_four_phases(self):
        assert len(DINER_CYCLE) == 4

    def test_cycle_order(self):
        assert DINER_CYCLE == (
            DinerState.THINKING, DinerState.HUNGRY,
            DinerState.EATING, DinerState.EXITING,
        )

    def test_str_is_value(self):
        assert str(DinerState.EATING) == "eating"
