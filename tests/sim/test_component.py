"""Unit tests for guarded-action components."""

import pytest

from repro.errors import ConfigurationError, CrashedProcessError, SimulationError
from repro.sim.component import Component, FunctionalComponent, action, receive
from repro.sim.process import Process
from repro.types import Message


class Counter(Component):
    def __init__(self, name="counter", limit=3):
        super().__init__(name)
        self.count = 0
        self.limit = limit
        self.received = []

    @action(guard=lambda self: self.count < self.limit)
    def bump(self):
        self.count += 1

    @receive("poke")
    def on_poke(self, msg):
        self.received.append(msg.payload.get("n"))


def test_component_requires_name():
    with pytest.raises(ConfigurationError):
        Counter(name="")


def test_bound_actions_collected_in_order():
    names = [a.name for a in Counter().bound_actions()]
    assert names == ["bump", "on_poke"]


def test_action_kinds():
    actions = {a.name: a for a in Counter().bound_actions()}
    assert actions["bump"].kind == "internal"
    assert actions["on_poke"].kind == "receive"
    assert actions["on_poke"].message_kind == "poke"


def test_qualified_name():
    acts = Counter("c1").bound_actions()
    assert acts[0].qualified_name() == "c1.bump"


def test_detached_component_cannot_send():
    c = Counter()
    with pytest.raises(SimulationError):
        c.send("q", "t", "k")


def test_unbound_process_component_cannot_send_or_record():
    c = Counter()
    Process("p").add_component(c)  # attached, but no engine
    with pytest.raises(SimulationError):
        c.send("q", "t", "k")
    with pytest.raises(SimulationError):
        c.record("note")


def test_crashed_process_component_cannot_send(engine):
    engine.add_process("p")
    c = engine.processes["p"].add_component(Counter())
    engine.processes["p"].crash(at=0.0)
    with pytest.raises(CrashedProcessError):
        c.send("q", "t", "k")
    assert engine.network.sent == 0


def test_detached_component_has_no_pid():
    with pytest.raises(SimulationError):
        _ = Counter().pid


def test_subclass_inherits_base_actions():
    class Extended(Counter):
        @action(guard=lambda self: True)
        def extra(self):
            pass

    names = {a.name for a in Extended().bound_actions()}
    assert {"bump", "on_poke", "extra"} <= names


def test_functional_component_actions():
    log = []
    comp = FunctionalComponent(
        "f",
        internal=[("go", lambda c: True, lambda: log.append("go"))],
        receives=[("msg", "ping", lambda m: log.append("ping"))],
    )
    acts = comp.bound_actions()
    assert [a.kind for a in acts] == ["internal", "receive"]


def test_other_component_lookup():
    proc = Process("p")
    a = Counter("a")
    b = Counter("b")
    proc.add_component(a)
    proc.add_component(b)
    assert a.other_component("b") is b


def test_other_component_missing_raises():
    proc = Process("p")
    a = proc.add_component(Counter("a"))
    with pytest.raises(ConfigurationError):
        a.other_component("nope")


def test_receive_guard_defers_message(engine):
    class Gated(Component):
        def __init__(self):
            super().__init__("gated")
            self.open = False
            self.got = 0

        @receive("knock", guard=lambda self, msg: self.open)
        def on_knock(self, msg):
            self.got += 1

    proc = engine.add_process("p")
    g = proc.add_component(Gated())
    proc.deliver(Message("q", "p", "gated", "knock"))
    proc.step()
    assert g.got == 0 and proc.inbox_size() == 1  # deferred, not dropped
    g.open = True
    proc.step()
    assert g.got == 1 and proc.inbox_size() == 0


def _uncached_specs(component):
    """The MRO scan bound_actions ran per instance before the per-class
    cache: (qname, kind, guard, effect function), in collection order."""
    out, seen = [], set()
    for klass in type(component).__mro__:
        for attr, fn in vars(klass).items():
            spec = getattr(fn, "_action_spec", None)
            if spec is None or attr in seen:
                continue
            seen.add(attr)
            guard = spec[1] if spec[0] == "internal" else spec[2]
            out.append((f"{component.name}.{spec[-1]}", spec[0], guard,
                        getattr(component, attr).__func__))
    return out


def _cached_specs(component):
    return [(a.qname, a.kind, a.guard, a.effect.__func__)
            for a in component.bound_actions()]


class TestPerClassActionCache:
    """bound_actions scans each class once; the result must equal the
    per-instance MRO scan, including shadowing and declaration order."""

    @staticmethod
    def _diners():
        from repro.dining.deferred import DeferredDiner, SessionLedger
        from repro.dining.mutants import _SnubbedDiner
        from repro.dining.wf_ewx import EWXDiner

        class PlainOverride(EWXDiner):
            # Shadows the action name with an undecorated method: the base
            # spec still applies, with this method as the effect.
            def yield_dirty_forks(self):
                pass

        def never(q):
            return False

        return [
            EWXDiner("D:diner", "D", ("p1", "p2"), never),
            DeferredDiner("D:diner", "D", ("p1", "p2"), never,
                          ledger=SessionLedger(), mistake_horizon=10.0),
            _SnubbedDiner("D:diner", "D", ("p1", "p2"), never),
            PlainOverride("D:diner", "D", ("p1", "p2"), never),
        ]

    def test_matches_uncached_scan(self):
        for diner in self._diners():
            for _ in range(2):  # first build fills the cache, second reads it
                assert _cached_specs(diner) == _uncached_specs(diner), \
                    type(diner).__name__

    def test_override_and_order(self):
        base, deferred, snubbed, plain = self._diners()
        qnames = [a.qname for a in base.bound_actions()]
        assert qnames == ["D:diner.request_missing_forks",
                          "D:diner.yield_dirty_forks",
                          "D:diner.on_request", "D:diner.on_fork",
                          "D:diner.enter_critical_section",
                          "D:diner.finish_exiting"]
        # The adversarial rule comes first: most-derived class first.
        assert [a.qname for a in deferred.bound_actions()] == (
            ["D:diner.enter_over_stale_sessions"] + qnames)
        # An overriding action keeps its slot at the front, once.
        assert [a.qname for a in snubbed.bound_actions()] == (
            ["D:diner.enter_critical_section"]
            + [q for q in qnames if q != "D:diner.enter_critical_section"])
        guard = {a.name: a.guard for a in snubbed.bound_actions()}
        assert guard["enter_critical_section"](snubbed) is False
        effect = {a.name: a.effect for a in plain.bound_actions()}
        assert effect["yield_dirty_forks"].__func__ is \
            type(plain).yield_dirty_forks

    def test_cache_is_per_class(self):
        base, deferred, _, _ = self._diners()
        base.bound_actions()
        deferred.bound_actions()
        cache = "_action_spec_cache"
        assert cache in type(base).__dict__
        assert cache in type(deferred).__dict__
        assert (type(base).__dict__[cache]
                is not type(deferred).__dict__[cache])
