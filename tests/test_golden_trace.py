"""Golden-trace regression tests: fixed-seed runs are bit-identical.

Hot-path optimization of the engine (batched RNG draws, lazy trace fast
paths, cheaper dispatch) is only admissible when it leaves every run's
event history untouched under a fixed seed.  These tests pin sha256
digests of full traces — every record's time (full float precision),
kind, pid, and data — for three representative run shapes:

* one **reduction** run (the paper's witness/subject extraction over a
  WF-◇WX black box);
* one **chaos scenario** (link faults, partition, transport, adversary —
  the batched link-faults/transport/network streams all in play);
* one **sweep shard** (a declarative scenario under a fanout-derived
  seed);
* one ``repro.run()`` of the benchmark's ring shape (``ring:6``, wf-ewx,
  default ◇P, one crash, full trace) — the densest ◇P/wf-ewx path;
* one sparse ``rgg:64`` run under ``pairs="neighbors"`` (per-edge
  monitoring, many components per run).

plus one direct-engine run under a step *policy* and the non-batchable
:class:`~repro.sim.network.AsynchronousDelays` model (lognormal draws
must stay scalar — batching them would silently shift the stream).

``Message.uid`` values are excluded from digests: the uid counter is
process-global, so absolute uids depend on how many messages earlier
tests created; everything else about a record is seed-determined.

The constants were recorded from the engine *before* the optimization
pass (PR "hot-path engine optimization"); any future engine change that
shifts them is a replay-compatibility break and must be deliberate.

Regenerating (only for an *intended* semantic change): run the failing
test — pytest's assertion diff shows the newly computed digest and event
count — and update the ``GOLDEN``/``GOLDEN_EVENTS`` constants in the
same commit as the change, stating in the commit message why the event
stream moved.
"""

import hashlib

import repro
from repro.runtime.builder import instantiate
from repro.runtime.seeds import fanout_seeds
from repro.runtime.spec import RunSpec


def trace_digest(trace) -> str:
    """sha256 over the full retained history, uid fields excluded."""
    h = hashlib.sha256()
    for rec in trace:
        row = (repr(rec.time), rec.kind, rec.pid,
               tuple(sorted((k, repr(v)) for k, v in rec.data.items()
                            if k != "uid")))
        h.update(repr(row).encode("utf-8"))
    return h.hexdigest()


class TestReductionRunGolden:
    GOLDEN = "63417a1c08dcbffbe073c9f52721162b8a4221b6914bca565d01ea9c0f1414cc"
    GOLDEN_EVENTS = 1246

    def test_digest_unchanged(self):
        from repro.core import build_full_extraction
        from repro.experiments.common import build_system, wf_box

        system = build_system(["p", "q"], seed=5, max_time=400.0)
        build_full_extraction(system.engine, ["p", "q"], wf_box(system))
        system.engine.run()
        assert system.engine.events_processed == self.GOLDEN_EVENTS
        assert trace_digest(system.engine.trace) == self.GOLDEN


class TestChaosScenarioGolden:
    GOLDEN = "a8e8324cdea09e70259a8852089271011bc9f1e230222cb54e1619c338c96e91"
    GOLDEN_EVENTS = 5444

    def test_digest_unchanged(self):
        from repro.chaos import ChaosConfig, build_run

        spec = build_run(2885616951, ChaosConfig(max_time=400.0))
        built = instantiate(spec)
        built.engine.run()
        assert built.engine.events_processed == self.GOLDEN_EVENTS
        assert trace_digest(built.engine.trace) == self.GOLDEN


class TestSweepShardGolden:
    GOLDEN = "d3910b4090ca0996d2a6613a95da95e51c44adf554281797aff1e1969cf6a649"
    GOLDEN_EVENTS = 2406

    def test_digest_unchanged(self):
        shard_seed = fanout_seeds(0, 3)[2]
        spec = RunSpec(name="golden-sweep", graph="ring:4", seed=shard_seed,
                       max_time=400.0, crashes={"p1": 180.0})
        built = instantiate(spec)
        built.engine.run()
        assert built.engine.events_processed == self.GOLDEN_EVENTS
        assert trace_digest(built.engine.trace) == self.GOLDEN


class TestPolicyAndAsyncDelaysGolden:
    """Non-uniform draw paths stay scalar: BurstySteps policy over
    AsynchronousDelays (lognormal body — not batchable)."""

    GOLDEN = "5573c4407e8c7571898a0b69dd9c8d696113df71a6617a97d11c78406c2efd87"
    GOLDEN_EVENTS = 1028

    def test_digest_unchanged(self):
        from repro.sim import Engine, SimConfig
        from repro.sim.component import Component, action, receive
        from repro.sim.network import AsynchronousDelays
        from repro.sim.scheduler import BurstySteps

        class Chatter(Component):
            def __init__(self, peer):
                super().__init__("chat")
                self.peer = peer

            @action(guard=lambda self: True)
            def talk(self):
                self.send(self.peer, "chat", "gossip")

            @receive("gossip")
            def on_gossip(self, msg):
                pass

        eng = Engine(SimConfig(seed=9, max_time=1e9, record_messages=True,
                               step_policy=BurstySteps()),
                     delay_model=AsynchronousDelays())
        pids = ["a", "b", "c"]
        for pid in pids:
            eng.add_process(pid)
        for i, pid in enumerate(pids):
            eng.processes[pid].add_component(
                Chatter(pids[(i + 1) % len(pids)]))
        eng.run(until=120.0)
        assert eng.events_processed == self.GOLDEN_EVENTS
        assert trace_digest(eng.trace) == self.GOLDEN


class TestRingRunGolden:
    """``repro.run()`` in the shape of the benchmark's ``run_ring`` pool."""

    GOLDEN = "6fc6813adc32356a1d3ca4acb0005e0bb0cf24d485fb1de4bddd4800e8f54423"
    GOLDEN_EVENTS = 10008
    GOLDEN_SENT = 3467

    def test_digest_unchanged(self):
        spec = RunSpec(name="golden-ring", graph="ring:6", seed=6101,
                       crashes={"p2": 240.0}, max_time=1000.0, trace="full")
        result = repro.run(spec)
        assert result.metrics.events_processed == self.GOLDEN_EVENTS
        assert result.metrics.messages_sent == self.GOLDEN_SENT
        assert trace_digest(result.trace) == self.GOLDEN


class TestSparseNeighborsRunGolden:
    """A sparse random geometric graph under conflict-graph-local
    monitoring (``pairs="neighbors"``)."""

    GOLDEN = "9c7174712ab4330e53b9d9b6f76056531618a0ba73c14d3721b076bcc8283267"
    GOLDEN_EVENTS = 6805
    GOLDEN_SENT = 2875

    def test_digest_unchanged(self):
        spec = RunSpec(name="golden-rgg", graph="rgg:64:0.2:3", seed=6401,
                       pairs="neighbors", allow_disconnected=True,
                       max_time=50.0, gst=0.0, grace=50.0,
                       detector_params={"initial_timeout": 30})
        result = repro.run(spec)
        assert result.metrics.events_processed == self.GOLDEN_EVENTS
        assert result.metrics.messages_sent == self.GOLDEN_SENT
        assert trace_digest(result.trace) == self.GOLDEN
