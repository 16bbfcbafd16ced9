"""Differential tests: every verdict equals the one a linear trace scan gives.

``Trace.records`` (which ``Trace.series`` calls) answers from a grouped row
view, and the checkers read each series once.  Here ``records`` is replaced
by the historical linear filter (one scan of every retained row per query),
and every verdict a run produces — exclusion, wait-freedom, fairness,
detector properties, violation justification, and the service payload
built from them — must come out identical.  The specs cover the golden
runs, chaos seeds, every registered detector (``flawed_cm`` included), a
conflict-graph-local run, and the three dining mutants.
"""

import contextlib
import pickle

import pytest

from repro.chaos import ChaosConfig, build_run, check_invariants
from repro.dining.client import EagerClient
from repro.dining.fairness import measure_fairness
from repro.dining.mutants import LateDining, RecklessDining, SnobbishDining
from repro.dining.spec import (
    check_exclusion,
    check_wait_freedom,
    overtake_samples,
    state_intervals,
    state_series,
)
from repro.graphs import clique, ring
from repro.oracles.properties import (
    check_detector_properties,
    check_eventual_weak_accuracy,
    check_perpetual_weak_accuracy,
    suspicion_series,
)
from repro.oracles.registry import REGISTRY
from repro.runtime import RunSpec, execute, instantiate
from repro.runtime.seeds import fanout_seeds
from repro.service.encoding import payload_bytes, result_payload
from repro.sim import Engine, PartialSynchronyDelays, SimConfig
from repro.sim.faults import CrashSchedule
from repro.sim.temporal import convergence_time
from repro.sim.trace import Trace
from repro.types import DinerState

from tests.sim.test_trace_view import reference_records


@contextlib.contextmanager
def linear_trace():
    """Inside this block, trace queries are the historical linear scans."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Trace, "records", reference_records)
        yield


GOLDEN_SPECS = {
    "golden-chaos": build_run(2885616951, ChaosConfig(max_time=400.0)),
    "golden-sweep": RunSpec(name="golden-sweep", graph="ring:4",
                            seed=fanout_seeds(0, 3)[2], max_time=400.0,
                            crashes={"p1": 180.0}),
}
CHAOS_SPECS = {
    f"chaos-{seed}": build_run(seed, ChaosConfig(max_time=400.0))
    for seed in fanout_seeds(21, 3)
}
DETECTOR_SPECS = {
    f"detector-{name}": RunSpec(graph="ring:4", seed=3, max_time=400.0,
                                crashes={"p1": 150.0}, detector=name)
    for name in sorted(REGISTRY)
}
LOCAL_SPECS = {
    "rgg-neighbors": RunSpec(graph="rgg:16:0.45:3", seed=4, max_time=300.0,
                             pairs="neighbors", crashes={"p3": 120.0}),
}
SPECS = {**GOLDEN_SPECS, **CHAOS_SPECS, **DETECTOR_SPECS, **LOCAL_SPECS}


def verdicts(result):
    """Everything execute judged, and the payload the service serves."""
    return {
        "exclusion": result.exclusion,
        "wait_freedom": result.wait_freedom,
        "fairness": result.fairness,
        "accuracy": result.oracle_accuracy_ok,
        "completeness": result.oracle_completeness_ok,
        "justified": result.violations_justified,
        "payload": payload_bytes(result_payload(result)),
    }


@pytest.mark.parametrize("name", sorted(SPECS))
def test_run_verdicts_equal_linear_reference(name):
    spec = SPECS[name]
    indexed = execute(spec)
    with linear_trace():
        reference = execute(spec)
        want = verdicts(reference)
    assert indexed.checked
    assert verdicts(indexed) == want


@pytest.mark.parametrize("name", sorted(SPECS))
def test_detector_verdict_details_equal_linear_reference(name):
    spec = SPECS[name]
    built = instantiate(spec)
    built.engine.run()
    args = (built.engine.trace, built.system.pids, built.system.schedule,
            built.system.assumptions)
    indexed = check_detector_properties(*args, pairs=built.monitors)
    with linear_trace():
        reference = check_detector_properties(*args, pairs=built.monitors)
    assert indexed == reference


def test_chaos_invariants_equal_linear_reference():
    cfg = ChaosConfig(max_time=400.0)
    for spec in CHAOS_SPECS.values():
        indexed = check_invariants(spec.run(), cfg)
        with linear_trace():
            reference = check_invariants(spec.run(), cfg)
        assert indexed == reference


def test_flawed_cm_still_fails_accuracy_under_both():
    # The reference comparison above would pass vacuously if both sides
    # agreed on "ok"; flawed_cm must actually be convicted.
    assert not execute(DETECTOR_SPECS["detector-flawed_cm"]).oracle_accuracy_ok


# -- dining mutants -----------------------------------------------------------

MUT = "MUT"
MUTANTS = {
    "reckless": (lambda g: RecklessDining(MUT, g), clique(3), 602, 1000.0),
    "snobbish": (lambda g: SnobbishDining(MUT, g, victim="p2"), ring(4),
                 604, 1500.0),
    "late": (lambda g: LateDining(MUT, g, cutoff=200.0), clique(3), 606,
             1200.0),
}


def run_mutant(name):
    make, graph, seed, max_time = MUTANTS[name]
    eng = Engine(SimConfig(seed=seed, max_time=max_time),
                 delay_model=PartialSynchronyDelays(gst=100.0, delta=1.5))
    for pid in sorted(graph.nodes):
        eng.add_process(pid)
    diners = make(graph).attach(eng)
    for pid in sorted(graph.nodes):
        eng.process(pid).add_component(
            EagerClient("cl", diners[pid], eat_steps=2))
    eng.run()
    return eng, graph


def mutant_verdicts(eng, graph):
    sched = CrashSchedule.none()
    return (check_exclusion(eng.trace, graph, MUT, sched, eng.now),
            check_wait_freedom(eng.trace, graph, MUT, sched, eng.now,
                               grace=80.0),
            measure_fairness(eng.trace, graph, MUT, eng.now, sched))


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_verdicts_equal_linear_reference(name):
    eng, graph = run_mutant(name)
    indexed = mutant_verdicts(eng, graph)
    with linear_trace():
        reference = mutant_verdicts(eng, graph)
    assert indexed == reference
    exclusion, wait_freedom, _ = indexed
    # The mutants stay convicted: agreement is not agreement on "ok".
    assert exclusion.count > 0 if name == "reckless" else not wait_freedom.ok


def test_overtake_counts_equal_linear_count():
    eng, graph = run_mutant("reckless")
    samples = overtake_samples(eng.trace, graph, MUT, eng.now)
    onsets = {p: [t for t, s in state_series(eng.trace, MUT, p)
                  if s == DinerState.EATING.value] for p in graph.nodes}
    want = []
    for pid in sorted(graph.nodes):
        hungry = state_intervals(state_series(eng.trace, MUT, pid),
                                 DinerState.HUNGRY.value, eng.now)
        for start, end in hungry:
            for nbr in sorted(graph.neighbors(pid)):
                want.append((pid, nbr, start,
                             sum(1 for t in onsets[nbr] if start < t <= end)))
    assert [(s.waiter, s.eater, s.hungry_start, s.count)
            for s in samples] == want
    assert any(n > 0 for *_, n in want)


# -- S / ◇S under local pair selection ----------------------------------------


def weak_reference(trace, pids, schedule, relation, trusts):
    """S/◇S judged the ``pairs=all`` way — every correct owner of every
    correct target — with owners restricted to the monitoring relation."""
    for target in pids:
        if schedule.is_faulty(target):
            continue
        owners = [o for o in pids if o != target
                  and not schedule.is_faulty(o) and (o, target) in relation]
        if all(trusts(suspicion_series(trace, o, target)) for o in owners):
            return True, target
    return False, None


def never_suspected(series):
    return not any(s for _, s in series)


def eventually_trusted(series):
    return convergence_time(series, lambda s: not s) is not None


@pytest.mark.parametrize("detector,checker,trusts", [
    ("strong", check_perpetual_weak_accuracy, never_suspected),
    ("eventually_strong", check_eventual_weak_accuracy, eventually_trusted),
])
@pytest.mark.parametrize("seed", [4, 9])
def test_weak_accuracy_neighbors_equals_all_restricted(detector, checker,
                                                       trusts, seed):
    spec = RunSpec(graph="rgg:16:0.45:3", seed=seed, max_time=300.0,
                   pairs="neighbors", crashes={"p3": 120.0},
                   detector=detector)
    built = instantiate(spec)
    built.engine.run()
    trace, pids = built.engine.trace, built.system.pids
    schedule = built.system.schedule
    got = checker(trace, pids, pids, schedule, pairs=built.monitors)
    assert got == weak_reference(trace, pids, schedule,
                                 set(built.monitors), trusts)


def test_weak_accuracy_ignores_crashed_owners_under_pairs():
    # A crashed owner whose last word about q was "suspected" must not
    # cost q its witness status: only correct owners judge ◇S and S,
    # whether or not the monitoring relation is given explicitly.
    t = Trace()
    clock = {"now": 0.0}
    t.bind_clock(lambda: clock["now"])
    for now, owner, suspected in [(1.0, "p", True), (2.0, "r", False)]:
        clock["now"] = now
        t.record("suspect", owner, target="q", suspected=suspected)
    sched = CrashSchedule.single("p", 5.0)
    pids = ["p", "q", "r"]
    relation = [("p", "q"), ("r", "q")]
    for checker in (check_perpetual_weak_accuracy,
                    check_eventual_weak_accuracy):
        assert (checker(t, pids, ["q"], sched, pairs=relation)
                == checker(t, pids, ["q"], sched) == (True, "q"))


# -- pickling -----------------------------------------------------------------


def test_result_pickles_to_same_bytes_before_and_after_checking():
    spec = GOLDEN_SPECS["golden-sweep"]
    unchecked = execute(spec, check=False)
    before = pickle.dumps(unchecked)
    built = instantiate(spec)
    check_detector_properties(unchecked.trace, built.system.pids,
                              built.system.schedule,
                              built.system.assumptions)
    check_exclusion(unchecked.trace, built.graph, "SCENARIO",
                    built.system.schedule, unchecked.end_time)
    assert pickle.dumps(unchecked) == before


def test_checked_result_pickle_and_payload_stable_under_queries():
    result = execute(GOLDEN_SPECS["golden-sweep"])
    payload = payload_bytes(result_payload(result))
    before = pickle.dumps(result)
    result.trace.records(kind="suspect", pid="p0")
    result.trace.series("state", "state", pid="p2")
    assert pickle.dumps(result) == before
    assert payload_bytes(result_payload(result)) == payload
