"""Unit tests for the oracle property checkers, on synthetic traces."""

from hypothesis import given
from hypothesis import strategies as st

from repro.oracles.properties import (
    check_eventual_strong_accuracy,
    check_perpetual_strong_accuracy,
    check_perpetual_weak_accuracy,
    check_strong_completeness,
    check_trusting_accuracy,
    false_positive_count,
    suspicion_series,
)
from repro.sim.faults import CrashSchedule
from repro.sim.trace import Trace


def synth_trace(rows):
    """rows: (time, owner, target, suspected) — builds a suspect-only trace."""
    t = Trace()
    clock = {"now": 0.0}
    t.bind_clock(lambda: clock["now"])
    for time, owner, target, suspected in rows:
        clock["now"] = time
        t.record("suspect", pid=owner, target=target, suspected=suspected,
                 detector="fd")
    return t


def test_suspicion_series_extraction():
    t = synth_trace([(1.0, "p", "q", True), (2.0, "p", "r", False),
                     (3.0, "p", "q", False)])
    assert suspicion_series(t, "p", "q") == [(1.0, True), (3.0, False)]


def test_suspicion_series_filters_detector():
    t = synth_trace([(1.0, "p", "q", True)])
    assert suspicion_series(t, "p", "q", detector="other") == []


class TestCompleteness:
    def test_ok_when_permanently_suspected(self):
        t = synth_trace([(0.0, "p", "q", False), (12.0, "p", "q", True)])
        rep = check_strong_completeness(t, ["p"], ["q"],
                                        CrashSchedule.single("q", 10.0))
        assert rep.ok and rep.convergence == 12.0

    def test_fails_when_suspicion_revoked(self):
        t = synth_trace([(12.0, "p", "q", True), (20.0, "p", "q", False)])
        rep = check_strong_completeness(t, ["p"], ["q"],
                                        CrashSchedule.single("q", 10.0))
        assert not rep.ok and rep.convergence is None

    def test_correct_targets_not_constrained(self):
        t = synth_trace([(1.0, "p", "q", False)])
        rep = check_strong_completeness(t, ["p"], ["q"], CrashSchedule.none())
        assert rep.ok and rep.pairs == []

    def test_faulty_owners_excluded(self):
        t = synth_trace([])
        sched = CrashSchedule({"p": 5.0, "q": 10.0})
        rep = check_strong_completeness(t, ["p"], ["q"], sched)
        assert rep.pairs == []

    def test_premature_suspicion_noted_but_legal(self):
        t = synth_trace([(2.0, "p", "q", True)])
        rep = check_strong_completeness(t, ["p"], ["q"],
                                        CrashSchedule.single("q", 10.0))
        assert rep.ok
        assert "before crash" in rep.pairs[0].detail


class TestAccuracy:
    def test_ok_when_eventually_trusted(self):
        t = synth_trace([(1.0, "p", "q", True), (50.0, "p", "q", False)])
        rep = check_eventual_strong_accuracy(t, ["p"], ["q"],
                                             CrashSchedule.none())
        assert rep.ok and rep.convergence == 50.0

    def test_fails_when_suspected_at_end(self):
        t = synth_trace([(1.0, "p", "q", True)])
        rep = check_eventual_strong_accuracy(t, ["p"], ["q"],
                                             CrashSchedule.none())
        assert not rep.ok

    def test_mistake_count_matches_false_positive_count(self):
        t = synth_trace([(1.0, "p", "q", True), (3.0, "p", "q", False),
                         (4.0, "p", "r", True), (5.0, "p", "q", True),
                         (9.0, "p", "q", False)])
        rep = check_eventual_strong_accuracy(t, ["p"], ["q"],
                                             CrashSchedule.none())
        n = false_positive_count(t, "p", "q", CrashSchedule.none())
        assert n == 2 and rep.pairs[0].detail == f"{n} mistakes"

    def test_faulty_targets_not_constrained(self):
        t = synth_trace([(1.0, "p", "q", True)])
        rep = check_eventual_strong_accuracy(t, ["p"], ["q"],
                                             CrashSchedule.single("q", 5.0))
        assert rep.ok and rep.pairs == []

    def test_perpetual_accuracy_rejects_any_false_positive(self):
        t = synth_trace([(1.0, "p", "q", True), (2.0, "p", "q", False)])
        rep = check_perpetual_strong_accuracy(t, ["p"], ["q"],
                                              CrashSchedule.none())
        assert not rep.ok

    def test_perpetual_accuracy_allows_post_crash_suspicion(self):
        t = synth_trace([(12.0, "p", "q", True)])
        rep = check_perpetual_strong_accuracy(t, ["p"], ["q"],
                                              CrashSchedule.single("q", 10.0))
        assert rep.ok


class TestTrustingAccuracy:
    def test_ok_trust_then_revoke_after_crash(self):
        t = synth_trace([(0.0, "p", "q", True), (5.0, "p", "q", False),
                         (20.0, "p", "q", True)])
        rep = check_trusting_accuracy(t, ["p"], ["q"],
                                      CrashSchedule.single("q", 15.0))
        assert rep.ok

    def test_fails_on_live_revocation(self):
        t = synth_trace([(0.0, "p", "q", True), (5.0, "p", "q", False),
                         (10.0, "p", "q", True), (12.0, "p", "q", False)])
        rep = check_trusting_accuracy(t, ["p"], ["q"], CrashSchedule.none())
        assert not rep.ok
        assert "revoked" in rep.failures()[0].detail

    def test_fails_when_correct_never_trusted(self):
        t = synth_trace([(0.0, "p", "q", True)])
        rep = check_trusting_accuracy(t, ["p"], ["q"], CrashSchedule.none())
        assert not rep.ok

    def test_ok_when_early_crasher_never_trusted(self):
        t = synth_trace([(0.0, "p", "q", True)])
        rep = check_trusting_accuracy(t, ["p"], ["q"],
                                      CrashSchedule.single("q", 3.0))
        assert rep.ok


class TestWeakAccuracy:
    def test_finds_never_suspected_witness(self):
        t = synth_trace([(1.0, "p", "q", True)])
        ok, witness = check_perpetual_weak_accuracy(
            t, ["p", "r"], ["q", "r"], CrashSchedule.none())
        assert ok and witness == "r"

    def test_fails_when_everyone_suspected(self):
        t = synth_trace([(1.0, "p", "q", True), (1.0, "q", "p", True)])
        ok, witness = check_perpetual_weak_accuracy(
            t, ["p", "q"], ["p", "q"], CrashSchedule.none())
        assert not ok and witness is None


class TestFalsePositives:
    def test_counts_onsets_while_live(self):
        t = synth_trace([(1.0, "p", "q", False), (2.0, "p", "q", True),
                         (3.0, "p", "q", False), (4.0, "p", "q", True)])
        assert false_positive_count(t, "p", "q", CrashSchedule.none()) == 2

    def test_post_crash_suspicion_not_counted(self):
        t = synth_trace([(1.0, "p", "q", False), (20.0, "p", "q", True)])
        sched = CrashSchedule.single("q", 10.0)
        assert false_positive_count(t, "p", "q", sched) == 0

    def test_initial_suspicion_of_live_counted(self):
        t = synth_trace([(0.0, "p", "q", True)])
        assert false_positive_count(t, "p", "q", CrashSchedule.none()) == 1


@given(st.lists(st.tuples(st.floats(0, 100), st.booleans()),
                min_size=1, max_size=20))
def test_accuracy_and_final_value_agree(raw):
    rows = [(t, "p", "q", s) for t, s in sorted(raw, key=lambda x: x[0])]
    trace = synth_trace(rows)
    rep = check_eventual_strong_accuracy(trace, ["p"], ["q"],
                                         CrashSchedule.none())
    final_suspected = rows[-1][3]
    assert rep.ok == (not final_suspected)


@given(st.lists(st.tuples(st.floats(0, 100), st.booleans()), max_size=20))
def test_false_positive_count_nonnegative_and_bounded(raw):
    rows = [(t, "p", "q", s) for t, s in sorted(raw, key=lambda x: x[0])]
    trace = synth_trace(rows)
    n = false_positive_count(trace, "p", "q", CrashSchedule.none())
    assert 0 <= n <= len(rows)
