"""The grouped row view behind ``Trace.records``/``Trace.series`` answers
exactly what a linear filter over the retained rows answers.

The reference below is the historical implementation of ``records()``: one
scan of every retained row per query.  Random streams interleave appends
and queries, so a query after an append (view rebuilt) and a query after a
``ring:N`` eviction are both compared against it.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import Trace

KINDS = ["state", "suspect", "crash"]
PIDS = ["p", "q", "r", None]


def reference_records(trace, kind=None, pid=None, where=None):
    """The linear filter ``records()`` used before the grouped view."""
    out = []
    for r in trace:
        if kind is not None and r.kind != kind:
            continue
        if pid is not None and r.pid != pid:
            continue
        if where is not None and not where(r):
            continue
        out.append(r)
    return out


def reference_series(trace, kind, field_name, pid=None, where=None):
    return [(r.time, r.data[field_name])
            for r in reference_records(trace, kind, pid, where)]


def odd_value(r):
    return r["v"] % 2 == 1


appends = st.tuples(st.just("append"), st.sampled_from(KINDS),
                    st.sampled_from(PIDS), st.integers(0, 9))
queries = st.tuples(st.just("query"), st.sampled_from(KINDS + [None]),
                    st.sampled_from(PIDS), st.booleans())
sinks = st.one_of(st.just("full"),
                  st.integers(1, 6).map(lambda n: f"ring:{n}"))


@settings(max_examples=200, deadline=None)
@given(sink=sinks, ops=st.lists(st.one_of(appends, queries), max_size=60))
def test_indexed_queries_equal_linear_filter(sink, ops):
    trace = Trace(sink)
    clock = {"now": 0.0}
    trace.bind_clock(lambda: clock["now"])
    for op in ops + [("query", None, None, False)]:
        if op[0] == "append":
            _, kind, pid, v = op
            clock["now"] += 1.0
            trace.record(kind, pid, v=v)
            continue
        _, kind, pid, filtered = op
        where = odd_value if filtered else None
        assert (trace.records(kind=kind, pid=pid, where=where)
                == reference_records(trace, kind, pid, where))
        if kind is not None:
            assert (trace.series(kind, "v", pid=pid, where=where)
                    == reference_series(trace, kind, "v", pid, where))


def test_query_after_append_sees_the_new_row():
    trace = Trace()
    trace.record("state", "p", v=1)
    assert len(trace.records(kind="state", pid="p")) == 1
    trace.record("state", "p", v=2)
    assert [r["v"] for r in trace.records(kind="state", pid="p")] == [1, 2]


def test_query_after_ring_eviction_drops_the_evicted_row():
    trace = Trace("ring:2")
    for v in range(3):
        trace.record("state", "p", v=v)
        trace.records(kind="state")
    assert [r["v"] for r in trace.records(kind="state")] == [1, 2]


def test_returned_lists_are_the_callers_own():
    trace = Trace()
    trace.record("state", "p", v=1)
    trace.records(kind="state").clear()
    assert len(trace.records(kind="state")) == 1


def test_view_is_not_pickled():
    trace = Trace()
    for v in range(5):
        trace.record("suspect", "p", v=v)
    before = pickle.dumps(trace)
    trace.records(kind="suspect", pid="p")
    assert pickle.dumps(trace) == before
    copy = pickle.loads(before)
    assert copy.records(kind="suspect", pid="p") == trace.records(
        kind="suspect", pid="p")
    copy.record("suspect", "p", v=5)
    assert len(copy.records(kind="suspect")) == 6
