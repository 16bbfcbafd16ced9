"""Spans around the program's layer boundaries, recorded from outside.

:func:`install` wraps the public functions each layer exposes, at the
name its caller looks up (``repro.runtime.builder`` binds
``check_exclusion`` at import, so the wrapper goes on
``repro.runtime.builder.check_exclusion``, not on ``repro.dining.spec``).
Each call becomes one span: name, start, end, parent span, thread and a
few counts taken at the boundary.  Spans stay in memory until the run
ends.  Code in forked pool workers records into the worker's copy of the
tracer, so those spans never reach the parent; the campaign workload
measures the same tasks in a serial pass instead.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from typing import Any, Callable, Optional


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"id": next(self._ids),
                  "parent": stack[-1] if stack else None, "name": name,
                  "thread": threading.get_ident(), "attrs": attrs}
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record, sort_keys=True) + "\n")


# -- counts taken at the boundary --------------------------------------------


def _run_counts(args, result) -> dict[str, float]:
    counters = result.obs.counters if result.obs is not None else {}
    return {name: counters.get(name, 0.0) for name in (
        "net.messages_sent", "net.messages_dropped",
        "net.messages_duplicated", "transport.retransmissions")}


def _build_counts(args, built) -> dict[str, float]:
    snap = built.engine.registry.snapshot()
    return {"pairs_monitored": snap.counter_value("monitor.pairs_monitored")}


def _sim_counts(args, trace) -> dict[str, float]:
    engine = args[0]
    return {"events": engine.events_processed,
            "trace_records": engine.trace.total_recorded}


def _bytes_count(args, data) -> dict[str, float]:
    return {"bytes": len(data)}


def _store_open_counts(args, _) -> dict[str, float]:
    return {"existing": float(args[0].path.exists())}


def _map_counts(args, _) -> dict[str, float]:
    return {"workers": args[0].workers, "tasks": len(args[2])}


#: (module, attribute, span name, counts at the boundary).  ``run`` is
#: wrapped at every name a caller binds ``execute`` under.
PATCHES: list[tuple[str, str, str, Optional[Callable]]] = [
    ("repro.api", "execute", "run", _run_counts),
    ("repro.scenario", "execute", "run", _run_counts),
    ("repro.runtime.builder", "execute", "run", _run_counts),
    ("repro.runtime.builder", "instantiate", "build", _build_counts),
    ("repro.sim.engine", "Engine.run", "sim", _sim_counts),
    ("repro.runtime.builder", "collect_metrics", "obs.finalize", None),
    ("repro.runtime.builder", "check_exclusion", "check.exclusion", None),
    ("repro.runtime.builder", "check_wait_freedom", "check.wait_freedom",
     None),
    ("repro.runtime.builder", "measure_fairness", "check.fairness", None),
    ("repro.runtime.builder", "check_detector_properties", "check.detector",
     None),
    ("repro.runtime.builder", "justify_violations", "check.justify", None),
    ("repro.service.encoding", "result_payload", "encode", None),
    ("repro.service.server", "payload_bytes", "encode", _bytes_count),
    ("repro.runtime.store", "ResultStore.__init__", "store.open",
     _store_open_counts),
    ("repro.runtime.store", "ResultStore.get", "store.get", None),
    ("repro.runtime.store", "ResultStore.put", "store.put", None),
    ("repro.chaos", "build_run", "chaos.build_run", None),
    ("repro.chaos", "check_invariants", "chaos.check_invariants", None),
    ("repro.runtime.executor", "SupervisedExecutor.map", "executor.map",
     _map_counts),
]


def _traced(tracer: Tracer, fn: Callable, name: str,
            counts: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as attrs:
            out = fn(*args, **kwargs)
            if counts is not None:
                attrs.update(counts(args, out))
            return out
    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every patch point; returns the function that unwraps them."""
    undo = []
    for module_name, attr, name, counts in PATCHES:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf]
        setattr(owner, leaf, _traced(tracer, original, name, counts))
        undo.append((owner, leaf, original))

    def uninstall() -> None:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)
    return uninstall


# -- per-layer numbers --------------------------------------------------------


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Span id -> seconds not covered by its child spans."""
    covered: dict[int, float] = collections.defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_table(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Span name -> calls and total self seconds."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[s["id"]]
    return table


def layer_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """The span-derived per-layer metrics (0 where a layer saw no call)."""
    own = self_times(spans)
    by_name: dict[str, list[dict[str, Any]]] = collections.defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def ms(name: str, keep=lambda s: True) -> float:
        return 1e3 * _mean([own[s["id"]] for s in by_name[name] if keep(s)])

    def attr(name: str, key: str) -> float:
        return _mean([s["attrs"][key] for s in by_name[name]
                      if key in s["attrs"]])

    checks = ("exclusion", "wait_freedom", "fairness", "detector", "justify")
    check_s = sum(own[s["id"]] for c in checks
                  for s in by_name[f"check.{c}"])
    run_s = sum(s["end"] - s["start"] for s in by_name["run"])
    sim_s = sum(own[s["id"]] for s in by_name["sim"])
    out = {
        "build.ms": ms("build"),
        "build.pairs_monitored": attr("build", "pairs_monitored"),
        "sim.ms": ms("sim"),
        "sim.events": attr("sim", "events"),
        "sim.events_per_s": (sum(s["attrs"]["events"] for s in by_name["sim"])
                             / sim_s if sim_s else 0.0),
        "sim.trace_records": attr("sim", "trace_records"),
        "net.messages_sent": attr("run", "net.messages_sent"),
        "net.messages_dropped": attr("run", "net.messages_dropped"),
        "net.messages_duplicated": attr("run", "net.messages_duplicated"),
        "transport.retransmissions": attr("run", "transport.retransmissions"),
        **{f"check.{c}_ms": ms(f"check.{c}") for c in checks},
        "check.share": check_s / run_s if run_s else 0.0,
        "obs.finalize_ms": ms("obs.finalize"),
        "encode.ms": ms("encode"),
        "encode.bytes": attr("encode", "bytes"),
        "store.put_ms": ms("store.put"),
        "store.get_ms": ms("store.get"),
        "store.load_ms": ms("store.open", lambda s: s["attrs"]["existing"]),
        "chaos.build_run_ms": ms("chaos.build_run"),
        "chaos.check_invariants_ms": ms("chaos.check_invariants"),
    }
    return out
