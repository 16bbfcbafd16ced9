"""Declarative scenario runner: dict/JSON in, verdicts out.

Downstream users rarely want to wire engines by hand; a
:class:`Scenario` describes a dining simulation declaratively —

.. code-block:: python

    Scenario.from_dict({
        "name": "ring under one crash",
        "graph": "ring:5",
        "algorithm": "wf-ewx",        # wf-ewx | hygienic | deferred |
                                      # manager | fair:<k>
        "detector": "eventually_perfect",  # any registry name
        "client": "eager:2",          # eager:<steps> | periodic
        "crashes": {"p1": 400.0},
        "seed": 7,
        "gst": 120.0,
        "max_time": 2000.0,
        # optional link faults (see docs/fault_model.md):
        "drop": 0.15,                 # per-message loss probability
        "duplicate": 0.05,            # per-message duplication probability
        "partition": {"side": ["p0", "p1"], "start": 300.0, "end": 450.0},
        "transport": True,            # reliable transport over the faults
                                      # (default: auto — on iff faults set)
        # optional targeted adversary (extra delay on matching messages):
        "slow": {"kind": "ping", "factor": 4.0, "until": 800.0},
        # optional trace sink (docs/runtime.md): full | ring:N | counters
        "trace": "full",
        # optional pair selection (docs/topologies.md): all | neighbors |
        # neighbors:<k> — conflict-graph-local detector monitoring
        "pairs": "all",
    }).run()

— and ``run()`` returns a :class:`ScenarioReport` bundling the
wait-freedom, exclusion, fairness, and box-oracle (◇P) verdicts plus run
metrics.  The CLI exposes it as ``repro scenario path/to/file.json``; the
chaos runner (:mod:`repro.chaos`) generates randomized scenarios through
this same front door so every chaos run replays from its seed.

A :class:`Scenario` *is* a :class:`~repro.runtime.spec.RunSpec` — all
wiring and execution happens in :mod:`repro.runtime`; this module only
adds the report view and its rendering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import Table
from repro.runtime import INSTANCE, RunResult, RunSpec, execute, parse_graph

__all__ = ["INSTANCE", "Scenario", "ScenarioReport", "parse_graph"]


@dataclass
class ScenarioReport(RunResult):
    """Thin presentation view over the runtime's :class:`RunResult`."""

    @classmethod
    def from_result(cls, result: RunResult) -> "ScenarioReport":
        return cls(**RunResult.view_fields(result))

    def render(self) -> str:
        if not self.checked:
            # counters-sink run: no rows were retained, so no verdicts —
            # render the cost/telemetry side only.
            t = Table(["property", "value"],
                      title=f"scenario: {self.name} (unchecked, "
                            f"trace {self.trace_mode})")
            t.add_row(["messages sent", self.metrics.messages_sent])
            t.add_row(["messages dropped", self.metrics.messages_dropped])
            t.add_row(["messages duplicated", self.metrics.messages_duplicated])
            t.add_row(["retransmissions", self.metrics.retransmissions])
            t.add_row(["events processed", self.metrics.events_processed])
            t.add_row(["convergence time", self.convergence_time])
            t.add_row(["trace sink", self.trace_mode])
            t.add_row(["virtual time", self.end_time])
            return t.render()
        t = Table(["property", "value"], title=f"scenario: {self.name}")
        t.add_row(["wait-free", self.wait_freedom.ok])
        t.add_row(["starving", ", ".join(self.wait_freedom.starving) or None])
        t.add_row(["max hungry wait", self.wait_freedom.max_wait])
        t.add_row(["exclusion violations", self.exclusion.count])
        t.add_row(["last violation ends", self.exclusion.last_violation_end])
        t.add_row(["perpetually exclusive", self.exclusion.perpetual_ok])
        t.add_row(["oracle accuracy ok", self.oracle_accuracy_ok])
        t.add_row(["oracle completeness ok", self.oracle_completeness_ok])
        t.add_row(["violations justified", self.violations_justified])
        t.add_row(["worst overtaking", self.fairness.worst_overall()])
        t.add_row(["messages sent", self.metrics.messages_sent])
        t.add_row(["messages dropped", self.metrics.messages_dropped])
        t.add_row(["messages duplicated", self.metrics.messages_duplicated])
        t.add_row(["retransmissions", self.metrics.retransmissions])
        t.add_row(["trace sink", self.trace_mode])
        t.add_row(["virtual time", self.end_time])
        sessions = ", ".join(
            f"{p}:{n}" for p, n in sorted(self.wait_freedom.sessions.items())
        )
        return t.render() + f"\nsessions: {sessions}"


@dataclass
class Scenario(RunSpec):
    """A declaratively-described dining run (a named :class:`RunSpec`)."""

    name: str = "scenario"

    def run(self) -> ScenarioReport:
        """Execute through the canonical runtime and wrap the envelope."""
        return ScenarioReport.from_result(execute(self))
