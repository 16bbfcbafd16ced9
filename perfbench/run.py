"""End-to-end benchmark: runs, resumed campaigns and service requests.

Run from the repository root::

    python3 perfbench/run.py --workload run_ring --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures the first half of the window the same way and the
second half with every layer boundary wrapped (see ``tracing.py``), and
reports the per-layer metrics plus the tracing overhead.  The report
lines name every metric with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Timings are scaled to a reference host speed, with the
wall-clock value beside each in the report lines.  The exit code is 0
only when every output was correct.
See ``METRICS.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import bootstrap
import tracing

WORKLOADS = ("run_ring", "run_sparse", "campaign_resume", "service_mixed")

#: Fresh processes timed from start to the first operation, per run.
SETUP_PROBES = 5

#: The reference loop, and its wall time on the reference host.  Timings
#: in the JSON are scaled by REFERENCE_S over the loop's time measured
#: just before their step, which takes out most of the host's speed drift.
REFERENCE_LOOPS = 50_000
REFERENCE_S = 0.005

#: name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
              "op_p50_ms": "ms", "op_tail_ms": "ms"}
PER_LAYER = {
    "build.ms": "ms", "build.pairs_monitored": "count",
    "sim.ms": "ms", "sim.events": "count", "sim.events_per_s": "1/s",
    "sim.trace_records": "count",
    "net.messages_sent": "count", "net.messages_dropped": "count",
    "net.messages_duplicated": "count", "transport.retransmissions": "count",
    "check.exclusion_ms": "ms", "check.wait_freedom_ms": "ms",
    "check.fairness_ms": "ms", "check.detector_ms": "ms",
    "check.justify_ms": "ms", "check.share": "ratio",
    "obs.finalize_ms": "ms",
    "encode.ms": "ms", "encode.bytes": "bytes",
    "executor.pickle_ms": "ms", "executor.pickle_bytes": "bytes",
    "executor.dispatch_ms": "ms", "executor.utilization": "ratio",
    "executor.retries": "count", "executor.timeouts": "count",
    "executor.inline_fallbacks": "count",
    "store.put_ms": "ms", "store.get_ms": "ms", "store.load_ms": "ms",
    "store.hits": "count", "store.misses": "count", "store.puts": "count",
    "chaos.build_run_ms": "ms", "chaos.check_invariants_ms": "ms",
    "service.queue_wait_ms": "ms", "service.job_run_ms": "ms",
    "service.submit_ms": "ms", "service.get_ms": "ms",
    "service.cache_hit_ratio": "ratio", "service.responses_non2xx": "count",
    "trace.overhead": "ratio",
}

#: Report names of each workload's timed sample classes (name, class).
TIMINGS = {
    "run_ring": [("run", "run", "ms")],
    "run_sparse": [("run", "run", "ms")],
    "campaign_resume": [("campaign_cold", "cold", "s"),
                        ("campaign_resume", "resume", "s"),
                        ("campaign_cycle", "cycle", "s")],
    "service_mixed": [("request_cold", "cold", "ms"),
                      ("request_cached", "cached", "ms"),
                      ("request_get", "get", "ms"),
                      ("request_campaign", "campaign", "ms")],
}
THROUGHPUT = {"run_ring": "runs_per_s", "run_sparse": "runs_per_s",
              "campaign_resume": "runs_per_s",
              "service_mixed": "requests_per_s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def tail(samples: list[float]) -> "tuple[float, float]":
    """The highest percentile with at least ten samples beyond it, and
    that percentile; the median when there are too few samples."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank <= len(ordered) // 2:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def peak_rss_mb() -> float:
    """Peak resident size of this process plus its largest child (KiB
    on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def measure_setup(args) -> list[float]:
    """Time from starting a fresh process until it is ready for its first
    operation (interpreter, imports, input generation, store and service
    start-up), each scaled by a reference run just before it."""
    samples = []
    for _ in range(SETUP_PROBES):
        factor = REFERENCE_S / reference()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True, cwd=bootstrap.ROOT)
        line = proc.stdout.readline()
        samples.append(factor * (time.perf_counter() - t0))
        proc.stdout.read()
        proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return samples


def reference() -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - t0


def measure(wl, tally, seconds: float, tracer=None) -> None:
    """Run the closed loop for ``seconds``.

    Each step is preceded by one :func:`reference` run; the samples and
    the wall time of that step are filed with the factor that scales
    them to the reference host speed (``REFERENCE_S`` per loop).
    """
    from workloads import Exhausted

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        factor = REFERENCE_S / reference()
        before = {cls: len(s) for cls, s in tally.samples.items()}
        t0 = time.perf_counter()
        try:
            wl.step(tally, tracer)
        except Exhausted as exc:
            print(f"note: {exc}; the window ended early", file=sys.stderr)
            break
        finally:
            took = time.perf_counter() - t0
            tally.wall += took
            tally.scaled_wall += factor * took
            for cls, samples in tally.samples.items():
                tally.factors[cls] += [factor] * (len(samples)
                                                 - before.get(cls, 0))


def line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<28} {value:>12.4f} {unit:<6} {note}".rstrip())


def report_timings(workload: str, tally) -> None:
    """Each timing at the reference host speed, with its wall-clock value."""
    for name, cls, unit in TIMINGS[workload]:
        if not tally.samples.get(cls):
            continue
        scale = 1e3 if unit == "ms" else 1.0
        wall, scaled = tally.samples[cls], tally.scaled(cls)
        n = len(wall)
        line(f"{name}_p50_{unit}", scale * statistics.median(scaled), unit,
             f"(n={n}; wall {scale * statistics.median(wall):.4f})")
        (value, pct), (wall_value, _) = tail(scaled), tail(wall)
        line(f"{name}_tail_{unit}", scale * value, unit,
             f"(p{pct:.0f}, n={n}; wall {scale * wall_value:.4f})")
    line(THROUGHPUT[workload], tally.units / tally.scaled_wall, "1/s",
         f"(wall {tally.units / tally.wall:.4f})")


def report_layers(spans, ops: int) -> None:
    rows = tracing.layer_table(spans)
    total = sum(row["self_s"] for row in rows.values()) or 1.0
    print("  self time by layer (traced half):")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"    {name:<24} {row['calls']:>7} calls "
              f"{1e3 * row['self_s'] / max(ops, 1):>10.3f} ms/op "
              f"{100 * row['self_s'] / total:>6.1f}%")


def setup_probe(args) -> int:
    import workloads

    tmp = bootstrap.ROOT / ".perfbench" / f"probe-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, tmp)
    try:
        wl.setup()
        print("ready", flush=True)
        wl.teardown()
    finally:
        workloads.cleanup(tmp)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.import_repro()
    except bootstrap.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    import workloads

    out_dir = bootstrap.ROOT / ".perfbench"
    tmp = out_dir / f"tmp-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, tmp)
    plain = workloads.Tally()
    traced = workloads.Tally()
    tracer = tracing.Tracer()
    try:
        wl.setup()
        if args.trace:
            measure(wl, plain, args.seconds / 2)
            wl.rewind()
            uninstall = tracing.install(tracer)
            try:
                measure(wl, traced, args.seconds / 2, tracer)
            finally:
                uninstall()
        else:
            measure(wl, plain, args.seconds)
        public_layers = wl.finish_layers()
    finally:
        wl.teardown()
        workloads.cleanup(tmp)
    rss = peak_rss_mb()
    setup = measure_setup(args)

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    primary = plain.scaled(wl.primary) or [0.0]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"nproc={os.cpu_count()}"
          + (" (end-to-end lines: untraced half)" if args.trace else ""))
    line("setup_s", statistics.median(setup), "s", f"(n={len(setup)})")
    line("peak_rss_mb", rss, "MB")
    report_timings(args.workload, plain)
    line("failed_share", failed / max(attempted, 1), "ratio",
         f"({failed} of {attempted})")
    for problem in plain.failures + traced.failures:
        print(f"  FAILED: {problem}")

    if args.trace:
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        with_spans = traced.scaled(wl.primary) or [0.0]
        report_layers(tracer.spans, len(with_spans))
        values = {name: 0.0 for name in PER_LAYER}
        values.update(tracing.layer_metrics(tracer.spans))
        values.update(public_layers)
        values["trace.overhead"] = (statistics.median(with_spans)
                                    / statistics.median(primary) - 1)
        line("trace.overhead", values["trace.overhead"], "ratio",
             f"(traced vs untraced {wl.primary} p50; spans in "
             f"{spans_path.relative_to(bootstrap.ROOT)})")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
            "ops_per_s": plain.units / plain.scaled_wall,
            "op_p50_ms": 1e3 * statistics.median(primary),
            "op_tail_ms": 1e3 * tail(primary)[0],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
