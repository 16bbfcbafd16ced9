"""The four closed-loop workloads.

Each workload sets up once (:meth:`setup`), then runs :meth:`step` until
the measuring window closes; a step is one turn of the closed loop: it
sends the next operation, waits for it, checks its output and files the
latencies under a sample class.  ``primary`` names the class the
end-to-end ``op_p50_ms``/``op_tail_ms`` are taken from.
"""

from __future__ import annotations

import collections
import dataclasses
import pathlib
import pickle
import re
import shutil
import time
from typing import Any, Optional

import repro
from repro import chaos
from repro.runtime.executor import SupervisedExecutor
from repro.runtime.store import ResultStore
from repro.service import Client, EmbeddedService, ServiceConfig, ServiceError

import pool
import verify

perf_counter = time.perf_counter


class Exhausted(Exception):
    """The workload's pool of fresh inputs is used up."""


class Tally:
    """Latency samples by class, work units, attempts and failures."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = collections.defaultdict(list)
        #: Per sample, the factor scaling it to the reference host speed.
        self.factors: dict[str, list[float]] = collections.defaultdict(list)
        self.wall = 0.0
        self.scaled_wall = 0.0
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def scaled(self, cls: str) -> list[float]:
        return [s * f for s, f in zip(self.samples.get(cls, []),
                                      self.factors.get(cls, []))]

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


class Workload:
    name = ""
    primary = ""

    def __init__(self, seed: int, tmp: pathlib.Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.pins = verify.load_pins()
        #: Per-layer numbers the workload reads off public surfaces,
        #: keyed by metric name: one list entry per observation.
        self.layer: dict[str, list[float]] = collections.defaultdict(list)

    def setup(self) -> None:
        pass

    def rewind(self) -> None:
        """Start the input sequence over, so a second window sees the
        same inputs as the first, and forget the layer observations."""
        self.teardown()
        self.layer.clear()
        self.setup()

    def step(self, tally: Tally, tracer=None) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def finish_layers(self) -> dict[str, float]:
        """Per-layer numbers from public surfaces, read after the run."""
        return {}


class RunWorkload(Workload):
    """``repro.run()`` over a pool of specs, one at a time."""

    primary = "run"

    def setup(self) -> None:
        _, _, self.build = pool.POOLS[self.name]
        self.order = pool.cycle(self.name, self.seed)

    def step(self, tally: Tally, tracer=None) -> None:
        index = next(self.order)
        spec = self.build(index)
        t0 = perf_counter()
        try:
            result = repro.run(spec)
        except Exception as exc:  # a failed run is a failed operation
            tally.record(False, f"{spec.name}: {type(exc).__name__}: {exc}")
            return
        tally.samples["run"].append(perf_counter() - t0)
        tally.units += 1
        bad = verify.verdict_failures(result)
        if verify.payload_digest(result) != self.pins[self.name][index]:
            bad.append("payload digest differs from the pinned one")
        tally.record(not bad, f"{spec.name}: {', '.join(bad)}")


class RunRing(RunWorkload):
    name = "run_ring"


class RunSparse(RunWorkload):
    name = "run_sparse"


class CampaignResume(Workload):
    """A seeded chaos campaign run to its halfway point, then resumed."""

    name = "campaign_resume"
    primary = "cycle"
    workers = 2

    def setup(self) -> None:
        self.order = pool.cycle(self.name, self.seed)
        self.cycles = 0

    def _campaign(self, cfg, store, resume=False):
        executor = SupervisedExecutor(workers=self.workers)
        result = chaos.run_campaign(cfg, workers=self.workers, store=store,
                                    resume=resume, executor=executor)
        return result, executor

    def step(self, tally: Tally, tracer=None) -> None:
        index = next(self.order)
        half = pool.campaign_config(index, pool.CAMPAIGN_RUNS // 2)
        full = pool.campaign_config(index)
        path = self.tmp / f"campaign-{self.cycles}.jsonl"
        self.cycles += 1
        mark = len(tracer.spans) if tracer else 0
        t0 = perf_counter()
        try:
            first = ResultStore(path)
            cold, ex_cold = self._campaign(half, first)
            t1 = perf_counter()
            second = ResultStore(path)
            resumed, ex_resume = self._campaign(full, second, resume=True)
            t2 = perf_counter()
        except Exception as exc:  # a failed campaign is a failed operation
            tally.record(False, f"campaign {full.seed}: "
                                f"{type(exc).__name__}: {exc}")
            return
        finally:
            path.unlink(missing_ok=True)
        tally.samples["cold"].append(t1 - t0)
        tally.samples["resume"].append(t2 - t1)
        tally.samples["cycle"].append(t2 - t0)
        tally.units += len(cold.verdicts) + len(resumed.verdicts)
        tally.record(cold.ok, f"campaign {half.seed} (first half) failed "
                              "its invariants")
        hits = second.stats().get("store.hits", 0)
        bad = []
        if not resumed.ok:
            bad.append("failed its invariants")
        if verify.campaign_digest(resumed) != self.pins[self.name][index]:
            bad.append("to_json() differs from the pinned cold full run")
        if hits != len(cold.verdicts):
            bad.append(f"resume served {hits} of {len(cold.verdicts)} "
                       "stored runs")
        tally.record(not bad, f"campaign {full.seed} (resumed): "
                              f"{', '.join(bad)}")
        for name in ("store.hits", "store.misses", "store.puts"):
            self.layer[name].append(sum(store.stats().get(name, 0.0)
                                        for store in (first, second)))
        for ex in (ex_cold, ex_resume):
            counts = ex.stats()
            for name in ("executor.retries", "executor.timeouts",
                         "executor.inline_fallbacks"):
                self.layer[name].append(counts.get(name, 0.0))
        if tracer is not None:
            self._trace_executor(tracer, mark, half, full, cold, resumed)

    def _trace_executor(self, tracer, mark, half, full, cold, resumed):
        """Pickle cost of the shipped results, and dispatch overhead from
        a serial pass over the same tasks (in-worker spans are lost)."""
        for v in cold.verdicts + resumed.verdicts:
            if isinstance(v, chaos.RunVerdict):
                t0 = perf_counter()
                data = pickle.dumps(v)
                pickle.loads(data)
                self.layer["executor.pickle_ms"].append(
                    1e3 * (perf_counter() - t0))
                self.layer["executor.pickle_bytes"].append(len(data))
        seeds_cold = chaos.fanout_seeds(half.seed, half.campaigns)
        seeds_new = chaos.fanout_seeds(full.seed, full.campaigns)[
            half.campaigns:]
        busy = []
        for cfg, seeds, offset in ((half, seeds_cold, 0),
                                   (full, seeds_new, half.campaigns)):
            t0 = perf_counter()
            for i, run_seed in enumerate(seeds):
                chaos.run_one(offset + i, run_seed, cfg)
            busy.append(perf_counter() - t0)
        maps = [s for s in tracer.spans[mark:]
                if s["name"] == "executor.map"
                and s["attrs"]["workers"] > 1][:2]
        for span, task_s in zip(maps, busy):
            lanes = min(span["attrs"]["workers"], span["attrs"]["tasks"])
            wall = span["end"] - span["start"]
            self.layer["executor.dispatch_ms"].append(
                1e3 * (wall - task_s / lanes))
            self.layer["executor.busy_s"].append(task_s)
            self.layer["executor.lane_s"].append(lanes * wall)

    def finish_layers(self) -> dict[str, float]:
        out = {name: _mean(self.layer[name]) for name in (
            "executor.pickle_ms", "executor.pickle_bytes",
            "executor.dispatch_ms", "store.hits", "store.misses",
            "store.puts")}
        lane_s = sum(self.layer["executor.lane_s"])
        out["executor.utilization"] = (sum(self.layer["executor.busy_s"])
                                       / lane_s if lane_s else 0.0)
        for name in ("executor.retries", "executor.timeouts",
                     "executor.inline_fallbacks"):
            out[name] = sum(self.layer[name])
        return out


class ServiceMixed(Workload):
    """One client in a closed loop against an in-process service."""

    name = "service_mixed"
    primary = "cold"
    #: Every this many cycles, a small campaign joins the mix.
    campaign_every = 8
    campaign_size = 2

    def setup(self) -> None:
        self.cold = iter(pool.seeded_order(self.name, self.seed))
        self.campaign_seeds = iter(pool.seeded_order("service_campaign",
                                                     self.seed))
        self.cycles = 0
        self.starts = getattr(self, "starts", 0) + 1
        home = self.tmp / f"service-{self.starts}"
        home.mkdir()
        self.service = EmbeddedService(ServiceConfig(
            store_path=str(home / "store.jsonl"), port=0, workers=2))
        host, port = self.service.start()
        self.client = Client(host, port)

    def teardown(self) -> None:
        self.service.shutdown()

    def _request(self, tally: Tally, tracer, span: str, what: str,
                 check, call, *args, **kwargs) -> Any:
        """One HTTP request: counted, timed and checked once.

        ``check(reply)`` names what is wrong with the reply, or returns
        None; a refused, failed or wrong request returns None.
        """
        t0 = perf_counter()
        try:
            if tracer is None:
                out = call(*args, **kwargs)
            else:
                with tracer.span(span):
                    out = call(*args, **kwargs)
        except (ServiceError, OSError, ValueError) as exc:
            tally.record(False, f"{what}: {exc}")
            return None
        self.layer[span].append(1e3 * (perf_counter() - t0))
        tally.units += 1
        problem = check(out)
        return out if tally.record(problem is None,
                                   f"{what}: {problem}") else None

    def _wait_end(self, job_id: str) -> dict[str, Any]:
        """Follow the job's SSE feed to its terminal snapshot."""
        for record in self.client.events(job_id):
            if record.get("event") == "end":
                return record
        raise ServiceError(f"event stream of {job_id} ended early")

    def _job_done(self, tally: Tally, tracer, job_id: str, what: str) -> bool:
        def check(end):
            if end["state"] != "done":
                return f"job {job_id} ended {end['state']}: {end['error']}"
            return None

        end = self._request(tally, tracer, "service.events", what, check,
                            self._wait_end, job_id)
        if end is None:
            return False
        self.layer["service.queue_wait_ms"].append(
            1e3 * (end["started_wall"] - end["created_wall"]))
        self.layer["service.job_run_ms"].append(
            1e3 * (end["finished_wall"] - end["started_wall"]))
        return True

    def _get(self, tally: Tally, tracer, key: str, pin: str,
             what: str) -> Optional[bytes]:
        """GET the stored bytes; they must be the local payload's bytes."""
        return self._request(
            tally, tracer, "service.get", what,
            lambda data: (None if verify.sha256(data) == pin
                          else "bytes differ from the local payload"),
            self.client.result_bytes, key)

    def step(self, tally: Tally, tracer=None) -> None:
        try:
            index = next(self.cold)
        except StopIteration:
            raise Exhausted("service_mixed pool used up") from None
        self.cycles += 1
        spec = dataclasses.asdict(pool.service_spec(index))
        pin = self.pins[self.name][index]
        what = f"svc-{index}"

        t0 = perf_counter()
        sub = self._request(
            tally, tracer, "service.submit", what,
            lambda r: (None if r["cached"] is False and r["job"]
                       else "a fresh spec was not scheduled as a job"),
            self.client.submit_run, spec)
        if sub is None or not self._job_done(tally, tracer, sub["job"], what):
            return
        if self._get(tally, tracer, sub["spec_key"], pin, what) is not None:
            tally.samples["cold"].append(perf_counter() - t0)

        def cached_check(reply):
            if reply["cached"] is not True:
                return "resubmission was not a cache hit"
            if verify.dict_payload_digest(reply["result"]) != pin:
                return "inline cached payload differs from the local one"
            return None

        t0 = perf_counter()
        if self._request(tally, tracer, "service.submit", what, cached_check,
                         self.client.submit_run, spec) is not None:
            tally.samples["cached"].append(perf_counter() - t0)

        t0 = perf_counter()
        if self._get(tally, tracer, sub["spec_key"], pin, what) is not None:
            tally.samples["get"].append(perf_counter() - t0)

        if self.cycles % self.campaign_every == 0:
            self._campaign(tally, tracer)

    def _campaign(self, tally: Tally, tracer) -> None:
        try:
            picks = [next(self.campaign_seeds)
                     for _ in range(self.campaign_size)]
        except StopIteration:
            raise Exhausted("service_campaign pool used up") from None
        what = f"campaign {picks}"
        t0 = perf_counter()
        sub = self._request(
            tally, tracer, "service.submit", what,
            lambda r: None if r["job"] else "campaign was not scheduled",
            self.client.submit_campaign, pool.SERVICE_CAMPAIGN_BASE,
            seeds=[pool.service_campaign_seed(i) for i in picks])
        if sub is None or not self._job_done(tally, tracer, sub["job"], what):
            return
        got = [self._get(tally, tracer, key, self.pins["service_campaign"][i],
                         f"{what} seed index {i}")
               for i, key in zip(picks, sub["spec_keys"])]
        if all(data is not None for data in got):
            tally.samples["campaign"].append(perf_counter() - t0)

    def finish_layers(self) -> dict[str, float]:
        text = self.client.metrics()
        non2xx = sum((float(v) for code, v in re.findall(
            r'^repro_service_responses\{code="(\d+)"\} (\S+)$', text, re.M)
            if not code.startswith("2")), 0.0)
        ratio = re.search(r"^repro_service_cache_hit_ratio (\S+)$", text,
                          re.M)
        counters = {name: float(v) for name, v in re.findall(
            r"^repro_store_(hits|misses|puts) (\S+)$", text, re.M)}
        requests = max(1, sum(len(self.layer[s]) for s in (
            "service.submit", "service.get", "service.events")))
        return {
            "service.queue_wait_ms": _mean(self.layer["service.queue_wait_ms"]),
            "service.job_run_ms": _mean(self.layer["service.job_run_ms"]),
            "service.submit_ms": _mean(self.layer["service.submit"]),
            "service.get_ms": _mean(self.layer["service.get"]),
            "service.cache_hit_ratio": float(ratio.group(1)) if ratio else 0.0,
            "service.responses_non2xx": non2xx,
            **{f"store.{name}": counters.get(name, 0.0) / requests
               for name in ("hits", "misses", "puts")},
        }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


WORKLOADS = {w.name: w for w in (RunRing, RunSparse, CampaignResume,
                                 ServiceMixed)}


def make(name: str, seed: int, tmp: pathlib.Path) -> Workload:
    tmp.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, tmp)


def cleanup(tmp: pathlib.Path) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
