"""Fixed input pools for the benchmark workloads, and their seeded order.

Each workload draws its inputs from a pool that never changes: a list of
strata (one per input shape, e.g. ``ring:5``), each with a fixed list of
variants.  ``--seed`` only decides the order in which a run visits the
pool: a seeded rotation over the strata and a seeded shuffle within each
one.  Every run therefore sees the same mix of input shapes, and the
pools that are reused within a run are small enough to be visited
several times, which keeps the per-run medians comparable across seeds.
Every input has a digest pinned in ``pins.json`` (``pin.py`` writes it),
so a change in what the program computes shows up as a failed operation.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

from repro.chaos import ChaosConfig
from repro.runtime.spec import RunSpec

#: run_ring: small ring/path graphs, wf-ewx, default ◇P, one crash.
RING_STRATA = [(kind, n) for kind in ("ring", "path") for n in (5, 6, 7, 8)]
RING_VARIANTS = 4

#: run_sparse: rgg:256 graphs under conflict-graph-local monitoring.
SPARSE_GRAPHS = [f"rgg:256:0.1:{g}" for g in (1, 2, 3, 4)]
SPARSE_VARIANTS = 4

#: campaign_resume: seeded chaos campaigns, resumed at the halfway point.
CAMPAIGN_RUNS = 4
CAMPAIGN_POOL = 8
#: Longer than ChaosConfig's default 900: campaign 302 (a star:3 run with
#: an 11% drop rate) has not yet converged to ◇P accuracy by t=900.
CAMPAIGN_HORIZON = 1200.0

#: service_mixed: fault-injected single runs submitted cold, plus the
#: seeds of the small campaigns mixed in every few cycles.  The ◇P
#: initial timeout is 30 steps, not 10: with 10, about one run in a
#: thousand ends with a ◇P mistake opened in its last few time units,
#: which fails the accuracy verdict.
SERVICE_GRAPHS = ["ring:4", "path:4", "ring:5", "path:5"]
SERVICE_VARIANTS = 256
SERVICE_CAMPAIGN_BASE = {"name": "svc-campaign", "graph": "ring:4",
                         "duplicate": 0.05, "gst": 60.0, "max_time": 500.0,
                         "detector_params": {"initial_timeout": 30},
                         "partition": {"side": ["p1"], "start": 80.0,
                                       "end": 150.0},
                         "crashes": {"p2": 120.0}}
SERVICE_CAMPAIGN_SEEDS = 256


def ring_spec(index: int) -> RunSpec:
    kind, n = RING_STRATA[index // RING_VARIANTS]
    v = index % RING_VARIANTS
    return RunSpec(name=f"ring-{kind}{n}-{v}", graph=f"{kind}:{n}",
                   seed=1000 * n + 100 * (kind == "path") + v,
                   crashes={f"p{v % n}": 150.0 + 90.0 * v},
                   max_time=1000.0)


def sparse_spec(index: int) -> RunSpec:
    graph = SPARSE_GRAPHS[index // SPARSE_VARIANTS]
    v = index % SPARSE_VARIANTS
    return RunSpec(name=f"sparse-{index}", graph=graph, seed=500 + index,
                   pairs="neighbors", allow_disconnected=True,
                   max_time=50.0, gst=0.0, grace=50.0,
                   detector_params={"initial_timeout": 30 + 2 * v})


def service_spec(index: int) -> RunSpec:
    graph = SERVICE_GRAPHS[index // SERVICE_VARIANTS]
    v = index % SERVICE_VARIANTS
    n = int(graph.split(":")[1])
    return RunSpec(name=f"svc-{index}", graph=graph, seed=70000 + index,
                   duplicate=0.05,
                   partition={"side": [f"p{(v + 1) % n}"], "start": 80.0,
                              "end": 140.0 + 5.0 * (v % 5)},
                   crashes={f"p{v % n}": 100.0 + 10.0 * (v % 10)},
                   gst=60.0, max_time=500.0,
                   detector_params={"initial_timeout": 30})


def service_campaign_seed(index: int) -> int:
    return 90000 + index


def service_campaign_spec(index: int) -> RunSpec:
    """The shard the service builds for campaign seed ``index``."""
    return RunSpec(**SERVICE_CAMPAIGN_BASE, seed=service_campaign_seed(index))


def campaign_config(index: int, runs: int = CAMPAIGN_RUNS) -> ChaosConfig:
    return ChaosConfig(campaigns=runs, seed=300 + index,
                       max_time=CAMPAIGN_HORIZON)


#: Pool name -> (size, number of strata, builder of entry ``index``).
POOLS: dict[str, tuple[int, int, Callable[[int], object]]] = {
    "run_ring": (len(RING_STRATA) * RING_VARIANTS, len(RING_STRATA),
                 ring_spec),
    "run_sparse": (len(SPARSE_GRAPHS) * SPARSE_VARIANTS, len(SPARSE_GRAPHS),
                   sparse_spec),
    "campaign_resume": (CAMPAIGN_POOL, 1, campaign_config),
    "service_mixed": (len(SERVICE_GRAPHS) * SERVICE_VARIANTS,
                      len(SERVICE_GRAPHS), service_spec),
    "service_campaign": (SERVICE_CAMPAIGN_SEEDS, 1, service_campaign_spec),
}


def seeded_order(pool: str, seed: int) -> list[int]:
    """Every index of ``pool`` once, in the order ``seed`` picks.

    Strata take turns from a seeded starting stratum; within a stratum
    the variants come in a seeded shuffle.
    """
    size, strata, _ = POOLS[pool]
    per = size // strata
    rng = random.Random(f"{pool}:{seed}")
    shuffled = [rng.sample(range(s * per, (s + 1) * per), per)
                for s in range(strata)]
    start = rng.randrange(strata)
    return [shuffled[(start + i) % strata][i // strata]
            for i in range(size)]


def cycle(pool: str, seed: int) -> Iterator[int]:
    """The seeded order of ``pool``, repeated without end."""
    order = seeded_order(pool, seed)
    while True:
        yield from order
