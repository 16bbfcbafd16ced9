"""Content-addressed result store: spec hash in, cached run payload out.

:func:`repro.runtime.builder.execute` is a pure function of its
:class:`~repro.runtime.spec.RunSpec`, so a run's outcome is fully named
by a canonical hash of the spec.  :class:`ResultStore` exploits that: a
JSONL-segment file keyed by :func:`spec_hash`, appended as results land,
so

* a re-submitted spec is a **cache hit** (no re-simulation), and
* a campaign interrupted mid-flight keeps every per-seed result it
  already computed — ``repro chaos --resume`` / ``repro sweep --resume``
  skip the stored seeds and produce aggregates byte-identical to an
  uninterrupted run.

Durability model: one JSON object per line, appended with flush+fsync
per put, last-write-wins on duplicate keys at load.  A crash mid-append
leaves at most one truncated final line, which load tolerates (the
payload of that line is simply lost and will be recomputed).  Payload
JSON preserves key order (no ``sort_keys``), so dicts round-trip with
their original insertion order and resumed aggregates serialize to the
same bytes as fresh ones.

:func:`resumable_map` is the generic checkpoint/resume harness over a
:class:`~repro.runtime.executor.SupervisedExecutor`: given per-task
store keys plus encode/decode hooks, it serves cached tasks from the
store and checkpoints fresh results the moment they complete — also on
the serial path, so an interrupted ``--workers 1`` campaign resumes too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from typing import Any, Callable, Mapping, Optional, Sequence, TypeVar

from repro.errors import ConfigurationError, ExecutionError
from repro.obs.registry import MetricsRegistry
from repro.runtime.executor import SupervisedExecutor
from repro.runtime.spec import REMOVED_FIELDS, RunSpec

T = TypeVar("T")
R = TypeVar("R")

#: Schema tag stamped on every store line.
STORE_SCHEMA = "repro.store.v1"

#: The content-address rule, stated once: salt -> the RunSpec fields
#: introduced under it, oldest first.  A spec hashes under the newest salt
#: whose fields it sets to a non-default value, and the hash covers every
#: field introduced up to that salt — so a spec that leaves a newer
#: salt's fields at their defaults keeps the key it had before they
#: existed.  Add a salt here when RunSpec gains fields that change what a
#: run computes; fields older than the first salt sit under it.
SPEC_SALTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("repro.spec.v3", ()),
    ("repro.spec.v4", ("detector", "detector_params")),
)

#: RunSpec field defaults, for the salt rule (built once at import).
_DEFAULTS: dict[str, Any] = {
    f.name: (f.default if f.default is not dataclasses.MISSING
             else f.default_factory())
    for f in dataclasses.fields(RunSpec)
}


def canonical_spec(spec: RunSpec) -> dict[str, Any]:
    """The spec as a plain, deterministic dict (all fields, field order)."""
    return dataclasses.asdict(spec)


def spec_hash(spec: RunSpec) -> str:
    """Canonical content address of one run: sha256 over the salted,
    key-sorted JSON encoding of the spec's fields under :data:`SPEC_SALTS`.

    Two equal specs hash equally regardless of construction path
    (``RunSpec`` vs ``Scenario``, JSON vs kwargs), and the hash is stable
    across processes, machines, and worker counts.  Fields removed from
    ``RunSpec`` are hashed at their one remaining value
    (:data:`~repro.runtime.spec.REMOVED_FIELDS`), so keys written while
    they existed still match.
    """
    fields = {**REMOVED_FIELDS, **canonical_spec(spec)}
    newest = max((i for i, (_, names) in enumerate(SPEC_SALTS)
                  if any(fields[n] != _DEFAULTS[n] for n in names)),
                 default=0)
    for _, names in SPEC_SALTS[newest + 1:]:
        for name in names:
            del fields[name]
    payload = {"version": SPEC_SALTS[newest][0], "spec": fields}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultStore:
    """Append-only JSONL store mapping content keys to result payloads.

    ``get``/``put``/``__contains__`` are the whole surface; hit/miss/put
    counts publish into ``metrics`` (``store.hits``, ``store.misses``,
    ``store.puts``, ``store.corrupt_lines``) so cache behavior is
    observable — the acceptance path for resume verification.
    """

    def __init__(self, path: "str | pathlib.Path",
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.path = pathlib.Path(path)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._index: dict[str, dict[str, Any]] = {}
        if self.path.exists():
            if self.path.is_dir():
                raise ConfigurationError(
                    f"store path {self.path} is a directory")
            self._load()
        else:
            parent = self.path.parent
            if not parent.is_dir():
                raise ConfigurationError(
                    f"store directory {parent} does not exist")
            if not os.access(parent, os.W_OK):
                raise ConfigurationError(
                    f"store directory {parent} is not writable")

    def _load(self) -> None:
        text = self.path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                key = rec["key"]
                payload = rec["payload"]
            except (json.JSONDecodeError, KeyError, TypeError):
                if i == len(lines) - 1 and not text.endswith("\n"):
                    # Torn final append (crash mid-write): that one result
                    # is lost and will be recomputed; everything before it
                    # is intact.
                    self.metrics.counter("store.corrupt_lines").inc()
                    continue
                raise ExecutionError(
                    f"{self.path}:{i + 1}: corrupt store line (not a "
                    f"{STORE_SCHEMA} record); move the file aside or "
                    "restart without --store") from None
            self._index[key] = payload

    # -- the surface ---------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def items(self) -> "list[tuple[str, dict[str, Any]]]":
        """``(key, payload)`` pairs in append order (``repro store ls``);
        uncounted — inspection is not cache traffic."""
        return list(self._index.items())

    def get(self, key: str) -> Optional[dict[str, Any]]:
        """The payload stored under ``key``; counts a hit or a miss."""
        payload = self._index.get(key)
        if payload is None:
            self.metrics.counter("store.misses").inc()
            return None
        self.metrics.counter("store.hits").inc()
        return payload

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Durably append ``key -> payload`` (fsync per record).

        The whole record goes down in one ``os.write`` on an
        ``O_APPEND`` descriptor, so concurrent appends from separate
        processes (two campaigns sharing a store, a service restarting
        over a live file) land as whole lines instead of interleaving —
        POSIX serializes each append write at the file offset.  Pinned
        by ``tests/runtime/test_store_concurrent.py``.
        """
        line = json.dumps(
            {"schema": STORE_SCHEMA, "key": key, "payload": payload},
            separators=(",", ":"))
        data = (line + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        try:
            while data:
                data = data[os.write(fd, data):]
            os.fsync(fd)
        finally:
            os.close(fd)
        self._index[key] = dict(payload)
        self.metrics.counter("store.puts").inc()

    def stats(self) -> dict[str, float]:
        """Flat counter view (``store.hits`` / ``.misses`` / ``.puts``)."""
        return dict(self.metrics.snapshot().counters)


def resumable_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    keys: Sequence[str],
    *,
    encode: Callable[[R], Mapping[str, Any]],
    decode: Callable[[dict[str, Any], int, T], R],
    store: Optional[ResultStore] = None,
    resume: bool = False,
    executor: Optional[SupervisedExecutor] = None,
    on_result: Optional[Callable[[int, R, bool], None]] = None,
) -> list[R]:
    """``[fn(x) for x in items]`` with content-addressed checkpointing.

    ``keys[i]`` is the content address of ``items[i]``.  With ``resume``,
    stored keys are served from ``store`` via ``decode(payload, i, item)``
    without executing; fresh results are checkpointed via ``encode`` the
    moment they land (completion order), so an interruption at any point
    loses at most the tasks still in flight.  Results come back in item
    order either way — and, because every task is a pure function of its
    item, a resumed map returns exactly what an uninterrupted one would.

    ``on_result(index, value, cached)`` fires once per item as it lands:
    at load for cache hits (``cached=True``), in completion order for
    fresh results — the hook live progress reporting plugs into.
    """
    if len(keys) != len(items):
        raise ConfigurationError(
            f"got {len(keys)} keys for {len(items)} items")
    if resume and store is None:
        raise ConfigurationError("resume requires a result store")
    results: dict[int, R] = {}
    todo: list[int] = []
    for i, key in enumerate(keys):
        payload = store.get(key) if (resume and store is not None) else None
        if payload is not None:
            results[i] = decode(payload, i, items[i])
            if on_result is not None:
                on_result(i, results[i], True)
        else:
            todo.append(i)

    def checkpoint(pos: int, value: R) -> None:
        index = todo[pos]
        results[index] = value
        if store is not None:
            store.put(keys[index], dict(encode(value)))
        if on_result is not None:
            on_result(index, value, False)

    executor = executor or SupervisedExecutor(workers=1)
    executor.map(fn, [items[i] for i in todo], on_result=checkpoint)
    return [results[i] for i in range(len(items))]
