"""Regenerate ``pins.json``: the digest of every pooled input's output.

Run from the repository root::

    python3 perfbench/pin.py

Every pooled run is executed locally with ``repro.run()`` and must pass
all its verdicts; every pooled campaign is run cold in full, serially,
and must pass.  Re-pin only when a change to the program is meant to
change what it computes.
"""

from __future__ import annotations

import json
import sys

import bootstrap

bootstrap.import_repro()

import repro  # noqa: E402
from repro import chaos  # noqa: E402
from repro.runtime.executor import SupervisedExecutor  # noqa: E402

import pool  # noqa: E402
import verify  # noqa: E402


def _pin_run(task: "tuple[str, int]") -> "tuple[str, list[str]]":
    name, index = task
    result = repro.run(pool.POOLS[name][2](index))
    return verify.payload_digest(result), verify.verdict_failures(result)


def _pin_campaign(index: int) -> "tuple[str, list[str]]":
    campaign = chaos.run_campaign(pool.campaign_config(index))
    failures = [f for v in campaign.verdicts for f in v.failures]
    return verify.campaign_digest(campaign), failures


def main() -> int:
    executor = SupervisedExecutor(workers=2)
    pins: dict[str, list[str]] = {}
    bad = 0
    for name, (size, _, _) in pool.POOLS.items():
        if name == "campaign_resume":
            out = executor.map(_pin_campaign, range(size))
        else:
            out = executor.map(_pin_run, [(name, i) for i in range(size)])
        for index, (_, failures) in enumerate(out):
            if failures:
                bad += 1
                print(f"{name}[{index}] fails: {', '.join(failures)}",
                      file=sys.stderr)
        pins[name] = [digest for digest, _ in out]
        print(f"pinned {name}: {size} entries", file=sys.stderr)
    if bad:
        print(f"{bad} pooled input(s) fail their verdicts; nothing written",
              file=sys.stderr)
        return 1
    verify.PINS_PATH.write_text(json.dumps(pins, indent=0) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
