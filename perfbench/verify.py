"""Output checks shared by the benchmark and the pin generator.

The encoders are bound here at import time, before the traced run wraps
the program's own names, so the benchmark's checking never shows up in
the program's ``encode`` layer.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.service.encoding import payload_bytes, result_payload

PINS_PATH = pathlib.Path(__file__).with_name("pins.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def payload_digest(result) -> str:
    """Digest of the service's canonical payload for one run result."""
    return sha256(payload_bytes(result_payload(result)))


def dict_payload_digest(payload) -> str:
    """Digest of a payload that is already a plain dict."""
    return sha256(payload_bytes(payload))


def campaign_digest(campaign) -> str:
    """Digest of a campaign's ``to_json()`` document."""
    return sha256(json.dumps(campaign.to_json(), sort_keys=True,
                             separators=(",", ":")).encode("utf-8"))


def verdict_failures(result) -> list[str]:
    """Which of the run's verdicts do not hold (empty: all hold)."""
    checks = {
        "wait_freedom": result.wait_freedom is not None
        and result.wait_freedom.ok,
        "violations_justified": result.violations_justified is True,
        "detector_accuracy": result.oracle_accuracy_ok is True,
        "detector_completeness": result.oracle_completeness_ok is True,
    }
    return [name for name, ok in checks.items() if not ok]


def load_pins() -> dict[str, list[str]]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))
