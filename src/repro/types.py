"""Common value types shared across the library.

The paper (Section 4, "Technical Framework") posits a finite set of
processes ``Π``, a discrete global clock ``T`` inaccessible to processes,
and diners that cycle through four phases.  This module pins down the
concrete Python representations used everywhere else:

* :data:`ProcessId` — opaque process names (strings such as ``"p"``, ``"n3"``).
* :data:`Time` — virtual time measured by the simulator's global clock.
* :class:`DinerState` — the four dining phases of Section 4.
* :class:`Message` — the envelope carried by :mod:`repro.sim.network`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping

#: Name of a process in the system Π.  Kept as ``str`` so traces read well.
ProcessId = str

#: Virtual time of the simulator's discrete global clock.  The clock is a
#: conceptual device per the paper: algorithm code never reads it; only the
#: engine, delay models, and trace checkers do.
Time = float


class DinerState(enum.Enum):
    """The four phases of a diner (paper Section 4, "Dining")."""

    THINKING = "thinking"
    HUNGRY = "hungry"
    EATING = "eating"
    EXITING = "exiting"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Diner phases in their canonical cycle order.
DINER_CYCLE = (
    DinerState.THINKING,
    DinerState.HUNGRY,
    DinerState.EATING,
    DinerState.EXITING,
)

_msg_counter = itertools.count()
_MISSING: Any = object()


@dataclass(frozen=True, slots=True)
class Message:
    """An immutable message envelope.

    ``tag`` routes the message to a component within the receiving process
    (e.g. ``("DX0:p->q", "fork")``); ``payload`` carries algorithm data.
    ``uid`` makes every message distinct so non-FIFO delivery and duplicate
    detection are testable.
    """

    sender: ProcessId
    receiver: ProcessId
    tag: str
    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    uid: int = field(default_factory=lambda: next(_msg_counter))

    # One is built per send, so the generated frozen __init__ (a
    # object.__setattr__ call per field, a factory call per default) is
    # replaced by direct slot writes.  The defaults are the field
    # defaults above: a fresh dict, and the next counter value.
    def __init__(self, sender: ProcessId, receiver: ProcessId, tag: str,
                 kind: str, payload: Mapping[str, Any] = _MISSING,
                 uid: int = _MISSING) -> None:
        _set_sender(self, sender)
        _set_receiver(self, receiver)
        _set_tag(self, tag)
        _set_kind(self, kind)
        _set_payload(self, {} if payload is _MISSING else payload)
        _set_uid(self, next(_msg_counter) if uid is _MISSING else uid)

    def matches(self, tag: str, kind: str | None = None) -> bool:
        """Return True when this message is addressed to ``tag`` (and ``kind``)."""
        if self.tag != tag:
            return False
        return kind is None or self.kind == kind

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message({self.sender}->{self.receiver} {self.tag}/{self.kind}"
            f" #{self.uid})"
        )


# Slot writers that bypass the frozen __setattr__ (used by Message.__init__).
_set_sender = Message.sender.__set__
_set_receiver = Message.receiver.__set__
_set_tag = Message.tag.__set__
_set_kind = Message.kind.__set__
_set_payload = Message.payload.__set__
_set_uid = Message.uid.__set__
