"""Execution tracing: an event log of a distributed run.

Attach a :class:`Tracer` to a :class:`~repro.runtime.session.Session`
and every fragment execution and control transfer is recorded — enough
to replay the Figure 4 walkthrough ("T sync's e2 ... passes t1 to e5 on
B via rgoto; there, Bob's host computes n and returns control via
lgoto") as a checked sequence of events.

Under fault injection the timeline also carries the reliability layer's
events: ``drop``, ``retry``, ``duplicate``, ``reorder``, ``crash``,
``restart``, and ``timeout``, interleaved with the messages whose
delivery they perturbed.  The crash-recovery subsystem adds
``checkpoint`` (a host sealed its durable state), ``recover`` (a
restarted host replayed its checkpoint + WAL and announced itself), and
``quarantine`` (a detected protocol violation blacklisted the
offender).
"""

from __future__ import annotations

from typing import List, Optional

from .network import SimNetwork
from .session import RuntimeImage, Session


class TraceEvent:
    """One observed event: a control message or a fragment execution."""

    __slots__ = ("kind", "src", "dst", "entry", "detail")

    def __init__(
        self,
        kind: str,
        src: Optional[str],
        dst: Optional[str],
        entry: Optional[str] = None,
        detail: str = "",
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.entry = entry
        self.detail = detail

    def __repr__(self) -> str:
        route = f"{self.src}->{self.dst}" if self.src else self.dst
        entry = f" {self.entry}" if self.entry else ""
        return f"{self.kind} {route}{entry}"


class Tracer:
    """Wraps a network's send paths to record an event timeline."""

    def __init__(self, session: Session) -> None:
        self.events: List[TraceEvent] = []
        self._install(session.network)

    def _install(self, network: SimNetwork) -> None:
        original_account = network._account

        def traced_account(message, messages):
            self.events.append(
                TraceEvent(
                    message.kind,
                    message.src,
                    message.dst,
                    message.payload.get("entry")
                    if isinstance(message.payload, dict)
                    else None,
                )
            )
            return original_account(message, messages)

        network._account = traced_account

        def on_fault(kind, src, dst, detail):
            self.events.append(TraceEvent(kind, src, dst, detail=detail))

        network.on_event(on_fault)

    # -- queries ------------------------------------------------------------

    def kinds(self) -> List[str]:
        return [event.kind for event in self.events]

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def sequence(self) -> List[str]:
        """Compact textual form, e.g. ``rgoto A->B`` lines."""
        return [repr(event) for event in self.events]

    def first_index(self, kind: str, src: str = None, dst: str = None) -> int:
        for index, event in enumerate(self.events):
            if event.kind != kind:
                continue
            if src is not None and event.src != src:
                continue
            if dst is not None and event.dst != dst:
                continue
            return index
        return -1


def traced_run(split, opt_level: int = 1, faults=None):
    """Run a split program with tracing; returns (outcome, tracer)."""
    session = Session(
        RuntimeImage.for_split(split), opt_level=opt_level, faults=faults
    )
    tracer = Tracer(session)
    outcome = session.run()
    return outcome, tracer
