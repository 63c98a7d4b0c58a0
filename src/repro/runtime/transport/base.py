"""The Transport contract: delivery, registration, accounting, reset.

This module holds everything the runtime's two message transports — the
in-process :class:`~repro.runtime.network.SimNetwork` simulation and the
per-process TCP backend in :mod:`repro.runtime.transport.tcp` — share:

* the :class:`Message` envelope (kind, src, dst, payload, data labels,
  idempotency key, channel sequence number);
* the :class:`CostModel` and the Table 1 accounting core (message
  counts, the simulated clock, check/hash charges, flow/audit/message
  logs, fault events, the quarantine blacklist);
* the fail-closed error taxonomy (:class:`DeliveryTimeoutError`,
  :class:`SecurityAbort`), each carrying (channel, src, dst, seq,
  msg-kind) context so a serve-mode operator can attribute a failure
  to a specific exchange;
* the abstract delivery surface a :class:`~repro.runtime.host.
  TrustedHost` programs against: ``request`` (synchronous round trip),
  ``one_way`` (single acknowledged message), ``post`` (queue a control
  transfer), ``pop_control`` (the session loop's feed), ``register``
  (handler + crash/restart hooks).

The accounting lives in the base class on purpose: the simulated and
the TCP backend must charge identically — a ``getField`` costs two
messages and two one-way latencies on both — or the distributed run's
observables drift from the Table 1 oracle.  In the TCP backend each
host process accounts only what it locally sends and validates; because
the partitioned program has a single thread of control, summing the
per-host subtotals reproduces the global simulated clock exactly.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

#: Message kinds that transfer control (one message each).
CONTROL_KINDS = ("rgoto", "lgoto")
#: Message kinds that are request/reply round trips (two messages each).
ROUNDTRIP_KINDS = ("getField", "setField", "forward", "sync")


class CostModel:
    """Simulated-time costs, calibrated to the Section 7.2 testbed."""

    def __init__(
        self,
        one_way_latency: float = 320e-6,
        check_cost: float = 5e-6,
        hash_cost: float = 100e-6,
        op_cost: float = 1e-6,
    ) -> None:
        #: one-way application-to-application latency over SSL (the paper
        #: measured a ≥640 µs round trip for a null RMI call over SSL).
        self.one_way_latency = one_way_latency
        #: validating one incoming request (access control, digest).
        self.check_cost = check_cost
        #: hashing a capability token (MD5 in the paper).
        self.hash_cost = hash_cost
        #: executing one local operation.
        self.op_cost = op_cost


class Message:
    """One network message."""

    __slots__ = ("kind", "src", "dst", "payload", "data_labels", "msg_id",
                 "seq")

    def __init__(
        self,
        kind: str,
        src: str,
        dst: str,
        payload: Dict[str, Any],
        data_labels: Optional[List] = None,
        msg_id: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload = payload
        #: labels of confidential data carried (for instrumentation).
        self.data_labels = data_labels or []
        #: idempotency key: retransmissions and duplicates share it, so
        #: receivers can suppress re-execution (None on reliable nets).
        self.msg_id = msg_id
        #: per-(src, dst) channel sequence number.
        self.seq = seq

    def __repr__(self) -> str:
        return f"Message({self.kind} {self.src}->{self.dst})"


class DeliveryTimeoutError(RuntimeError):
    """A message exhausted its retry budget: the run fails closed.

    Carries (channel, src, dst, seq, msg-kind) context so a serve-mode
    operator can attribute the failure to a specific exchange.
    """

    def __init__(self, message: Message, attempts: int) -> None:
        super().__init__(
            f"{message.kind} {message.src}->{message.dst} undeliverable "
            f"after {attempts} attempts "
            f"(channel {message.src}->{message.dst}, seq {message.seq}, "
            f"msg #{message.msg_id}, kind {message.kind}); failing closed"
        )
        self.message_kind = message.kind
        self.src = message.src
        self.dst = message.dst
        self.channel = (message.src, message.dst)
        self.seq = message.seq
        self.msg_id = message.msg_id
        self.attempts = attempts


class SecurityAbort(RuntimeError):
    """A detected protocol violation terminated the run fail-closed.

    Raised by the quarantine layer (Section 3.2's threat model: a bad
    host gains nothing, and good hosts stop talking to it) instead of
    letting a rejected request silently stall the session.  Carries
    the offending host (``None`` when the violation is local, e.g.
    tampered stable storage discovered during recovery), the host that
    detected it, and — when the violation is tied to a specific
    message — the (channel, src, dst, seq, msg-kind) of that exchange.
    """

    def __init__(
        self,
        offender: Optional[str],
        victim: Optional[str],
        why: str,
        message: Optional[Message] = None,
    ) -> None:
        detail = (
            f"security abort ({offender or 'local'} vs {victim or '?'}): "
            f"{why}"
        )
        if message is not None:
            self.channel: Optional[Tuple[str, str]] = (
                message.src, message.dst
            )
            self.src: Optional[str] = message.src
            self.dst: Optional[str] = message.dst
            self.seq: Optional[int] = message.seq
            self.msg_kind: Optional[str] = message.kind
            detail += (
                f" [channel {message.src}->{message.dst}, "
                f"seq {message.seq}, kind {message.kind}]"
            )
        else:
            self.channel = None
            self.src = None
            self.dst = None
            self.seq = None
            self.msg_kind = None
        super().__init__(detail)
        self.offender = offender
        self.victim = victim
        self.why = why


class Transport:
    """Shared transport core: accounting, quarantine, events, queues.

    Subclasses implement actual delivery (:meth:`request`,
    :meth:`one_way`, :meth:`post`, :meth:`register`); everything a
    backend must account identically lives here so the Table 1
    observables cannot depend on which wire carried the messages.
    """

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost = cost_model or CostModel()
        self.clock = 0.0
        #: time spent validating incoming requests (Section 7.3).
        self.check_time = 0.0
        #: time spent hashing tokens (Section 7.3).
        self.hash_time = 0.0
        self.counts: Counter = Counter()
        self.eliminated_roundtrips = 0
        self.message_log: List[Message] = []
        self.audit_log: List[str] = []
        #: (label, host) pairs: data with this label became visible to host.
        self.flow_log: List = []
        #: fault injector; ``None`` on backends (or runs) without one.
        #: Hosts consult this to decide whether to materialize durable
        #: stores, so every Transport exposes it.
        self.faults = None
        #: (kind, src, dst, detail) tuples for drop/retry/crash/restart/...
        self.fault_events: List[Tuple[str, Optional[str], Optional[str], str]] = []
        self.fault_counts: Counter = Counter()
        self._listeners: List[Callable[..., None]] = []
        self._msg_ids = itertools.count(1)
        self._seq: Counter = Counter()
        self._queue: Deque[Message] = deque()
        #: quarantine layer: off by default (rejected requests are
        #: silently ignored, the paper's Figure 6 behaviour).  When on,
        #: a rejected *remote* request raises :class:`SecurityAbort` and
        #: blacklists the offender.
        self.quarantine_enabled = False
        self.quarantined: set = set()

    # -- delivery contract (backend-specific) ----------------------------------

    def register(
        self,
        host: str,
        handler: Callable[[Message], Any],
        on_crash: Optional[Callable[[], None]] = None,
        on_restart: Optional[Callable[[], None]] = None,
    ) -> None:
        raise NotImplementedError

    def request(self, message: Message) -> Any:
        """A request/reply exchange (getField, setField, forward, sync).

        Counts two messages (the paper's "×2" rows), except local calls,
        which never touch the network.
        """
        raise NotImplementedError

    def one_way(self, message: Message, messages: int = 1) -> Any:
        """A one-message exchange (asynchronous forward at opt level 2)."""
        raise NotImplementedError

    def post(self, message: Message) -> None:
        """Queue a control transfer (rgoto/lgoto) for the session loop."""
        raise NotImplementedError

    # -- control queue ---------------------------------------------------------

    def pop_control(self) -> Optional[Message]:
        return self._queue.popleft() if self._queue else None

    @property
    def pending_control(self) -> int:
        return len(self._queue)

    # -- reset-in-place --------------------------------------------------------

    def reset_run_state(self) -> None:
        """Clear every piece of shared per-run state: clock, counts,
        logs, channel sequence numbers, the idempotency-key counter, the
        control queue, fault events, event listeners, and the
        quarantine set.  Also uninstalls any
        instance-level ``_account`` override (the tracer patches one
        in), so a previously traced session stops tracing when recycled.
        """
        self.clock = 0.0
        self.check_time = 0.0
        self.hash_time = 0.0
        self.counts.clear()
        self.eliminated_roundtrips = 0
        self.message_log.clear()
        self.audit_log.clear()
        self.flow_log.clear()
        self.fault_events.clear()
        self.fault_counts.clear()
        self._listeners.clear()
        self._msg_ids = itertools.count(1)
        self._seq.clear()
        self._queue.clear()
        self.quarantine_enabled = False
        self.quarantined.clear()
        self.__dict__.pop("_account", None)

    # -- accounting helpers ------------------------------------------------------

    def _account(self, message: Message, messages: int) -> None:
        self.counts[message.kind] += 1
        self.counts["messages"] += messages
        if message.src != message.dst:
            self.clock += messages * self.cost.one_way_latency
        self.message_log.append(message)

    def charge_check(self) -> None:
        self.clock += self.cost.check_cost
        self.check_time += self.cost.check_cost

    def charge_hash(self) -> None:
        self.clock += self.cost.hash_cost
        self.hash_time += self.cost.hash_cost

    def charge_ops(self, count: int) -> None:
        self.clock += count * self.cost.op_cost

    def note_eliminated(self, count: int) -> None:
        self.eliminated_roundtrips += count

    def audit(self, host: str, why: str) -> None:
        self.audit_log.append(f"{host}: {why}")

    def flow(self, label, host: str) -> None:
        """Record that data labeled ``label`` became visible to ``host``."""
        self.flow_log.append((label, host))

    # -- quarantine --------------------------------------------------------------

    def quarantine(
        self,
        offender: str,
        victim: str,
        why: str,
        message: Optional[Message] = None,
    ) -> None:
        """Blacklist ``offender`` and unwind the run with
        :class:`SecurityAbort` (only called when ``quarantine_enabled``).
        ``message`` (when the violation is tied to one) stamps the
        abort with its channel/seq/kind context."""
        self.audit(victim, f"quarantining {offender}: {why}")
        self._emit("quarantine", offender, victim, why)
        self.quarantined.add(offender)
        raise SecurityAbort(offender, victim, why, message=message)

    def _check_quarantine(self, message: Message) -> None:
        if self.quarantine_enabled and message.src in self.quarantined:
            raise SecurityAbort(
                message.src,
                message.dst,
                f"{message.kind} refused: {message.src} is quarantined",
                message=message,
            )

    # -- fault events ------------------------------------------------------------

    def on_event(self, callback: Callable[..., None]) -> None:
        """Subscribe to fault events: callback(kind, src, dst, detail)."""
        self._listeners.append(callback)

    def _emit(
        self, kind: str, src: Optional[str], dst: Optional[str], detail: str
    ) -> None:
        self.fault_events.append((kind, src, dst, detail))
        self.fault_counts[kind] += 1
        for callback in self._listeners:
            callback(kind, src, dst, detail)

    def _stamp(self, message: Message) -> None:
        """Assign the idempotency key and channel sequence number."""
        if message.msg_id is None:
            message.msg_id = next(self._msg_ids)
            channel = (message.src, message.dst)
            self._seq[channel] += 1
            message.seq = self._seq[channel]

    # -- reporting ------------------------------------------------------------------

    def table_counts(self) -> Dict[str, int]:
        """The Table 1 accounting: round-trip kinds reported singly
        (each costs two messages), control kinds as message counts."""
        return {
            "forward": self.counts.get("forward", 0),
            "getField": self.counts.get("getField", 0),
            "setField": self.counts.get("setField", 0),
            "sync": self.counts.get("sync", 0),
            "lgoto": self.counts.get("lgoto", 0),
            "rgoto": self.counts.get("rgoto", 0),
            "total_messages": self.counts.get("messages", 0),
            "eliminated": self.eliminated_roundtrips,
        }
