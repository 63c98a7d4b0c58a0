"""The simulated network connecting the hosts of a split program.

Models the environment of Section 3.1: reliable, in-order, pairwise
channels that outsiders cannot intercept (we simply never deliver a
message to anyone but its addressee; SSL's cost shows up in the latency
model).  The network also keeps the books the evaluation needs:

* message counts by kind (Table 1's rows);
* eliminated data-forward round trips (Table 1's last row);
* a simulated clock driven by a configurable cost model calibrated to
  the paper's testbed (310 µs LAN ping, ≥640 µs SSL round trip);
* a complete message log for the security-assurance instrumentation
  (tests assert no message ever carries data to a host whose
  confidentiality label cannot hold it).

With a :class:`~repro.runtime.faults.FaultInjector` attached, the
channels stop being reliable: messages may be dropped, duplicated,
reordered, delayed, and hosts may crash and restart.  The network then
runs a reliable-delivery protocol on top — per-channel sequence
numbers and per-message idempotency keys, ack/retry with exponential
backoff, receiver-side duplicate suppression — whose retransmissions
show up in the message counts and the simulated clock.  A message that
cannot be delivered within the retry budget raises
:class:`DeliveryTimeoutError`: the run fails closed, never answers
wrong.  With no injector attached every code path, count, and clock
charge is exactly the fault-free Section 3.1 model.

:class:`SimNetwork` is the default implementation of the pluggable
:class:`~repro.runtime.transport.base.Transport` contract; the message
envelope, cost model, accounting core, and fail-closed error taxonomy
live in :mod:`repro.runtime.transport.base` (re-exported here under
their historical names) so the real TCP backend in
:mod:`repro.runtime.transport.tcp` charges bit-identically.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .faults import FaultInjector, RetryPolicy
from .transport.base import (
    CONTROL_KINDS,
    ROUNDTRIP_KINDS,
    CostModel,
    DeliveryTimeoutError,
    Message,
    SecurityAbort,
    Transport,
)

__all__ = [
    "CONTROL_KINDS",
    "ROUNDTRIP_KINDS",
    "CostModel",
    "DeliveryTimeoutError",
    "Message",
    "SecurityAbort",
    "SimNetwork",
    "Transport",
]


class SimNetwork(Transport):
    """Message transport, accounting, and the control-message queue."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(cost_model)
        #: fault injector; None restores the reliable Section 3.1 channels.
        self.faults = faults
        self.retry = retry or RetryPolicy()
        self._handlers: Dict[str, Callable[[Message], Any]] = {}
        #: host -> (on_crash, on_restart) hooks that wipe a crashed
        #: host's state and drive its recovery.
        self._crash_hooks: Dict[
            str, Tuple[Optional[Callable[[], None]], Optional[Callable[[], None]]]
        ] = {}

    def reset(
        self,
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        """Reset-in-place to a freshly constructed network.

        Host registrations (handlers, crash hooks) survive — they are
        session wiring, not run state — while every piece of per-run
        accounting is cleared: clock, counts, logs, channel sequence
        numbers, idempotency-key counter, the control queue, fault
        events, event listeners, and the quarantine set.  Also
        uninstalls any instance-level ``_account`` override (the tracer
        patches one in), so a previously traced session stops tracing
        when recycled.
        """
        self.reset_run_state()
        self.faults = faults
        self.retry = retry or RetryPolicy()

    # -- host registration -----------------------------------------------------

    def register(
        self,
        host: str,
        handler: Callable[[Message], Any],
        on_crash: Optional[Callable[[], None]] = None,
        on_restart: Optional[Callable[[], None]] = None,
    ) -> None:
        self._handlers[host] = handler
        if on_crash is not None or on_restart is not None:
            self._crash_hooks[host] = (on_crash, on_restart)

    @property
    def hosts(self) -> List[str]:
        return list(self._handlers)

    # -- synchronous round trips ----------------------------------------------------

    def request(self, message: Message) -> Any:
        """A request/reply exchange (getField, setField, forward, sync).

        Counts two messages (the paper's "×2" rows), except local calls,
        which never touch the network.
        """
        handler = self._handlers.get(message.dst)
        if handler is None:
            raise KeyError(f"unknown host {message.dst!r}")
        if message.src == message.dst:
            return handler(message)
        self._check_quarantine(message)
        if self.faults is None:
            self._account(message, messages=2)
            return handler(message)
        return self._deliver_reliably(message, handler, roundtrip=True)

    def one_way(self, message: Message, messages: int = 1) -> Any:
        """A one-message exchange (asynchronous forward at opt level 2)."""
        handler = self._handlers.get(message.dst)
        if handler is None:
            raise KeyError(f"unknown host {message.dst!r}")
        if message.src == message.dst:
            return handler(message)
        self._check_quarantine(message)
        if self.faults is None:
            self._account(message, messages=messages)
            return handler(message)
        # Under faults even "unacknowledged" sends ride the reliable
        # layer: without an ack there is no way to mask a loss.
        return self._deliver_reliably(message, handler, roundtrip=False)

    def _deliver_reliably(
        self, message: Message, handler: Callable[[Message], Any], roundtrip: bool
    ) -> Any:
        """Ack/retry loop for a synchronous exchange under faults."""
        self._stamp(message)
        attempt = 0
        waited = 0.0
        while True:
            delivered, result = self._try_deliver(message, handler, roundtrip)
            if delivered:
                return result
            # The ack never came: wait out the retransmission timer.
            timer = self.retry.timeout(attempt)
            self.clock += timer
            waited += timer
            attempt += 1
            if attempt > self.retry.max_retries or self.retry.past_deadline(
                waited
            ):
                self._emit(
                    "timeout", message.src, message.dst,
                    f"{message.kind} #{message.msg_id} gave up after "
                    f"{attempt} attempts ({waited:.3f}s of timers)",
                )
                raise DeliveryTimeoutError(message, attempt)
            self._emit(
                "retry", message.src, message.dst,
                f"{message.kind} #{message.msg_id} attempt {attempt + 1}",
            )

    def _host_crashed(self, message: Message) -> None:
        """Bookkeeping for a crash at receipt of ``message``: the
        destination's volatile state is wiped on the spot."""
        dst = message.dst
        self._account(message, messages=1)
        self._emit(
            "crash", None, dst,
            f"{dst} crashed on receipt of {message.kind} "
            f"#{message.msg_id}",
        )
        hooks = self._crash_hooks.get(dst)
        if hooks is not None and hooks[0] is not None:
            hooks[0]()

    def _host_restarted(self, dst: str) -> None:
        """Bookkeeping for a restart: the host runs its recovery
        protocol (checkpoint + WAL replay + announcement) before the
        pending delivery proceeds."""
        self._emit("restart", None, dst, f"{dst} back up")
        hooks = self._crash_hooks.get(dst)
        if hooks is not None and hooks[1] is not None:
            hooks[1]()

    def _try_deliver(
        self, message: Message, handler: Callable[[Message], Any], roundtrip: bool
    ) -> Tuple[bool, Any]:
        """One transmission attempt; (False, None) means 'no ack'."""
        faults = self.faults
        dst = message.dst
        if faults.check_restart(dst, self.clock):
            self._host_restarted(dst)
        if faults.is_down(dst, self.clock):
            self._account(message, messages=1)
            self._emit(
                "drop", message.src, dst,
                f"{message.kind} #{message.msg_id}: {dst} is down",
            )
            return False, None
        if faults.maybe_crash(dst, self.clock, message.kind):
            self._host_crashed(message)
            return False, None
        if faults.should_drop():
            self._account(message, messages=1)
            self._emit(
                "drop", message.src, dst,
                f"{message.kind} #{message.msg_id} lost in transit",
            )
            return False, None
        self.clock += faults.jitter()
        if roundtrip and faults.should_drop():
            # The request arrived and was processed, but the reply was
            # lost: the receiver's duplicate suppression makes the
            # retransmission harmless.
            self._account(message, messages=2)
            handler(message)
            self._emit(
                "drop", dst, message.src,
                f"reply to {message.kind} #{message.msg_id} lost",
            )
            return False, None
        self._account(message, messages=2 if roundtrip else 1)
        result = handler(message)
        if faults.should_duplicate():
            self.counts["messages"] += 1
            self._emit(
                "duplicate", message.src, dst,
                f"{message.kind} #{message.msg_id} delivered twice",
            )
            handler(message)
        return True, result

    # -- control transfers -------------------------------------------------------

    def post(self, message: Message) -> None:
        """Queue a control transfer (rgoto/lgoto) for the session loop."""
        if message.src == message.dst:
            self._queue.append(message)
            return
        self._check_quarantine(message)
        if self.faults is None:
            self._account(message, messages=1)
            self._queue.append(message)
            return
        self._stamp(message)
        attempt = 0
        waited = 0.0
        while True:
            if self._try_post(message):
                return
            timer = self.retry.timeout(attempt)
            self.clock += timer
            waited += timer
            attempt += 1
            if attempt > self.retry.max_retries or self.retry.past_deadline(
                waited
            ):
                self._emit(
                    "timeout", message.src, message.dst,
                    f"{message.kind} #{message.msg_id} gave up after "
                    f"{attempt} attempts ({waited:.3f}s of timers)",
                )
                raise DeliveryTimeoutError(message, attempt)
            self._emit(
                "retry", message.src, message.dst,
                f"{message.kind} #{message.msg_id} attempt {attempt + 1}",
            )

    def _try_post(self, message: Message) -> bool:
        """One transmission attempt into the destination's inbox."""
        faults = self.faults
        dst = message.dst
        if faults.check_restart(dst, self.clock):
            self._host_restarted(dst)
        if faults.is_down(dst, self.clock):
            self._account(message, messages=1)
            self._emit(
                "drop", message.src, dst,
                f"{message.kind} #{message.msg_id}: {dst} is down",
            )
            return False
        if faults.maybe_crash(dst, self.clock, message.kind):
            self._host_crashed(message)
            return False
        if faults.should_drop():
            self._account(message, messages=1)
            self._emit(
                "drop", message.src, dst,
                f"{message.kind} #{message.msg_id} lost in transit",
            )
            return False
        self.clock += faults.jitter()
        self._account(message, messages=1)
        self._enqueue(message)
        if faults.should_duplicate():
            self.counts["messages"] += 1
            self._emit(
                "duplicate", message.src, dst,
                f"{message.kind} #{message.msg_id} delivered twice",
            )
            self._enqueue(message)
        return True

    def _enqueue(self, message: Message) -> None:
        slot = self.faults.reorder_slot(len(self._queue))
        if slot is None:
            self._queue.append(message)
        else:
            self._emit(
                "reorder", message.src, message.dst,
                f"{message.kind} #{message.msg_id} inserted at slot {slot}",
            )
            self._queue.insert(slot, message)
