"""Transport conformance: SimNetwork and the TCP backend honor the same
reliable-delivery contract.

Both implementations of :class:`repro.runtime.transport.base.Transport`
must mask injected faults the same way the paper's runtime assumes SSL
channels behave — or fail closed:

* ack/retry masks dropped frames (the request still completes,
  retransmissions are visible in the fault events);
* duplicate deliveries are idempotent (the requester sees exactly one
  result; a receiver never re-executes a served request);
* out-of-order control transfers are delivered to the session in
  channel order (TCP holdback buffer) or tolerated by the session
  (sim reorder injection);
* a permanently dead channel raises
  :class:`~repro.runtime.network.DeliveryTimeoutError` carrying the
  (channel, src, dst, seq, msg-kind) context — never a wrong answer.
"""

import socket
import threading

import pytest

from repro.runtime.faults import FaultInjector, FaultPolicy, RetryPolicy
from repro.runtime.network import (
    DeliveryTimeoutError,
    Message,
    SimNetwork,
)
from repro.runtime.transport.tcp import (
    HostEndpoint,
    WirePolicy,
    WireRetryPolicy,
    _enc_message,
    recv_frame,
    send_frame,
)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _listener():
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(16)
    return sock


class _Pair:
    """Two endpoints A/B in one process; B pumps on a daemon thread."""

    def __init__(self, handler_b, wire_a=None, retry_a=None):
        la, lb = _listener(), _listener()
        addr_map = {"A": la.getsockname(), "B": lb.getsockname()}
        self.a = HostEndpoint(
            "A", la, addr_map,
            retry=retry_a or WireRetryPolicy(
                base_timeout=0.2, max_retries=8, deadline=10.0
            ),
            wire=wire_a,
            msg_id_floor=1,
        )
        self.b = HostEndpoint(
            "B", lb, addr_map, msg_id_floor=10 ** 12,
        )
        self.a.register("A", lambda m: None)
        self.b.register("B", handler_b)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._pump_b, daemon=True)
        self._thread.start()

    def _pump_b(self):
        while not self._stop.is_set():
            self.b.pump(0.05)

    def close(self):
        self._stop.set()
        self._thread.join(timeout=2.0)
        self.a.close()
        self.b.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class _DropFirstSends(WirePolicy):
    """Drop the first ``n`` outbound frames, pass everything after."""

    def __init__(self, n):
        self.remaining = n
        self.dropped = 0

    def on_send(self, frame):
        if self.remaining > 0:
            self.remaining -= 1
            self.dropped += 1
            return []
        return [frame]


class _DuplicateEverything(WirePolicy):
    def on_send(self, frame):
        return [frame, frame]


class _BlackHole(WirePolicy):
    def on_send(self, frame):
        return []


def _req(kind="getField", payload=None):
    return Message(kind, "A", "B", payload or {"cls": "C", "field": "f"})


# ---------------------------------------------------------------------------
# TCP backend
# ---------------------------------------------------------------------------


class TestTcpConformance:
    def test_roundtrip_returns_remote_result(self):
        with _Pair(lambda m: {"echo": m.payload["field"]}) as pair:
            result = pair.a.request(_req())
            assert result == {"echo": "f"}
            assert pair.a.counts["getField"] == 1
            assert pair.a.counts["messages"] == 2

    def test_ack_retry_masks_dropped_frames(self):
        calls = []
        wire = _DropFirstSends(2)  # hello + first req both lost
        with _Pair(lambda m: calls.append(m.kind) or "ok",
                   wire_a=wire) as pair:
            assert pair.a.request(_req()) == "ok"
        assert wire.dropped == 2
        assert calls == ["getField"]
        retries = [e for e in pair.a.fault_events if e[0] == "retry"]
        assert retries, "retransmission must be visible in fault events"

    def test_duplicate_requests_execute_once(self):
        calls = []
        with _Pair(lambda m: calls.append(m.msg_id) or len(calls),
                   wire_a=_DuplicateEverything()) as pair:
            assert pair.a.request(_req()) == 1
            assert pair.a.request(_req()) == 2
        # Every frame went out twice; the receiver's idempotency layer
        # must collapse each pair to one execution.
        assert calls == [1, 2]

    def test_control_transfers_delivered_in_channel_order(self):
        # A fake peer writes post frames with out-of-order cseq straight
        # onto the socket; the holdback buffer must re-establish channel
        # order before the session sees them.
        listener = _listener()
        endpoint = HostEndpoint(
            "B", listener, {"B": listener.getsockname()},
        )
        endpoint.register("B", lambda m: None)
        try:
            peer = socket.create_connection(listener.getsockname())
            send_frame(peer, {"t": "hello", "from": "A"})

            def post(cseq, msg_id):
                message = Message(
                    "rgoto", "A", "B", {"n": cseq}, msg_id=msg_id, seq=cseq
                )
                send_frame(
                    peer,
                    {"t": "post", "m": _enc_message(message), "cseq": cseq},
                )

            post(2, 102)
            post(1, 101)
            post(3, 103)
            post(2, 102)  # duplicate of an already-buffered transfer
            # Pump until all three distinct transfers sit in the queue
            # (the endpoint only runs inside pump; acks buffer on the
            # peer socket meanwhile).
            for _ in range(100):
                endpoint.pump(0.05)
                if len(endpoint._queue) >= 3:
                    break
            peer.settimeout(2.0)
            for _ in range(4):  # every post was acked, duplicate included
                assert recv_frame(peer)["t"] == "ack"
            delivered = []
            while True:
                message = endpoint.pop_control()
                if message is None:
                    break
                delivered.append(message.payload["n"])
            assert delivered == [1, 2, 3]
            peer.close()
        finally:
            endpoint.close()

    def test_dead_channel_fails_closed_with_context(self):
        retry = WireRetryPolicy(
            base_timeout=0.02, max_retries=2, deadline=1.0
        )
        with _Pair(lambda m: "never", wire_a=_BlackHole(),
                   retry_a=retry) as pair:
            with pytest.raises(DeliveryTimeoutError) as info:
                pair.a.request(_req(kind="sync"))
        error = info.value
        assert error.message_kind == "sync"
        assert error.src == "A" and error.dst == "B"
        assert error.channel == ("A", "B")
        assert error.seq == 1
        assert error.attempts == retry.max_retries + 1
        assert "failing closed" in str(error)
        timeouts = [e for e in pair.a.fault_events if e[0] == "timeout"]
        assert timeouts


# ---------------------------------------------------------------------------
# SimNetwork backend
# ---------------------------------------------------------------------------


class TestSimConformance:
    def _network(self, policy, seed=7, retry=None):
        network = SimNetwork(
            faults=FaultInjector(policy, seed=seed), retry=retry
        )
        return network

    def test_ack_retry_masks_dropped_frames(self):
        network = self._network(FaultPolicy(drop_prob=0.5), seed=3)
        calls = []

        def handler(message):
            # Host-layer idempotency: a lost *reply* makes the network
            # redeliver the request, which must not re-execute.
            if message.msg_id not in calls:
                calls.append(message.msg_id)
            return "ok"

        network.register("A", lambda m: None)
        network.register("B", handler)
        assert network.request(_req()) == "ok"
        assert len(calls) == 1
        events = [e[0] for e in network.fault_events]
        assert "drop" in events
        # The retransmissions were charged: more than the fault-free
        # two messages crossed the wire.
        assert network.counts["messages"] > 2

    def test_duplicate_delivery_is_idempotent_for_the_requester(self):
        network = self._network(FaultPolicy(duplicate_prob=1.0))
        seen = set()
        results = []

        def handler(message):
            # Receiver-side idempotency (the TrustedHost layer in a
            # real session): a replayed msg_id must not re-execute.
            if message.msg_id in seen:
                return "replay"
            seen.add(message.msg_id)
            results.append(message.msg_id)
            return len(results)

        network.register("A", lambda m: None)
        network.register("B", handler)
        assert network.request(_req()) == 1
        assert network.request(_req()) == 2
        assert len(results) == 2
        assert any(e[0] == "duplicate" for e in network.fault_events)

    def test_reordered_control_transfers_all_arrive_exactly_once(self):
        network = self._network(FaultPolicy(reorder_prob=1.0), seed=11)
        network.register("A", lambda m: None)
        network.register("B", lambda m: None)
        for n in (1, 2, 3, 4):
            network.post(Message("rgoto", "A", "B", {"n": n}))
        delivered = []
        while True:
            message = network.pop_control()
            if message is None:
                break
            delivered.append(message.payload["n"])
        assert sorted(delivered) == [1, 2, 3, 4]
        assert any(e[0] == "reorder" for e in network.fault_events)

    def test_dead_channel_fails_closed_with_context(self):
        retry = RetryPolicy(base_timeout=1e-3, max_retries=2)
        network = self._network(FaultPolicy(drop_prob=1.0), retry=retry)
        network.register("A", lambda m: None)
        network.register("B", lambda m: "never")
        with pytest.raises(DeliveryTimeoutError) as info:
            network.request(_req(kind="sync"))
        error = info.value
        assert error.message_kind == "sync"
        assert error.src == "A" and error.dst == "B"
        assert error.channel == ("A", "B")
        assert error.seq == 1
        assert error.attempts == retry.max_retries + 1
        assert "failing closed" in str(error)
