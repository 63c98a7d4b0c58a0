"""Transport conformance: SimNetwork and the TCP backend honor the same
reliable-delivery contract.

Both implementations of :class:`repro.runtime.transport.base.Transport`
run the one ack/retry loop and must mask injected faults the same way
the paper's runtime assumes SSL channels behave — or fail closed.
:class:`DeliveryContract` states it once; :class:`TestSimConformance`
and :class:`TestTcpConformance` run it on each backend:

* ack/retry masks dropped frames (the request still completes,
  retransmissions are visible in the fault events);
* duplicate deliveries reach the receiver, whose idempotency table —
  keyed by ``(src, msg_id)`` — answers them without re-executing, so
  the requester sees exactly one result per request;
* a permanently dead channel raises
  :class:`~repro.runtime.network.DeliveryTimeoutError` carrying the
  (channel, src, dst, seq, msg-kind) context — never a wrong answer.

Out-of-order control transfers are delivered to the session in channel
order (TCP holdback buffer) or tolerated by the session (sim reorder
injection).  The TCP half also drives a real
:class:`~repro.runtime.host.TrustedHost` through the wire: a served
``msg_id`` is never answered to another sender, and a duplicated
``sync`` mints one token.
"""

import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.runtime.faults import FaultInjector, FaultPolicy, RetryPolicy
from repro.runtime.host import TrustedHost
from repro.runtime.network import (
    DeliveryTimeoutError,
    Message,
    SimNetwork,
)
from repro.runtime.session import RuntimeImage
from repro.runtime.storage import codec
from repro.runtime.tokens import Token
from repro.runtime.transport.tcp import (
    HostEndpoint,
    WirePolicy,
    recv_frame,
    send_frame,
)
from repro.runtime.values import FrameID
from repro.splitter import split_source

from tests.programs import OT_SOURCE, config_abt


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _listener():
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(16)
    return sock


class _Pair:
    """Two endpoints A/``b`` in one process; ``b`` pumps on a daemon
    thread.  With ``handler_b=None`` the caller registers the handler
    (a TrustedHost built on ``pair.b`` registers itself)."""

    def __init__(self, handler_b, wire_a=None, retry_a=None, b="B"):
        la, lb = _listener(), _listener()
        addr_map = {"A": la.getsockname(), b: lb.getsockname()}
        self.a = HostEndpoint(
            "A", la, addr_map,
            retry=retry_a or RetryPolicy(
                base_timeout=0.2, max_retries=8, deadline=10.0
            ),
            wire=wire_a,
            msg_id_floor=1,
        )
        self.b = HostEndpoint(
            b, lb, addr_map, msg_id_floor=10 ** 12,
        )
        self.a.register("A", lambda m: None)
        if handler_b is not None:
            self.b.register(b, handler_b)
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

    def on_send(self, frame):
        if self.remaining > 0:
            self.remaining -= 1
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


class _IdempotentReceiver:
    """A receiver with the hosts' duplicate suppression: the first
    delivery of each ``(src, msg_id)`` runs ``effect``, every later one
    is answered from the table."""

    def __init__(self, effect):
        self.effect = effect
        self.table = {}
        self.deliveries = 0

    def __call__(self, message):
        self.deliveries += 1
        key = (message.src, message.msg_id)
        if key not in self.table:
            self.table[key] = self.effect(message)
        return self.table[key]

    @property
    def executions(self):
        return len(self.table)


def _wait_for(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


# ---------------------------------------------------------------------------
# the contract, stated once
# ---------------------------------------------------------------------------


class DeliveryContract:
    """What every backend's reliable delivery guarantees.  A subclass
    supplies :meth:`backend`: a context manager yielding the requester
    ``A``'s transport wired to ``handler`` on ``B`` under one scripted
    fault — ``"drop"`` (some transmissions lost), ``"duplicate"``
    (every transmission delivered twice) or ``"dead"`` (nothing gets
    through, two retries allowed)."""

    def backend(self, handler, fault):
        raise NotImplementedError

    def test_ack_retry_masks_dropped_frames(self):
        receiver = _IdempotentReceiver(lambda m: "ok")
        with self.backend(receiver, "drop") as requester:
            assert requester.request(_req()) == "ok"
        assert receiver.executions == 1
        retries = [e for e in requester.fault_events if e[0] == "retry"]
        assert retries, "retransmission must be visible in fault events"

    def test_duplicate_delivery_is_idempotent_for_the_requester(self):
        executed = []
        receiver = _IdempotentReceiver(
            lambda m: executed.append(m.msg_id) or len(executed)
        )
        with self.backend(receiver, "duplicate") as requester:
            assert requester.request(_req()) == 1
            assert requester.request(_req()) == 2
        # The duplicates reached the receiver (the transport does not
        # deduplicate); its table collapsed each pair to one execution.
        assert receiver.deliveries >= 3
        assert len(executed) == 2

    def test_dead_channel_fails_closed_with_context(self):
        with self.backend(lambda m: "never", "dead") as requester:
            with pytest.raises(DeliveryTimeoutError) as info:
                requester.request(_req(kind="sync"))
        error = info.value
        assert error.message_kind == "sync"
        assert error.src == "A" and error.dst == "B"
        assert error.channel == ("A", "B")
        assert error.seq == 1
        assert error.attempts == requester.retry.max_retries + 1 == 3
        assert "failing closed" in str(error)
        timeouts = [e for e in requester.fault_events if e[0] == "timeout"]
        assert timeouts


def _ot_host_pair(wire_a=None):
    """A TCP pair whose ``T`` end runs OT's real TrustedHost, plus an
    entry on T that host A may sync to."""
    split = split_source(OT_SOURCE, config_abt()).split
    image = RuntimeImage.for_split(split)
    pair = _Pair(None, wire_a=wire_a, b="T")
    host = TrustedHost(
        "T", split, pair.b, image.registry, image=image.host_images["T"]
    )
    entry = next(
        fragment.entry
        for fragment in split.fragments.values()
        if fragment.host == "T" and "A" in split.entry_invokers(fragment.entry)
    )
    return split, pair, host, entry


def _sync_to_t(split, entry):
    return Message(
        "sync", "A", "T",
        {"entry": entry, "frame": FrameID(split.fragments[entry].method_key),
         "token": None, "digest": split.digest},
    )


# ---------------------------------------------------------------------------
# TCP backend
# ---------------------------------------------------------------------------


class TestTcpConformance(DeliveryContract):
    @contextmanager
    def backend(self, handler, fault):
        wire = {
            "drop": _DropFirstSends(2),
            "duplicate": _DuplicateEverything(),
            "dead": _BlackHole(),
        }[fault]
        retry = None
        if fault == "dead":
            retry = RetryPolicy(base_timeout=0.02, max_retries=2, deadline=1.0)
        with _Pair(handler, wire_a=wire, retry_a=retry) as pair:
            yield pair.a

    def test_roundtrip_returns_remote_result(self):
        with _Pair(lambda m: {"echo": m.payload["field"]}) as pair:
            result = pair.a.request(_req())
            assert result == {"echo": "f"}
            assert pair.a.counts["getField"] == 1
            assert pair.a.counts["messages"] == 2

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
                    {"t": "post", "id": msg_id, "m": codec.dumps(message),
                     "cseq": cseq},
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

    @pytest.mark.parametrize(
        "frame,answered",
        [
            ({"t": "rep", "r": "1"}, False),
            ({"t": "ack"}, False),
            ({"t": "err", "code": "internal"}, False),
            ({"t": "post", "id": 7, "cseq": "1", "m": codec.dumps(
                Message("rgoto", "A", "B", {}, msg_id=7, seq=1))}, True),
            ({"t": "post", "id": 7, "cseq": 1, "m": codec.dumps(
                Message("rgoto", "A", "B", {}, msg_id=8, seq=1))}, True),
            ({"t": "req"}, True),
            ({"t": "req", "m": "x"}, True),
            ({"t": "req", "id": 9, "m": codec.dumps(["not", "a", "message"])},
             True),
        ],
        ids=["rep-no-id", "ack-no-id", "err-no-id", "post-str-cseq",
             "post-id-mismatch", "req-no-m", "req-bad-m", "req-not-message"],
    )
    def test_malformed_fields_are_audited_and_dropped(self, frame, answered):
        """A peer's malformed frame never escapes ``pump``: it is
        audited, executes nothing, and a req/post is answered with a
        ``bad-request`` error."""
        listener = _listener()
        calls = []
        endpoint = HostEndpoint("B", listener, {"B": listener.getsockname()})
        endpoint.register("B", calls.append)
        try:
            peer = socket.create_connection(listener.getsockname())
            send_frame(peer, {"t": "hello", "from": "A"})
            send_frame(peer, frame)
            for _ in range(100):
                endpoint.pump(0.05)
                if endpoint.audit_log:
                    break
            assert len(endpoint.audit_log) == 1
            assert calls == [] and endpoint.pop_control() is None
            assert endpoint._replies == {}
            if answered:
                peer.settimeout(2.0)
                reply = recv_frame(peer)
                assert reply["t"] == "err"
                assert reply["code"] == "bad-request"
                assert reply["id"] == frame.get("id")
            peer.close()
        finally:
            endpoint.close()

    @pytest.mark.parametrize(
        "reply",
        [{"t": "rep"}, {"t": "rep", "r": "not codec text"},
         {"t": "rep", "r": 1}],
        ids=["no-r", "undecodable-r", "non-text-r"],
    )
    def test_malformed_reply_is_audited_and_fails_closed(self, reply):
        """A ``rep`` that carries no decodable result ends the exchange
        as a structured remote error, like an ``err`` frame."""
        peer_listener, la = _listener(), _listener()
        endpoint = HostEndpoint(
            "A", la,
            {"A": la.getsockname(), "B": peer_listener.getsockname()},
        )
        endpoint.register("A", lambda m: None)

        def fake_peer():
            sock, _ = peer_listener.accept()
            with sock:
                sock.settimeout(5.0)
                assert recv_frame(sock)["t"] == "hello"
                request = recv_frame(sock)
                send_frame(sock, dict(reply, id=request["id"]))
                sock.recv(1)  # hold the connection until A closes

        thread = threading.Thread(target=fake_peer, daemon=True)
        thread.start()
        try:
            with pytest.raises(RuntimeError) as info:
                endpoint.request(_req())
            assert "remote error from B: bad-reply" in str(info.value)
            assert len(endpoint.audit_log) == 1
            assert "undecodable rep" in endpoint.audit_log[0]
        finally:
            endpoint.close()
            thread.join(timeout=5.0)
            peer_listener.close()

    @pytest.mark.parametrize("claimed_src", ["C", "A"],
                             ids=["own-src", "forged-src"])
    def test_served_msg_id_is_never_answered_to_another_sender(
        self, claimed_src
    ):
        """Peer C presents the msg_id of A's served ``sync``, under its
        own name or under A's: it gets no token, only an error."""
        split, pair, host, entry = _ot_host_pair()
        pair.b.quarantine_enabled = True
        with pair:
            sync = _sync_to_t(split, entry)
            token = pair.a.request(sync)
            assert isinstance(token, Token)
            peer = socket.create_connection(pair.b.addr_map["T"])
            peer.settimeout(5.0)
            send_frame(peer, {"t": "hello", "from": "C"})
            replay = Message(
                "getField", claimed_src, "T",
                {"cls": "Nope", "field": "nope", "digest": split.digest},
                msg_id=sync.msg_id, seq=1,
            )
            send_frame(peer, {"t": "req", "id": sync.msg_id,
                              "m": codec.dumps(replay)})
            reply = recv_frame(peer)
            peer.close()
        assert reply["t"] == "err" and "r" not in reply
        assert reply["code"] == (
            "quarantine" if claimed_src == "C" else "bad-request"
        )
        assert host.stack.depth == 1 and pair.b.audit_log

    def test_rejected_request_gets_its_quarantine_error_again(self):
        """A retransmission of a request answered with a quarantine
        error is answered with a quarantine error, not a cached
        reply."""
        split, pair, host, entry = _ot_host_pair()
        pair.b.quarantine_enabled = True
        with pair:
            peer = socket.create_connection(pair.b.addr_map["T"])
            peer.settimeout(5.0)
            send_frame(peer, {"t": "hello", "from": "B"})
            probe = Message(
                "getField", "B", "T",
                {"cls": "Nope", "field": "nope", "digest": split.digest},
                msg_id=5, seq=1,
            )
            frame = {"t": "req", "id": 5, "m": codec.dumps(probe)}
            send_frame(peer, frame)
            first = recv_frame(peer)
            send_frame(peer, frame)
            again = recv_frame(peer)
            peer.close()
        for reply in (first, again):
            assert reply["t"] == "err" and reply["code"] == "quarantine"
            assert reply["offender"] == "B" and reply["victim"] == "T"
        assert pair.b.quarantined == {"B"}

    def test_wire_duplicated_sync_mints_one_token(self):
        """Both copies of a duplicated ``sync`` reach the TrustedHost,
        which answers the second from its idempotency table: one token
        minted, one ICS push."""
        split, pair, host, entry = _ot_host_pair(
            wire_a=_DuplicateEverything()
        )
        answers = []

        def counted(message):
            answers.append(host.handle(message))
            return answers[-1]

        pair.b.register("T", counted)
        with pair:
            token = pair.a.request(_sync_to_t(split, entry))
            assert _wait_for(lambda: len(answers) == 2)
        assert isinstance(token, Token)
        assert answers[0] is answers[1] and answers[0] == token
        assert host.factory.hash_count == 1
        assert host.stack.depth == 1
        assert pair.b.audit_log == []


# ---------------------------------------------------------------------------
# SimNetwork backend
# ---------------------------------------------------------------------------


class TestSimConformance(DeliveryContract):
    FAULTS = {
        "drop": (FaultPolicy(drop_prob=0.5), 3),
        "duplicate": (FaultPolicy(duplicate_prob=1.0), 7),
        "dead": (FaultPolicy(drop_prob=1.0), 7),
    }

    @contextmanager
    def backend(self, handler, fault):
        policy, seed = self.FAULTS[fault]
        retry = None
        if fault == "dead":
            retry = RetryPolicy(base_timeout=1e-3, max_retries=2)
        network = SimNetwork(
            faults=FaultInjector(policy, seed=seed), retry=retry
        )
        network.register("A", lambda m: None)
        network.register("B", handler)
        yield network

    def test_reordered_control_transfers_all_arrive_exactly_once(self):
        network = SimNetwork(
            faults=FaultInjector(FaultPolicy(reorder_prob=1.0), seed=11)
        )
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
