"""A real TCP transport: each TrustedHost as its own process.

The simulated :class:`~repro.runtime.network.SimNetwork` delivers a
message by calling the destination host's handler in the same address
space.  This backend puts the identical protocol on an actual wire:

* **Framing.**  Every frame is a 4-byte big-endian length prefix
  followed by that many bytes of UTF-8 JSON holding an object; one
  parser (:func:`frame_length` for the size cap, :func:`parse_frame`
  for the body) serves every reader, and a bad frame raises
  :class:`FrameError`.  A ``req``/``post`` frame carries the
  idempotency key as ``id`` and the whole
  :class:`~repro.runtime.transport.base.Message` as ``m``, encoded by
  the storage codec (:mod:`repro.runtime.storage.codec`) — the same
  deterministic tagged-JSON text the durable tier stores in its
  ``queue`` rows, so the wire format is untrusted-input handling by
  construction.  A frame whose ``m`` does not decode to a message
  matching ``id`` is audited and answered ``bad-request``.

* **Envelope.**  Frames carry the existing reliable-delivery envelope:
  the per-message idempotency key (``msg_id``), the per-channel
  sequence number (``seq``), and — for control transfers — a separate
  per-channel control sequence (``cseq``).  Delivery runs the one
  ack/retry loop every transport shares
  (:meth:`~repro.runtime.transport.base.Transport._deliver_reliably`,
  on the :data:`WIRE_RETRY` schedule in real seconds); this backend
  supplies only the attempt: write the frame, pump until the reply or
  the timer.  A message's ``src`` must be the peer that said ``hello``
  on its connection.  Receivers ignore a retransmission whose first
  execution is still running; any other retransmission reaches the
  host, which answers a served ``(src, msg_id)`` from its idempotency
  table — the one table, as in the simulation.  Out-of-order control
  messages are held back until the gap fills, so rgoto/lgoto arrive in
  program order.  A message that exhausts its retry budget raises
  :class:`~repro.runtime.transport.base.DeliveryTimeoutError` — fail
  closed, never answer wrong — with full (channel, seq, kind) context.

* **Accounting.**  :class:`HostEndpoint` inherits the Table 1
  accounting from :class:`~repro.runtime.transport.base.Transport`.
  Each process accounts exactly what the simulation would have charged
  on its side of the wire: the sender charges the message count and
  latency (``_account``), the receiver charges validation and token
  hashing (``charge_check``/``charge_hash``).  The split program has a
  single thread of control, every charge is an integer number of
  simulated microseconds, and floats that are integer multiples of
  1e-6 sum associatively at this magnitude — so summing the per-host
  subtotals reproduces the global simulated clock of the oracle run
  *bit-identically* (see :meth:`TcpRunResult.observables`).

* **Processes.**  :func:`run_split_over_tcp` pre-binds one listener
  socket per host (so the port map is known without any discovery
  protocol), forks one child per host — the child inherits the shared
  :class:`~repro.runtime.session.RuntimeImage`, key registry, and its
  listener through fork, nothing is pickled — and coordinates the run
  over the same framed protocol (``start`` / ``halt`` / ``report`` /
  ``shutdown``).  Children partition the global object/frame id
  counters into disjoint strides so ids minted on different hosts can
  never collide (absolute ids carry no meaning; collision-freedom is
  all that matters, exactly as in rehydration).

Each endpoint is single-threaded: while a host waits for a reply it
keeps pumping its socket set and serves incoming requests, which is
what makes nested synchronization chains (A calls B calls A) work
without threads — the same re-entrancy the in-process simulation gets
from ordinary function calls.
"""

from __future__ import annotations

import itertools
import json
import os
import selectors
import signal
import socket
import struct
import time
from collections import Counter, deque
from typing import Any, Dict, List, Optional, Tuple

from ..faults import RetryPolicy
from ..storage.codec import StorageCodecError, dumps, loads
from .base import (
    CostModel,
    DeliveryTimeoutError,
    Message,
    SecurityAbort,
    Transport,
    table_counts,
)

__all__ = [
    "FrameError",
    "HostEndpoint",
    "TcpRunResult",
    "WIRE_RETRY",
    "WirePolicy",
    "frame_length",
    "parse_frame",
    "recv_frame",
    "run_split_over_tcp",
    "send_frame",
]

_LEN = struct.Struct(">I")
#: refuse frames over 64 MiB — a length prefix from a confused or
#: malicious peer must not allocate unbounded memory.
MAX_FRAME = 64 * 1024 * 1024

#: the id-counter stride handed to each forked host, far above anything
#: a single run allocates.
_ID_STRIDE = 10 ** 12

#: the coordinator's name in the address map (never a program host).
COORD = "__coord__"


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def send_frame(sock: socket.socket, frame: Dict[str, Any]) -> None:
    """Write one length-prefixed JSON frame."""
    blob = json.dumps(frame, separators=(",", ":")).encode("utf-8")
    sock.sendall(_LEN.pack(len(blob)) + blob)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


class FrameError(ConnectionError):
    """A peer sent bytes that are not a frame: over the size cap, not
    UTF-8, not JSON, or not a JSON object."""


def frame_length(header: bytes) -> int:
    """The body length a 4-byte frame header announces, refused past
    :data:`MAX_FRAME` before anything is allocated for it."""
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds the cap")
    return length


def parse_frame(blob: bytes) -> Dict[str, Any]:
    """Decode one frame body: UTF-8 JSON holding an object.  The one
    parser behind every reader of peer or client frames (each checks
    the size cap on the header first, with :func:`frame_length`)."""
    try:
        frame = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise FrameError(f"undecodable frame: {error}") from error
    if not isinstance(frame, dict):
        raise FrameError("frame is not a JSON object")
    return frame


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    """Read one length-prefixed JSON frame (blocking socket)."""
    length = frame_length(_recv_exact(sock, _LEN.size))
    return parse_frame(_recv_exact(sock, length))


class _Conn:
    """One established connection plus its receive buffer."""

    __slots__ = ("sock", "buf", "peer")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = b""
        self.peer: Optional[str] = None

    def frames(self, data: bytes) -> List[Dict[str, Any]]:
        """Feed received bytes; return every complete frame."""
        self.buf += data
        out = []
        while len(self.buf) >= _LEN.size:
            length = frame_length(self.buf[: _LEN.size])
            if len(self.buf) < _LEN.size + length:
                break
            blob = self.buf[_LEN.size : _LEN.size + length]
            self.buf = self.buf[_LEN.size + length :]
            out.append(parse_frame(blob))
        return out


def _frame(message: Message, cseq: Optional[int]) -> Dict[str, Any]:
    """A ``req`` frame (or, with a control sequence number, a ``post``
    frame): the idempotency key plus the message as codec text."""
    if cseq is None:
        return {"t": "req", "id": message.msg_id, "m": dumps(message)}
    return {"t": "post", "id": message.msg_id, "m": dumps(message),
            "cseq": cseq}


def _abort_frame(msg_id: int, abort: SecurityAbort) -> Dict[str, Any]:
    """The ``err`` frame answering a request the receiver refused with
    :class:`SecurityAbort`; the sender re-raises it."""
    return {
        "t": "err", "id": msg_id, "code": "quarantine",
        "offender": abort.offender, "victim": abort.victim,
        "why": abort.why, "detail": str(abort),
    }


# ---------------------------------------------------------------------------
# retry schedule and fault hooks
# ---------------------------------------------------------------------------


#: the ack/retry schedule of the TCP wire, in real seconds spent
#: pumping a socket.
WIRE_RETRY = RetryPolicy(
    base_timeout=1.0, max_timeout=8.0, max_retries=5, deadline=30.0
)


class WirePolicy:
    """Outbound frame hook for fault injection in the conformance suite.

    ``on_send`` receives each frame about to be written and returns the
    list of frames to actually write: ``[frame]`` passes it through,
    ``[]`` drops it (the sender's retransmission timer takes over),
    ``[frame, frame]`` duplicates it, and returning a held-back earlier
    frame after a later one reorders the wire.  The default passes
    everything through — production endpoints run with no policy at
    all, this exists so tests can script loss on a real socket.
    """

    def on_send(self, frame: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [frame]


# ---------------------------------------------------------------------------
# the endpoint
# ---------------------------------------------------------------------------


class HostEndpoint(Transport):
    """One host's transport over real sockets.

    Owns the host's pre-bound listener, dials peers lazily from
    ``addr_map``, and pumps all of its sockets from the calling thread
    — delivery methods (:meth:`request`, :meth:`one_way`, :meth:`post`)
    serve incoming frames while they wait for their own reply, so
    nested synchronization chains cannot deadlock.
    """

    def __init__(
        self,
        name: str,
        listener: socket.socket,
        addr_map: Dict[str, Tuple[str, int]],
        cost_model: Optional[CostModel] = None,
        retry: Optional[RetryPolicy] = None,
        wire: Optional[WirePolicy] = None,
        msg_id_floor: int = 1,
    ) -> None:
        super().__init__(cost_model, retry or WIRE_RETRY)
        self.name = name
        # Idempotency keys must be globally unique across the cluster
        # (the simulation gets this for free from its single shared
        # counter): each endpoint mints from its own disjoint stride so
        # two hosts can never present the same key to one receiver.
        self._msg_ids = itertools.count(msg_id_floor)
        self.addr_map = dict(addr_map)
        #: test-only outbound fault hook (None in production).
        self.wire = wire
        self._handler = None
        self._listener = listener
        listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, "listen")
        self._conns: Dict[socket.socket, _Conn] = {}
        self._out: Dict[str, _Conn] = {}
        #: replies/acks/errors keyed by msg_id, filled by the pump.
        self._replies: Dict[int, Dict[str, Any]] = {}
        #: (src, msg_id) of requests whose first execution is still on
        #: the stack: a retransmission of one of those is ignored (the
        #: reply goes out when the original finishes).  Only a socket
        #: can re-enter a handler mid-execution; a retransmission of a
        #: served request reaches the handler, which answers it from
        #: its own idempotency table.
        self._serving: set = set()
        #: control-transfer ordering: outbound per-channel control
        #: sequence, inbound next-expected per source, and the holdback
        #: buffer for out-of-order arrivals.
        self._ctrl_out: Counter = Counter()
        self._ctrl_in: Dict[str, int] = {}
        self._holdback: Dict[str, Dict[int, Message]] = {}
        #: coordination frames (start/report/shutdown/...) for a serve
        #: loop to consume: (frame, conn) pairs.
        self.inbox: deque = deque()
        self.closed = False

    # -- registration ---------------------------------------------------------

    def register(self, host, handler, on_crash=None, on_restart=None) -> None:
        if host != self.name:
            raise ValueError(
                f"endpoint {self.name!r} can only host {self.name!r}, "
                f"not {host!r}"
            )
        self._handler = handler

    # -- socket plumbing ------------------------------------------------------

    def _track(self, sock: socket.socket) -> _Conn:
        conn = _Conn(sock)
        self._conns[sock] = conn
        self._selector.register(sock, selectors.EVENT_READ, conn)
        return conn

    def _drop_conn(self, conn: _Conn) -> None:
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        self._conns.pop(conn.sock, None)
        for peer, out in list(self._out.items()):
            if out is conn:
                del self._out[peer]
        try:
            conn.sock.close()
        except OSError:
            pass

    def _dial(self, peer: str) -> _Conn:
        conn = self._out.get(peer)
        if conn is not None:
            return conn
        addr = self.addr_map.get(peer)
        if addr is None:
            raise KeyError(f"unknown host {peer!r}")
        sock = socket.create_connection(tuple(addr), timeout=10.0)
        sock.settimeout(None)
        conn = self._track(sock)
        conn.peer = peer
        self._out[peer] = conn
        send_frame(sock, {"t": "hello", "from": self.name})
        return conn

    def _write(self, conn: _Conn, frame: Dict[str, Any]) -> None:
        frames = [frame] if self.wire is None else self.wire.on_send(frame)
        for out in frames:
            send_frame(conn.sock, out)

    def pump(self, timeout: float) -> None:
        """Process socket events for up to ``timeout`` seconds (one
        selector round; returns after the first batch of events)."""
        if self.closed:
            return
        events = self._selector.select(timeout)
        for key, _mask in events:
            if key.data == "listen":
                try:
                    sock, _ = self._listener.accept()
                except OSError:
                    continue
                sock.setblocking(True)
                self._track(sock)
                continue
            conn = key.data
            try:
                data = conn.sock.recv(65536)
            except OSError:
                self._drop_conn(conn)
                continue
            if not data:
                self._drop_conn(conn)
                continue
            try:
                frames = conn.frames(data)
            except FrameError as error:
                self.audit(self.name, f"undecodable frame stream: {error}")
                self._drop_conn(conn)
                continue
            for frame in frames:
                self._dispatch(frame, conn)

    # -- inbound frames -------------------------------------------------------

    def _dispatch(self, frame: Dict[str, Any], conn: _Conn) -> None:
        kind = frame.get("t")
        if kind == "hello":
            conn.peer = frame.get("from")
        elif kind == "req":
            self._serve_request(frame, conn)
        elif kind in ("rep", "ack", "err"):
            msg_id = frame.get("id")
            if type(msg_id) is not int:
                self.audit(self.name, f"{kind} frame without an id")
                return
            self._replies[msg_id] = frame
        elif kind == "post":
            self._serve_post(frame, conn)
        else:
            self.inbox.append((frame, conn))

    def _inbound(
        self, frame: Dict[str, Any], conn: _Conn
    ) -> Optional[Message]:
        """The message a ``req``/``post`` frame carries, or None after
        answering it with an error: ``bad-request`` (audited) for a
        bad frame or a message whose ``src`` is not the peer that said
        ``hello`` on this connection, ``quarantine`` for a message
        from a quarantined sender."""
        try:
            message = loads(frame.get("m"))
            if not isinstance(message, Message):
                raise StorageCodecError("not a message")
            if type(frame.get("id")) is not int or (
                message.msg_id != frame["id"]
            ):
                raise StorageCodecError("frame id does not match")
            if frame["t"] == "post" and not (
                type(frame.get("cseq")) is int and frame["cseq"] >= 1
            ):
                raise StorageCodecError("control sequence is not an int")
            if message.src != conn.peer:
                # The receiver's idempotency table is keyed by (src,
                # msg_id): a src the connection does not speak for
                # could collect another host's cached reply.
                raise StorageCodecError(
                    f"src {message.src!r} on {conn.peer!r}'s connection"
                )
        except StorageCodecError as error:
            detail = f"undecodable {frame['t']}: {error}"
            self.audit(self.name, detail)
            self._write(conn, {
                "t": "err", "id": frame.get("id"), "code": "bad-request",
                "detail": detail,
            })
            return None
        try:
            self._check_quarantine(message)
        except SecurityAbort as abort:
            self._write(conn, _abort_frame(message.msg_id, abort))
            return None
        return message

    def _serve_request(self, frame: Dict[str, Any], conn: _Conn) -> None:
        message = self._inbound(frame, conn)
        if message is None:
            return
        msg_id = message.msg_id
        dedup_key = (message.src, msg_id)
        if dedup_key in self._serving:
            # Retransmission of a request whose first execution is
            # still running: the reply goes out when it finishes.
            return
        self._serving.add(dedup_key)
        try:
            try:
                result = self._handler(message)
            except SecurityAbort as abort:
                reply = _abort_frame(msg_id, abort)
            else:
                try:
                    reply = {"t": "rep", "id": msg_id, "r": dumps(result)}
                except StorageCodecError as error:
                    reply = {
                        "t": "err", "id": msg_id, "code": "internal",
                        "detail": f"unencodable reply: {error}",
                    }
        finally:
            self._serving.discard(dedup_key)
        self._write(conn, reply)

    def _serve_post(self, frame: Dict[str, Any], conn: _Conn) -> None:
        message = self._inbound(frame, conn)
        if message is None:
            return
        # Always ack — even duplicates and holdbacks — so the sender's
        # retransmission timer stops; ordering is our problem now.
        self._write(conn, {"t": "ack", "id": message.msg_id})
        src, cseq = message.src, frame["cseq"]
        expected = self._ctrl_in.get(src, 1)
        if cseq < expected:
            return  # duplicate of an already-delivered control message
        hold = self._holdback.setdefault(src, {})
        hold[cseq] = message  # a duplicate at the same cseq is harmless
        while expected in hold:
            self._queue.append(hold.pop(expected))
            expected += 1
        self._ctrl_in[src] = expected

    # -- outbound exchanges ---------------------------------------------------

    def request(self, message: Message) -> Any:
        if message.dst == self.name:
            if message.src == message.dst:
                return self._handler(message)
            raise KeyError(
                f"{self.name} cannot originate remote requests to itself"
            )
        if message.src == message.dst:
            raise KeyError(f"unknown host {message.dst!r}")
        self._check_quarantine(message)
        self._account(message, messages=2)
        return self._deliver_reliably(message, self._attempt, None)

    def one_way(self, message: Message, messages: int = 1) -> Any:
        if message.dst == self.name:
            return self._handler(message)
        self._check_quarantine(message)
        self._account(message, messages=messages)
        return self._deliver_reliably(message, self._attempt, None)

    def post(self, message: Message) -> None:
        if message.src == message.dst:
            self._queue.append(message)
            return
        self._check_quarantine(message)
        self._account(message, messages=1)
        channel = (message.src, message.dst)
        self._ctrl_out[channel] += 1
        self._deliver_reliably(message, self._attempt, self._ctrl_out[channel])

    def _attempt(
        self, message: Message, timer: float, cseq: Optional[int]
    ) -> Tuple[bool, Any]:
        """One transmission: write the frame, then pump — serving
        incoming frames, so nested chains re-enter here recursively —
        until its reply/ack arrives or ``timer`` seconds run out."""
        self._write(self._dial(message.dst), _frame(message, cseq))
        deadline = time.monotonic() + timer
        while message.msg_id not in self._replies:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False, None
            self.pump(remaining)
        reply = self._replies.pop(message.msg_id)
        return True, self._consume_reply(message, reply)

    def _consume_reply(self, message: Message, reply: Dict[str, Any]) -> Any:
        if reply["t"] == "ack":
            return None
        if reply["t"] == "rep":
            try:
                return loads(reply.get("r"))
            except StorageCodecError as error:
                # A reply that does not decode fails closed like a
                # remote error, never as a bare decoding exception.
                detail = f"undecodable rep: {error}"
                self.audit(
                    self.name,
                    f"{message.kind} #{message.msg_id} from {message.dst}: "
                    f"{detail}",
                )
                reply = {"code": "bad-reply", "detail": detail}
        code = reply.get("code")
        if code == "quarantine":
            raise SecurityAbort(
                reply.get("offender"), reply.get("victim"),
                reply.get("why", reply.get("detail", "remote abort")),
                message=message,
            )
        raise RuntimeError(
            f"remote error from {message.dst}: {code}: {reply.get('detail')}"
        )

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for conn in list(self._conns.values()):
            self._drop_conn(conn)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._selector.close()


# ---------------------------------------------------------------------------
# whole-program runs: one forked process per host
# ---------------------------------------------------------------------------


class TcpRunResult:
    """The merged observables of a distributed run over TCP.

    Mirrors the surface of
    :class:`~repro.runtime.session.ExecutionResult` /
    :meth:`~repro.runtime.session.Session.observables` so a TCP run can
    be compared field-for-field against the simulated oracle.
    """

    def __init__(
        self, reports: Dict[str, Dict[str, Any]], main_frame
    ) -> None:
        self.reports = reports
        self.main_frame = main_frame
        merged: Counter = Counter()
        for report in reports.values():
            merged.update(report["counts"])
        self._merged = merged
        self.eliminated = sum(r["eliminated"] for r in reports.values())
        self.elapsed = sum(r["clock"] for r in reports.values())
        self.check_time = sum(r["check_time"] for r in reports.values())
        self.hash_time = sum(r["hash_time"] for r in reports.values())
        self.ics_depths = {
            name: report["ics_depth"]
            for name, report in sorted(reports.items())
        }
        self.audits: List[str] = []
        for name in sorted(reports):
            self.audits.extend(reports[name]["audits"])
        self._fields = {
            name: loads(report["fields"])
            for name, report in reports.items()
        }
        self._frames = {
            name: loads(report["frames"])
            for name, report in reports.items()
        }

    @property
    def counts(self) -> Dict[str, int]:
        return table_counts(self._merged, self.eliminated)

    def observables(self) -> Dict[str, Any]:
        """Bit-comparable to :meth:`Session.observables`: same keys,
        same rounding, same per-host ICS depths."""
        return {
            "messages": self.counts,
            "simulated_seconds": round(self.elapsed, 6),
            "ics_depths": dict(self.ics_depths),
        }

    def field_value(self, cls: str, field: str, oid=None, default=None):
        key = (cls, field, oid)
        for fields in self._fields.values():
            if key in fields:
                return fields[key]
        return default

    def var_value(self, frame, var: str, default=None):
        for frames in self._frames.values():
            copy = frames.get(frame)
            if copy is not None and var in copy:
                return copy[var]
        return default

    def main_var(self, var: str, default=None):
        return self.var_value(self.main_frame, var, default)


def _child_serve(endpoint: "HostEndpoint", host, image) -> None:
    """The forked host's event loop: pump frames, execute control
    transfers in order, answer coordination frames."""
    from ..host import ExecutionState, HaltSignal
    from ..values import FrameID

    main_frame = None

    def tell_coord(frame: Dict[str, Any]) -> None:
        conn = endpoint._dial(COORD)
        endpoint._write(conn, frame)

    def run_failed(error: BaseException) -> None:
        code = (
            "timeout" if isinstance(error, DeliveryTimeoutError)
            else "quarantine" if isinstance(error, SecurityAbort)
            else "internal"
        )
        tell_coord({
            "t": "failed", "host": endpoint.name, "code": code,
            "detail": str(error),
        })

    while True:
        endpoint.pump(0.1)
        # Execute pending control transfers, strictly in cseq order —
        # the distributed analogue of Session.step().
        while True:
            message = endpoint.pop_control()
            if message is None:
                break
            try:
                host.handle(message)
            except HaltSignal:
                tell_coord({"t": "halt", "host": endpoint.name})
            except (SecurityAbort, DeliveryTimeoutError) as error:
                run_failed(error)
        while endpoint.inbox:
            frame, conn = endpoint.inbox.popleft()
            kind = frame.get("t")
            if kind == "start":
                # The distributed analogue of Session.start(): mint the
                # root capability and run the main chain.
                try:
                    main_frame = FrameID(image.main_method_key)
                    root = host.factory.mint(
                        main_frame, host.split.main_entry
                    )
                    host.adopt_root(root)
                    state = ExecutionState(
                        host.split.main_entry, main_frame, root
                    )
                    try:
                        host.run_chain(state)
                    except HaltSignal:
                        tell_coord({"t": "halt", "host": endpoint.name})
                except (SecurityAbort, DeliveryTimeoutError) as error:
                    run_failed(error)
            elif kind == "report":
                endpoint._write(conn, {
                    "t": "obs",
                    "host": endpoint.name,
                    "counts": dict(endpoint.counts),
                    "clock": endpoint.clock,
                    "check_time": endpoint.check_time,
                    "hash_time": endpoint.hash_time,
                    "eliminated": endpoint.eliminated_roundtrips,
                    "ics_depth": host.stack.depth,
                    "audits": list(endpoint.audit_log),
                    "fields": dumps(host.field_store),
                    "frames": dumps(host.frames),
                    "main_frame": dumps(main_frame),
                })
            elif kind == "shutdown":
                return


def _child_main(
    index: int,
    name: str,
    listeners: Dict[str, socket.socket],
    addr_map: Dict[str, Tuple[str, int]],
    image,
    opt_level: int,
    cost_model: Optional[CostModel],
) -> None:
    from .. import values as values_mod
    from ..host import TrustedHost

    for other, sock in listeners.items():
        if other != name:
            sock.close()
    # Partition the id spaces: ids minted on different hosts must never
    # collide when they meet inside a payload (absolute values carry no
    # meaning — this is the forked twin of codec.advance_id_floors).
    floor = 1 + (index + 1) * _ID_STRIDE
    values_mod._object_ids = itertools.count(floor)
    values_mod._frame_ids = itertools.count(floor)
    endpoint = HostEndpoint(
        name, listeners[name], addr_map, cost_model=cost_model,
        msg_id_floor=floor,
    )
    host = TrustedHost(
        name,
        image.split,
        endpoint,
        image.registry,
        opt_level=opt_level,
        image=image.host_images[name],
    )
    try:
        _child_serve(endpoint, host, image)
    finally:
        endpoint.close()


def _reap(pids: List[int], deadline: float) -> None:
    """Wait for the children, escalating to SIGKILL at the deadline."""
    pending = list(pids)
    while pending:
        for pid in list(pending):
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pending.remove(pid)
                continue
            if done:
                pending.remove(pid)
        if not pending:
            return
        if time.monotonic() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            for pid in pending:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            return
        time.sleep(0.02)


def run_split_over_tcp(
    split,
    registry=None,
    opt_level: int = 1,
    cost_model: Optional[CostModel] = None,
    timeout: float = 120.0,
) -> TcpRunResult:
    """Execute a split program with one forked process per host, all
    messages on real 127.0.0.1 sockets; returns the merged
    :class:`TcpRunResult` (observables bit-comparable to the simulated
    oracle's).  Raises the distributed run's own failure —
    :class:`DeliveryTimeoutError`, :class:`SecurityAbort` — or
    :class:`RuntimeError` if the cluster wedges past ``timeout``."""
    from ..session import RuntimeImage

    image = RuntimeImage.for_split(split, registry)
    names = [descriptor.name for descriptor in split.config.hosts]
    listeners: Dict[str, socket.socket] = {}
    addr_map: Dict[str, Tuple[str, int]] = {}
    for name in names + [COORD]:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        sock.listen(64)
        listeners[name] = sock
        addr_map[name] = sock.getsockname()

    pids: List[int] = []
    try:
        for index, name in enumerate(names):
            pid = os.fork()
            if pid == 0:
                status = 0
                try:
                    listeners[COORD].close()
                    _child_main(
                        index, name, listeners, addr_map, image,
                        opt_level, cost_model,
                    )
                except BaseException as error:
                    # One line in the CLI error contract, written
                    # straight to fd 2: os._exit skips buffer flushes.
                    detail = f"{name}: {type(error).__name__}: {error}"
                    line = json.dumps(
                        {"error": "internal", "detail": detail},
                        separators=(", ", ": "),
                    )
                    os.write(2, f"error: {line}\n".encode())
                    status = 70
                finally:
                    os._exit(status)
            pids.append(pid)
        for name in names:
            listeners[name].close()

        coord = listeners[COORD]
        coord.settimeout(timeout)
        main_conn = socket.create_connection(
            addr_map[split.main_host], timeout=timeout
        )
        main_conn.settimeout(timeout)
        send_frame(main_conn, {"t": "start"})

        # Wait for whichever host ends the program to dial in.
        csock, _ = coord.accept()
        csock.settimeout(timeout)
        outcome = recv_frame(csock)
        while outcome.get("t") == "hello":
            outcome = recv_frame(csock)
        if outcome.get("t") == "failed":
            code = outcome.get("code")
            detail = outcome.get("detail", "")
            if code == "quarantine":
                raise SecurityAbort(
                    None, outcome.get("host"), detail or "remote abort"
                )
            raise RuntimeError(
                f"distributed run failed on {outcome.get('host')}: "
                f"{code}: {detail}"
            )
        if outcome.get("t") != "halt":
            raise RuntimeError(f"unexpected coordination frame {outcome!r}")

        reports: Dict[str, Dict[str, Any]] = {}
        main_frame = None
        for name in names:
            conn = socket.create_connection(addr_map[name], timeout=timeout)
            conn.settimeout(timeout)
            send_frame(conn, {"t": "report"})
            obs = recv_frame(conn)
            if obs.get("t") != "obs":
                raise RuntimeError(
                    f"unexpected report frame from {name}: {obs!r}"
                )
            reports[name] = obs
            if name == split.main_host:
                main_frame = loads(obs["main_frame"])
            send_frame(conn, {"t": "shutdown"})
            conn.close()
        main_conn.close()
        csock.close()
        return TcpRunResult(reports, main_frame)
    finally:
        _reap(pids, time.monotonic() + 10.0)
        for sock in listeners.values():
            try:
                sock.close()
            except OSError:
                pass
