"""Tagged-JSON codec: the one encoding of runtime state that leaves memory.

Everything that leaves a host's memory — WAL records, checkpoint state
snapshots, the session journal, queued control messages, flow-log
entries, and every :class:`~repro.runtime.transport.base.Message` on
the TCP wire — is a tree over a closed set of runtime value types.
This codec maps that tree to JSON deterministically and back:

* JSON-native scalars (``None``/``bool``/``int``/``float``/``str``)
  pass through raw;
* everything else becomes a ``{"t": tag, ...}`` wrapper — bytes (hex),
  tuples, lists, dicts (as ordered key/value pair lists, since runtime
  dict keys are tuples and FrameIDs, not strings), the ``REJECTED``
  sentinel, tokens, frame ids, object/array references, return-info
  records, labels (rebuilt through the interning constructors so
  decoded labels land in the hash-consing table), and whole messages
  (``msg``: kind, endpoints, payload, data labels, idempotency key and
  channel sequence number).

Reference types are rebuilt with ``object.__new__`` so decoding never
draws from the global id counters; a :class:`DecodeContext` tracks the
highest object/frame id seen so a rehydrated process can advance its
counters past every persisted id (:func:`advance_id_floors`) — absolute
ids carry no meaning, collision-freedom is all that matters.

Decoding is *untrusted input* handling: peer frames and disk rows both
arrive here.  Every node's fields are type-checked, and any malformed
structure — bad JSON, nesting deep enough to exhaust the stack, a
wrong-typed field — raises :class:`StorageCodecError` and nothing else.
The checkpoint loader converts it to
:class:`~repro.runtime.checkpoint.CheckpointTamperError` (a corrupted
page fails closed, it does not crash the loader with a ``KeyError``)
and the TCP endpoint answers ``bad-request``.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Optional

from ...labels import ConfLabel, ConfPolicy, IntegLabel, Label, Principal
from ..tokens import Token
from ..transport.base import Message
from ..values import REJECTED, ArrayRef, FrameID, ObjectRef, ReturnInfo
from .. import values as _values


class StorageCodecError(ValueError):
    """Persisted state that does not decode: malformed or tampered."""


def _is_str(data) -> bool:
    return isinstance(data, str)


def _is_str_list(data) -> bool:
    return isinstance(data, list) and all(isinstance(x, str) for x in data)


def _is_int(data) -> bool:
    return isinstance(data, int) and not isinstance(data, bool)


def _opt(check, data) -> bool:
    return data is None or check(data)


# Labels: canonical plain-data forms, decoded through the interning
# constructors so decoded labels land in the hash-consing table.


def _enc_conf(conf: ConfLabel):
    if conf.is_top:
        return "T"
    return sorted(
        [policy.owner.name, sorted(r.name for r in policy.readers)]
        for policy in conf.policies
    )


def _dec_conf(data) -> ConfLabel:
    if data == "T":
        return ConfLabel.top()
    if not isinstance(data, list) or not all(
        isinstance(policy, list) and len(policy) == 2
        and _is_str(policy[0]) and _is_str_list(policy[1])
        for policy in data
    ):
        raise StorageCodecError(f"bad conf label {data!r}")
    return ConfLabel(
        ConfPolicy(Principal(owner), [Principal(r) for r in readers])
        for owner, readers in data
    )


def _enc_integ(integ: IntegLabel):
    if integ.is_bottom:
        return "B"
    return sorted(p.name for p in integ.trust)


def _dec_integ(data) -> IntegLabel:
    if data == "B":
        return IntegLabel.bottom()
    if not _is_str_list(data):
        raise StorageCodecError(f"bad integ label {data!r}")
    return IntegLabel(Principal(name) for name in data)


def _enc_label(label: Label):
    return [_enc_conf(label.conf), _enc_integ(label.integ)]


def _dec_label(data) -> Label:
    if not isinstance(data, list) or len(data) != 2:
        raise StorageCodecError(f"bad label {data!r}")
    return Label(_dec_conf(data[0]), _dec_integ(data[1]))


class DecodeContext:
    """Tracks the id high-water marks across one decoding session."""

    __slots__ = ("max_oid", "max_fid")

    def __init__(self) -> None:
        self.max_oid = 0
        self.max_fid = 0


def _enc(value: Any) -> Any:
    if value is None or value is True or value is False:
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        return value
    if value is REJECTED:
        return {"t": "rej"}
    if isinstance(value, (bytes, bytearray)):
        return {"t": "b", "v": bytes(value).hex()}
    if isinstance(value, tuple):
        return {"t": "t", "v": [_enc(item) for item in value]}
    if isinstance(value, list):
        return {"t": "l", "v": [_enc(item) for item in value]}
    if isinstance(value, dict):
        return {
            "t": "d",
            "v": [[_enc(k), _enc(v)] for k, v in value.items()],
        }
    if isinstance(value, Token):
        return {
            "t": "tok",
            "host": value.host,
            "frame": _enc(value.frame),
            "entry": value.entry,
            "nonce": value.nonce.hex(),
            "mac": value.mac.hex(),
        }
    if isinstance(value, FrameID):
        return {"t": "fid", "fid": value.fid, "mk": _enc(value.method_key)}
    if isinstance(value, ObjectRef):
        return {"t": "oref", "cls": value.cls, "oid": value.oid}
    if isinstance(value, ArrayRef):
        return {
            "t": "aref",
            "oid": value.oid,
            "length": value.length,
            "host": value.host,
            "label": _enc_label(value.label),
        }
    if isinstance(value, ReturnInfo):
        return {
            "t": "rinfo",
            "host": value.host,
            "frame": _enc(value.frame),
            "var": value.var,
        }
    if isinstance(value, Label):
        return {"t": "lab", "v": _enc_label(value)}
    if isinstance(value, Message):
        return {
            "t": "msg",
            "kind": value.kind,
            "src": value.src,
            "dst": value.dst,
            "payload": _enc(value.payload),
            "labels": _enc(list(value.data_labels)),
            "id": value.msg_id,
            "seq": value.seq,
        }
    raise StorageCodecError(f"unencodable runtime value {value!r}")


def _items(data) -> list:
    """The ``v`` list of a container node."""
    if not isinstance(data, list):
        raise StorageCodecError(f"container body is not a list: {data!r}")
    return data


def _frame(data, ctx: DecodeContext) -> FrameID:
    frame = _dec(data, ctx)
    if not isinstance(frame, FrameID):
        raise StorageCodecError(f"not a frame id: {frame!r}")
    return frame


def _dec(data: Any, ctx: DecodeContext) -> Any:
    if data is None or data is True or data is False:
        return data
    if isinstance(data, (int, float, str)):
        return data
    if not isinstance(data, dict):
        raise StorageCodecError(f"bad encoded node {data!r}")
    tag = data.get("t")
    try:
        if tag == "rej":
            return REJECTED
        if tag == "b":
            return bytes.fromhex(data["v"])
        if tag == "t":
            return tuple(_dec(item, ctx) for item in _items(data["v"]))
        if tag == "l":
            return [_dec(item, ctx) for item in _items(data["v"])]
        if tag == "d":
            out = {}
            for pair in _items(data["v"]):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise StorageCodecError(f"bad dict entry {pair!r}")
                out[_dec(pair[0], ctx)] = _dec(pair[1], ctx)
            return out
        if tag == "tok":
            host, entry = data["host"], data["entry"]
            if not _is_str(host) or not _is_str(entry):
                raise StorageCodecError(f"bad token {data!r}")
            return Token(
                host,
                _frame(data["frame"], ctx),
                entry,
                bytes.fromhex(data["nonce"]),
                bytes.fromhex(data["mac"]),
            )
        if tag == "fid":
            fid = data["fid"]
            method_key = _dec(data["mk"], ctx)
            if not _is_int(fid) or not (
                isinstance(method_key, tuple) and len(method_key) == 2
                and all(_is_str(part) for part in method_key)
            ):
                raise StorageCodecError(f"bad frame id {data!r}")
            frame = object.__new__(FrameID)
            frame.method_key = method_key
            frame.fid = fid
            frame._hash = hash(fid)
            ctx.max_fid = max(ctx.max_fid, fid)
            return frame
        if tag == "oref":
            oid, cls = data["oid"], data["cls"]
            if not _is_int(oid) or not _is_str(cls):
                raise StorageCodecError(f"bad object ref {data!r}")
            ref = object.__new__(ObjectRef)
            ref.cls = cls
            ref.oid = oid
            ctx.max_oid = max(ctx.max_oid, oid)
            return ref
        if tag == "aref":
            oid, length, host = data["oid"], data["length"], data["host"]
            if not (_is_int(oid) and _is_int(length) and _is_str(host)):
                raise StorageCodecError(f"bad array ref {data!r}")
            ref = object.__new__(ArrayRef)
            ref.oid = oid
            ref.length = length
            ref.host = host
            ref.label = _dec_label(data["label"])
            ctx.max_oid = max(ctx.max_oid, oid)
            return ref
        if tag == "rinfo":
            host, var = data["host"], data["var"]
            if not (_opt(_is_str, host) and _opt(_is_str, var)):
                raise StorageCodecError(f"bad return info {data!r}")
            frame = data["frame"]
            info = object.__new__(ReturnInfo)
            info.host = host
            info.frame = None if frame is None else _frame(frame, ctx)
            info.var = var
            return info
        if tag == "lab":
            return _dec_label(data["v"])
        if tag == "msg":
            kind, src, dst = data["kind"], data["src"], data["dst"]
            msg_id, seq = data["id"], data["seq"]
            payload = _dec(data["payload"], ctx)
            labels = _dec(data["labels"], ctx)
            if not (
                _is_str(kind) and _is_str(src) and _is_str(dst)
                and isinstance(payload, dict)
                and isinstance(labels, list)
                and all(isinstance(label, Label) for label in labels)
                and _opt(_is_int, msg_id) and _opt(_is_int, seq)
            ):
                raise StorageCodecError(f"bad message {data!r}")
            return Message(
                kind, src, dst, payload,
                data_labels=labels, msg_id=msg_id, seq=seq,
            )
    except StorageCodecError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise StorageCodecError(f"malformed {tag!r} node: {error}") from error
    raise StorageCodecError(f"unknown value tag {tag!r}")


def dumps(value: Any) -> str:
    """Encode ``value`` as deterministic JSON text."""
    return json.dumps(_enc(value), sort_keys=True, separators=(",", ":"))


def loads(text: str, ctx: Optional[DecodeContext] = None) -> Any:
    """Decode codec JSON; raises :class:`StorageCodecError` on any
    malformed input."""
    try:
        return _dec(json.loads(text), ctx or DecodeContext())
    except StorageCodecError:
        raise
    except (ValueError, TypeError, RecursionError) as error:
        raise StorageCodecError(f"undecodable blob: {error}") from error


def advance_id_floors(ctx: DecodeContext) -> None:
    """Advance the global object/frame id counters past every id seen
    by ``ctx``, so objects allocated after a rehydration can never
    collide with persisted ones."""
    current_oid = next(_values._object_ids)
    _values._object_ids = itertools.count(
        max(current_oid, ctx.max_oid + 1)
    )
    current_fid = next(_values._frame_ids)
    _values._frame_ids = itertools.count(
        max(current_fid, ctx.max_fid + 1)
    )
