"""A host participating in a partitioned computation (Section 5).

Each :class:`TrustedHost` holds the fields and code fragments the
splitter assigned to it, a local slice of the integrity control stack,
and its frame copies.  Every incoming request is validated exactly as
Figure 6 prescribes — invalid requests are ignored and logged, never
answered — so a bad host gains nothing by fabricating messages.

When the network runs its reliable-delivery protocol (fault injection
enabled), every remote message carries an idempotency key; the host
remembers the result of each processed key and answers retransmissions
and duplicates from that table without re-executing their effects.  A
re-delivered ``sync`` therefore returns the originally minted token (one
ICS push, not two), and a re-delivered ``lgoto``/``rgoto`` does not run
its fragment chain again.  Replays carrying a *fresh* key still fall
through to the Figure 6 checks, where the one-shot capability discipline
rejects them.

Under fault injection the host additionally keeps a
:class:`~repro.runtime.checkpoint.DurableStore`: every state mutation —
field and array writes, frame variables, ICS pushes/pops, the
idempotency table, deferred forwards — is written ahead to its WAL, and
a sealed checkpoint compacts the log every few processed messages.  A
crash wipes all in-memory state
(:meth:`TrustedHost.crash_wipe`); the restart rebuilds it bit-identically
from checkpoint + WAL replay (:meth:`TrustedHost.recover`) and
broadcasts a sealed ``recover`` announcement so peers re-forward
pending data.  When the network's quarantine layer is enabled, any
rejected remote request escalates to
:class:`~repro.runtime.network.SecurityAbort` instead of being silently
ignored, blacklisting the offender.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..labels import Label
from ..splitter.fragments import (
    EdgeAction,
    Fragment,
    SplitProgram,
    TermCall,
)
from ..trust import KeyRegistry
from .checkpoint import (
    CheckpointTamperError,
    DurableStore,
    copy_state,
    recovery_blob,
)
from .compiler import CompiledFragment
from .ics import LocalStack
from .network import Message, SecurityAbort, Transport
from .tokens import Token, TokenFactory
from .values import REJECTED, ArrayRef, FrameID, ReturnInfo

#: Re-export of :data:`repro.runtime.values.REJECTED` under its
#: historical name (tests and the attack harness import it from here).
_REJECTED = REJECTED
_UNSEEN = object()


class ExecutionState:
    """The moving point of control: (entry, frame, token)."""

    __slots__ = ("entry", "frame", "token")

    def __init__(self, entry: str, frame: FrameID, token: Optional[Token]) -> None:
        self.entry = entry
        self.frame = frame
        self.token = token


class HaltSignal(Exception):
    """Raised internally when the root capability is consumed."""


class TrustedHost:
    """A well-behaved host executing its part of the split program."""

    def __init__(
        self,
        name: str,
        split: SplitProgram,
        network: Transport,
        registry: KeyRegistry,
        image,
        opt_level: int = 1,
        token_rng=None,
        checkpoint_interval: int = 4,
    ) -> None:
        self.name = name
        self.split = split
        self.network = network
        self.opt_level = opt_level
        #: this host's slice of the shared RuntimeImage (a
        #: :class:`~repro.runtime.session.HostImage`: entry tables,
        #: invoker ACLs, initial field values, precomputed forward
        #: integrity checks, the compiled-fragment cache).
        self._image = image
        self.factory = TokenFactory(name, registry, rng=token_rng)
        self.stack = LocalStack()
        #: idempotency table: processed msg_id -> result.  After a crash
        #: it is rebuilt from the durable store's WAL, so
        #: retransmissions stay suppressed across the crash.
        self._seen_requests: Dict[int, Any] = {}
        #: arrays allocated here: oid -> element list / element label.
        self.array_store: Dict[int, list] = {}
        self.array_meta: Dict[int, Label] = {}
        #: frame copies: FrameID -> variable slots ({name: value}).  The
        #: mapping is flat on purpose — one dict per frame, no wrapper —
        #: because the per-message hot path (forwarded variables, frame
        #: reads in fragment bodies) lives and dies on these lookups.
        self.frames: Dict[FrameID, Dict[str, Any]] = {}
        #: deferred data forwards: dst host -> {(fid, var): (value, label)}.
        self.pending: Dict[str, Dict[Tuple[int, str], Tuple[Any, Label, FrameID]]] = {}
        #: entries this host serves, with precomputed invoker ACLs
        #: (shared, never mutated — every session reads one copy).
        self.entries: Dict[str, Fragment] = image.entries
        self.entry_acl: Dict[str, frozenset] = image.entry_acl
        #: per-entry dispatch table: entry -> (fragment, invoker ACL)
        #: so sync/rgoto validation is one dict probe instead of two.
        self._entry_table: Dict[str, Tuple[Fragment, frozenset]] = (
            image.entry_table
        )
        #: fields stored here: (cls, field, oid) -> value.
        self.field_store: Dict[Tuple[str, str, Optional[int]], Any] = dict(
            image.field_defaults
        )
        #: cached program digest (checked on every remote request).
        self._digest = split.digest
        #: kind -> bound handler, replacing the if-chain in _dispatch.
        self._dispatch_table: Dict[str, Any] = {
            "getField": self._handle_get_field,
            "setField": self._handle_set_field,
            "forward": self._handle_forward,
            "sync": self._handle_sync,
            "rgoto": self._handle_rgoto,
            "lgoto": self._handle_lgoto,
            "recover": self._handle_recover,
        }
        #: latest recovery announcement (epoch, seq) seen per peer —
        #: lets stale re-deliveries of genuine announcements be no-ops.
        self.peer_epochs: Dict[str, Tuple[int, int]] = {}
        #: fragments lowered to closures, compiled on first entry and
        #: shared across hosts via the split program.
        self._compiled: Dict[str, CompiledFragment] = image.compiled
        self.checkpoint_interval = checkpoint_interval
        #: stable storage (WAL + sealed checkpoints).  Only materialized
        #: under fault injection, so fault-free runs stay bit-identical
        #: to the Section 3.1 model — no WAL writes, no seal hashing.
        self.durable: Optional[DurableStore] = None
        network.register(
            name, self.handle, on_crash=self.crash_wipe, on_restart=self.recover
        )
        if network.faults is not None:
            self.ensure_durable()

    def reset(
        self,
        opt_level: int = 1,
        token_rng=None,
        checkpoint_interval: int = 4,
    ) -> None:
        """Reset-in-place to a freshly constructed host.

        Clears every piece of per-run mutable state — ICS slice, dedup
        table, field/array stores, frames, deferred forwards, durable
        store — while keeping the shared immutable artifacts (entries,
        ACLs, compiled fragments, the host key).  The session pool calls
        this instead of rebuilding the host, so recycling costs a few
        dict clears rather than reconstruction.
        """
        self.opt_level = opt_level
        self.factory.reset(rng=token_rng)
        # crash_wipe may have replaced the stack object; clear whichever
        # one is installed (handler registrations reference the host,
        # not the stack, so identity does not matter).
        self.stack._stack.clear()
        self._seen_requests.clear()
        self.field_store = dict(self._image.field_defaults)
        self.array_store.clear()
        self.array_meta.clear()
        self.frames.clear()
        self.pending.clear()
        self.peer_epochs.clear()
        self.checkpoint_interval = checkpoint_interval
        keep_durable = self.durable is not None and (
            self.network.faults is not None
            or self.durable.backend is not None
        )
        if keep_durable:
            # Recycle the stable-storage object in place (persistent
            # rows included): clear the WAL and counters, then seal a
            # fresh base checkpoint of the just-reset state.
            self.durable.reset(interval=checkpoint_interval)
            self.durable.take_checkpoint(self.snapshot_state())
        else:
            self.durable = None
            if self.network.faults is not None:
                self.ensure_durable()

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------

    def frame(self, fid: FrameID) -> Dict[str, Any]:
        """The variable slots of frame ``fid`` (created on first touch)."""
        frame = self.frames.get(fid)
        if frame is None:
            frame = self.frames[fid] = {}
        return frame

    def var(self, fid: FrameID, name: str) -> Any:
        frame = self.frames.get(fid)
        if frame is None:
            frame = self.frames[fid] = {}
        value = frame.get(name, _UNSEEN)
        if value is not _UNSEEN:
            return value
        plan = self.split.methods[fid.method_key]
        return plan.default_value(name)

    def set_var(self, fid: FrameID, name: str, value: Any) -> None:
        frame = self.frames.get(fid)
        if frame is None:
            frame = self.frames[fid] = {}
        frame[name] = value
        if self.durable is not None:
            self.durable.log("var", fid, name, value)

    # ------------------------------------------------------------------
    # Incoming requests (Figure 6)
    # ------------------------------------------------------------------

    def handle(self, message: Message) -> Any:
        remote = message.src != self.name
        if remote:
            self.network.charge_check()
            if message.payload.get("digest") != self._digest:
                self.network.audit(
                    self.name, f"{message.kind} with mismatched program hash"
                )
                return self._reject(message)
            if message.msg_id is not None:
                # Reliable-delivery idempotency: a retransmission or
                # duplicate re-presents a processed key; answer from the
                # table instead of re-executing the request's effects.
                cached = self._seen_requests.get(message.msg_id, _UNSEEN)
                if cached is not _UNSEEN:
                    return cached
        handler = self._dispatch_table.get(message.kind)
        if handler is None:
            result = self._dispatch(message)  # audits the unknown kind
        else:
            result = handler(message)
        if remote:
            if message.msg_id is not None:
                # Write-ahead: the dedup entry must be durable before
                # the reply is released, or a crash + retransmission
                # would re-execute the request's effects (e.g. re-mint
                # a sync token and diverge from the fault-free run).
                self._seen_requests[message.msg_id] = result
                if self.durable is not None:
                    self.durable.log("seen", message.msg_id, result)
            if result is _REJECTED:
                return self._reject(message)
            if self.durable is not None:
                self._maybe_checkpoint()
        return result

    def _reject(self, message: Message) -> Any:
        """A validated-and-refused remote request: silently ignore it
        (Figure 6) — or, with the quarantine layer on, abort the run and
        blacklist the sender."""
        if self.network.quarantine_enabled:
            self.network.quarantine(
                message.src,
                self.name,
                f"{message.kind} from {message.src} rejected by {self.name}",
                message=message,
            )
        return _REJECTED

    def _dispatch(self, message: Message) -> Any:
        handler = self._dispatch_table.get(message.kind)
        if handler is None:
            self.network.audit(
                self.name, f"unknown request kind {message.kind!r}"
            )
            return _REJECTED
        return handler(message)

    def _handle_get_field(self, message: Message) -> Any:
        payload = message.payload
        if "array" in payload:
            return self._handle_get_element(message)
        key = (payload["cls"], payload["field"])
        placement = self.split.fields.get(key)
        if placement is None or placement.host != self.name:
            self.network.audit(self.name, f"getField for absent field {key}")
            return _REJECTED
        if message.src != self.name and message.src not in placement.readers:
            self.network.audit(
                self.name,
                f"getField {key} denied to {message.src}: "
                f"C(L_f) ⋢ C_{message.src}",
            )
            return _REJECTED
        store_key = (key[0], key[1], payload.get("oid"))
        if store_key not in self.field_store:
            self.field_store[store_key] = placement.default_value()
            if self.durable is not None:
                self.durable.log("field", store_key, self.field_store[store_key])
        value = self.field_store[store_key]
        if message.src != self.name:
            self.network.flow(placement.label, message.src)
        return value

    def _handle_get_element(self, message: Message) -> Any:
        payload = message.payload
        ref = payload["array"]
        if ref.oid not in self.array_store:
            self.network.audit(self.name, f"getField for absent array {ref}")
            return _REJECTED
        label = self.array_meta[ref.oid]
        requester = self.split.config.host(message.src)
        if message.src != self.name and not label.conf.flows_to(
            requester.conf, self.split.config.hierarchy
        ):
            self.network.audit(
                self.name,
                f"array read denied to {message.src}: C(L) ⋢ C_h",
            )
            return _REJECTED
        store = self.array_store[ref.oid]
        index = payload["idx"]
        if not 0 <= index < len(store):
            self.network.audit(
                self.name, f"array read out of bounds ({index})"
            )
            return _REJECTED
        if message.src != self.name:
            self.network.flow(label, message.src)
        return store[index]

    def _handle_set_element(self, message: Message) -> Any:
        payload = message.payload
        ref = payload["array"]
        if ref.oid not in self.array_store:
            self.network.audit(self.name, f"setField for absent array {ref}")
            return _REJECTED
        label = self.array_meta[ref.oid]
        sender = self.split.config.host(message.src)
        if message.src != self.name and not sender.integ.flows_to(
            label.integ, self.split.config.hierarchy
        ):
            self.network.audit(
                self.name,
                f"array write denied to {message.src}: I_h ⋢ I(L)",
            )
            return _REJECTED
        store = self.array_store[ref.oid]
        index = payload["idx"]
        if not 0 <= index < len(store):
            self.network.audit(
                self.name, f"array write out of bounds ({index})"
            )
            return _REJECTED
        store[index] = payload["value"]
        if self.durable is not None:
            self.durable.log("array_set", ref.oid, index, payload["value"])
        return True

    def _handle_set_field(self, message: Message) -> Any:
        payload = message.payload
        if "array" in payload:
            return self._handle_set_element(message)
        key = (payload["cls"], payload["field"])
        placement = self.split.fields.get(key)
        if placement is None or placement.host != self.name:
            self.network.audit(self.name, f"setField for absent field {key}")
            return _REJECTED
        if message.src != self.name and message.src not in placement.writers:
            self.network.audit(
                self.name,
                f"setField {key} denied to {message.src}: "
                f"I_{message.src} ⋢ I(L_f)",
            )
            return _REJECTED
        store_key = (key[0], key[1], payload.get("oid"))
        self.field_store[store_key] = payload["value"]
        if self.durable is not None:
            self.durable.log("field", store_key, payload["value"])
        return True

    def _handle_forward(self, message: Message) -> Any:
        """Apply forwarded frame variables after Figure 6's integrity
        check ``I_src ⊑ I(L_var)``, one variable at a time.

        Both sides of the check are static per split, so it is a lookup
        in the image's precomputed denied sets.  A sender that is not a
        configured host has no entry there and is denied every variable.
        A denied variable rejects the request (the accepted ones are
        still applied — they passed their own checks); honest senders
        never mix the two."""
        src = message.src
        remote = src != self.name
        if remote:
            image = self._image
            denied_pairs = image.forward_denied.get(src)
            unknown = denied_pairs is None
            constant_denied = unknown or src in image.constant_denied
        accepted = True
        for fid, var_values in message.payload["vars"].items():
            for var, value in var_values.items():
                if remote and (
                    unknown
                    or (fid.method_key, var) in denied_pairs
                    or (
                        constant_denied
                        and var
                        not in self.split.methods[fid.method_key].var_labels
                    )
                ):
                    self.network.audit(
                        self.name,
                        f"forward of {var} denied from {src}: "
                        f"I_{src} ⋢ I(L_var)",
                    )
                    accepted = False
                    continue
                self.set_var(fid, var, value)
        return True if accepted else _REJECTED

    def _handle_sync(self, message: Message) -> Any:
        payload = message.payload
        entry = payload["entry"]
        info = self._entry_table.get(entry)
        if info is None:
            self.network.audit(self.name, f"sync for unknown entry {entry}")
            return _REJECTED
        if message.src != self.name and message.src not in info[1]:
            self.network.audit(
                self.name,
                f"sync {entry} denied to {message.src}: I_i ⋢ I_e",
            )
            return _REJECTED
        token = self.factory.mint(payload["frame"], entry)
        if message.src != self.name:
            self.network.charge_hash()
        self.stack.push(token, payload.get("token"))
        if self.durable is not None:
            self.durable.log("push", token, payload.get("token"))
        return token

    def _handle_rgoto(self, message: Message) -> Any:
        payload = message.payload
        entry = payload["entry"]
        info = self._entry_table.get(entry)
        if info is None:
            self.network.audit(self.name, f"rgoto to unknown entry {entry}")
            return _REJECTED
        if message.src != self.name and message.src not in info[1]:
            self.network.audit(
                self.name,
                f"rgoto {entry} denied to {message.src}: I_i ⋢ I_e "
                f"(I_e = {{{info[0].integ}}})",
            )
            return _REJECTED
        self._apply_payload_data(message)
        state = ExecutionState(entry, payload["frame"], payload.get("token"))
        self.run_chain(state)
        return True

    def _handle_lgoto(self, message: Message) -> Any:
        token: Token = message.payload["token"]
        if token.host != self.name:
            self.network.audit(
                self.name, f"lgoto with foreign token for {token.entry}"
            )
            return _REJECTED
        if message.src != self.name:
            # Tokens used locally are never hashed (Section 7.4), so only
            # remote presentations pay for MAC verification.
            if not self.factory.verify(token):
                self.network.audit(
                    self.name, f"lgoto with forged token for {token.entry}"
                )
                return _REJECTED
            self.network.charge_hash()
        popped = self.stack.pop_if_top(token)
        if popped is None:
            self.network.audit(
                self.name,
                f"lgoto with stale/replayed token for {token.entry}",
            )
            return _REJECTED
        if self.durable is not None:
            self.durable.log("pop")
        self._apply_payload_data(message)
        (previous,) = popped
        if previous is None:
            # The root capability: the program is complete.
            raise HaltSignal()
        state = ExecutionState(token.entry, token.frame, previous)
        self.run_chain(state)
        return True

    def _apply_payload_data(self, message: Message) -> None:
        vars_payload = message.payload.get("vars")
        if vars_payload:
            self._handle_forward(
                Message(
                    "forward",
                    message.src,
                    self.name,
                    {
                        "vars": vars_payload,
                        "digest": message.payload.get("digest"),
                    },
                )
            )

    def _handle_recover(self, message: Message) -> Any:
        """A peer announces it has recovered from a volatile crash.

        The announcement must be sealed by the recovering host itself
        and must actually come from that host — a bad host can neither
        fabricate an announcement for a live peer nor forge one without
        the peer's key.  Stale re-deliveries of genuine announcements
        (nested crashes, duplicated messages) are benign no-ops, never
        violations: an honest host must not get quarantined for
        retransmitting.
        """
        payload = message.payload
        src = message.src
        claimed = payload.get("host")
        if claimed != src:
            self.network.audit(
                self.name,
                f"recovery announcement for {claimed!r} sent by {src}",
            )
            return _REJECTED
        epoch = payload.get("epoch")
        seq = payload.get("seq")
        if not isinstance(epoch, int) or not isinstance(seq, int):
            self.network.audit(
                self.name, f"malformed recovery announcement from {src}"
            )
            return _REJECTED
        if not self.factory.verify_seal(
            src, "recover", recovery_blob(src, epoch, seq), payload.get("seal")
        ):
            self.network.audit(
                self.name, f"forged recovery seal from {src}"
            )
            return _REJECTED
        self.network.charge_hash()
        last = self.peer_epochs.get(src)
        if last is not None and (epoch, seq) <= last:
            return True
        self.peer_epochs[src] = (epoch, seq)
        if self.durable is not None:
            self.durable.log("peer_epoch", src, (epoch, seq))
        self._reforward_pending(src)
        return True

    def _reforward_pending(self, target: str) -> None:
        """Re-flush deferred forwards to a freshly recovered peer.

        The values are the same ones a later control transfer would have
        carried (deferred forwards are computed at defer time), so
        sending them early cannot change any final field or variable —
        it just guarantees the recovered host is not waiting on data.
        """
        slots = self.pending.get(target)
        if not slots:
            return
        vars_payload: Dict[FrameID, Dict[str, Any]] = {}
        labels = []
        for (fid_num, var), (value, label, fid) in slots.items():
            vars_payload.setdefault(fid, {})[var] = value
            labels.append(label)
            self.network.flow(label, target)
        slots.clear()
        if self.durable is not None:
            self.durable.log("pending_clear", target)
        self.network.request(
            Message(
                "forward",
                self.name,
                target,
                {"vars": vars_payload, "digest": self.split.digest},
                data_labels=labels,
            )
        )

    # ------------------------------------------------------------------
    # Crash recovery (durable store, checkpoints, WAL replay)
    # ------------------------------------------------------------------

    def ensure_durable(self) -> DurableStore:
        """The host's stable storage, materialized on first use with a
        sealed checkpoint of the current state."""
        if self.durable is None:
            self.durable = DurableStore(
                self.name, self.factory, interval=self.checkpoint_interval
            )
            self.durable.take_checkpoint(self.snapshot_state())
        return self.durable

    def take_checkpoint(self):
        """Seal the current state as a new checkpoint (compacts the WAL)."""
        store = self.ensure_durable()
        checkpoint = store.take_checkpoint(self.snapshot_state())
        # Checkpoint trace events belong to the fault-injection trace;
        # a persistent backend alone checkpoints silently so that
        # storage-backed fault-free runs keep an empty event log.
        if self.network.faults is not None:
            self.network._emit(
                "checkpoint", None, self.name,
                f"epoch {checkpoint.epoch} sealed, WAL compacted",
            )
        return checkpoint

    def attach_storage(self, storage) -> None:
        """Wire this host's durable store to ``storage``'s persistent
        tier (a :class:`~repro.runtime.storage.sqlite_backend.
        SessionStorage`), materializing the store if needed and
        publishing the current checkpoint + WAL through the backend."""
        backend = storage.backend_for(self.name)
        if self.durable is None:
            self.durable = DurableStore(
                self.name, self.factory, interval=self.checkpoint_interval,
                backend=backend,
            )
            self.durable.take_checkpoint(self.snapshot_state())
        else:
            self.durable.backend = backend
            self.durable.republish()

    def detach_storage(self) -> None:
        """Drop the persistent tier (degradation or explicit detach);
        the in-memory store keeps running fail-closed."""
        if self.durable is not None:
            self.durable.backend = None

    def _maybe_checkpoint(self) -> None:
        store = self.durable
        store.processed += 1
        if store.processed >= store.interval:
            self.take_checkpoint()

    def snapshot_state(self) -> Dict[str, Any]:
        """A copy of everything a bit-identical recovery must restore."""
        return copy_state(
            {
                "fields": self.field_store,
                "arrays": self.array_store,
                "array_meta": self.array_meta,
                "frames": self.frames,
                "stack": self.stack._stack,
                "seen": self._seen_requests,
                "pending": self.pending,
                "peer_epochs": self.peer_epochs,
            }
        )

    def crash_wipe(self) -> None:
        """A volatile-state crash: everything outside the durable store
        is lost.  Keys (the token factory) model secure hardware and the
        program text is re-read from the split, so both survive."""
        self.stack = LocalStack()
        self._seen_requests = {}
        self.field_store = {}
        self.array_store = {}
        self.array_meta = {}
        self.frames = {}
        self.pending = {}
        self.peer_epochs = {}

    def recover(self) -> None:
        """Restart after a volatile crash: verify + install the sealed
        checkpoint, replay the WAL, and announce the recovery.

        Tampered stable storage (forged seal, rolled-back epoch) fails
        closed with :class:`~repro.runtime.network.SecurityAbort` —
        running from forged state would hand the storage attacker the
        host's integrity.
        """
        store = self.durable
        if store is None:
            return
        try:
            state, wal = store.load()
        except CheckpointTamperError as error:
            self.network.audit(self.name, str(error))
            self.network._emit("quarantine", None, self.name, str(error))
            raise SecurityAbort(None, self.name, str(error)) from error
        self._install_state(state)
        for entry in wal:
            self._replay(entry)
        store.recoveries += 1
        self.network._emit(
            "recover", None, self.name,
            f"epoch {store.high_water} + {len(wal)} WAL entries "
            f"(recovery #{store.recoveries})",
        )
        self._announce_recovery()

    def _install_state(self, state: Dict[str, Any]) -> None:
        self.field_store = state["fields"]
        self.array_store = state["arrays"]
        self.array_meta = state["array_meta"]
        self.frames = state["frames"]
        stack = LocalStack()
        stack._stack = list(state["stack"])
        self.stack = stack
        self._seen_requests = state["seen"]
        self.pending = state["pending"]
        self.peer_epochs = state["peer_epochs"]

    def _replay(self, entry: Tuple) -> None:
        """Re-apply one WAL record (state mutations only — no messages
        are sent and no charges accrue; the effects already happened
        before the crash)."""
        op = entry[0]
        if op == "var":
            _, fid, name, value = entry
            self.frame(fid)[name] = value
        elif op == "field":
            self.field_store[entry[1]] = entry[2]
        elif op == "array_new":
            _, oid, length, label = entry
            self.array_store[oid] = [0] * length
            self.array_meta[oid] = label
        elif op == "array_set":
            self.array_store[entry[1]][entry[2]] = entry[3]
        elif op == "push":
            self.stack.push(entry[1], entry[2])
        elif op == "pop":
            self.stack._stack.pop()
        elif op == "seen":
            self._seen_requests[entry[1]] = entry[2]
        elif op == "pending":
            _, target, slot, value, label, fid = entry
            self.pending.setdefault(target, {})[slot] = (value, label, fid)
        elif op == "pending_clear":
            self.pending.get(entry[1], {}).clear()
        elif op == "peer_epoch":
            self.peer_epochs[entry[1]] = entry[2]
        else:
            raise AssertionError(f"unknown WAL record {entry!r}")

    def _announce_recovery(self) -> None:
        """Broadcast a sealed ``recover`` message so peers re-forward
        pending data and accept the host back into the run."""
        store = self.durable
        # Snapshot epoch/seq: announcing to one peer can trigger
        # re-forwards back to us, and handling those may seal a fresh
        # checkpoint — the remaining peers must still get the payload
        # the seal actually covers.
        epoch, seq = store.high_water, store.recoveries
        seal = self.factory.seal(
            "recover", recovery_blob(self.name, epoch, seq)
        )
        for descriptor in self.split.config.hosts:
            peer = descriptor.name
            if peer == self.name:
                continue
            self.network.request(
                Message(
                    "recover",
                    self.name,
                    peer,
                    {
                        "host": self.name,
                        "epoch": epoch,
                        "seq": seq,
                        "seal": seal,
                        "digest": self.split.digest,
                    },
                )
            )

    def adopt_root(self, token: Token) -> None:
        """Install the root capability t0 (WAL-logged like any push, so
        a crash before the first checkpoint still recovers it)."""
        self.stack.push(token, None)
        if self.durable is not None:
            self.durable.log("push", token, None)

    # ------------------------------------------------------------------
    # Fragment execution
    # ------------------------------------------------------------------

    def run_chain(self, state: ExecutionState) -> None:
        """Execute fragments locally until control leaves this host.

        Each fragment is compiled on its first entry (the compiled form
        is shared by every host and session over the split program) and
        charged ``len(fragment.ops) + 1`` simulated ops.
        """
        compiled = self._compiled
        charge_ops = self.network.charge_ops
        while True:
            entry = state.entry
            fragment = compiled.get(entry)
            if fragment is None:
                fragment = compiled[entry] = CompiledFragment(
                    self.split.fragments[entry]
                )
            assert fragment.host == self.name, (
                f"{self.name} asked to run {entry}"
            )
            charge_ops(fragment.charge)
            for op_fn in fragment.ops:
                op_fn(self, state)
            next_state = fragment.terminator(self, state)
            if next_state is None:
                return
            state = next_state

    # -- data forwarding ----------------------------------------------------------

    def defer_forward(
        self, target: str, slot: Tuple[int, str], value: Any, label: Label,
        frame: FrameID,
    ) -> None:
        """Defer a data forward to ``target`` (WAL-logged)."""
        self.pending.setdefault(target, {})[slot] = (value, label, frame)
        if self.durable is not None:
            self.durable.log("pending", target, slot, value, label, frame)

    def flush_forwards(
        self, piggyback_for: Optional[str]
    ) -> Optional[Dict[FrameID, Dict[str, Any]]]:
        """Send all deferred forwards; values destined to
        ``piggyback_for`` are returned for inclusion in the transfer
        message instead of being sent separately."""
        # Fast exit for the common chain with nothing deferred: the
        # per-target slot dicts stay allocated after a flush (replay
        # bookkeeping keys on them), so test emptiness, not key count.
        if not any(self.pending.values()):
            return None
        piggyback: Optional[Dict[FrameID, Dict[str, Any]]] = None
        for target in sorted(self.pending):
            slots = self.pending[target]
            if not slots:
                continue
            if target == piggyback_for and self.opt_level >= 1:
                piggyback = {}
                for (fid_num, var), (value, label, fid) in slots.items():
                    piggyback.setdefault(fid, {})[var] = value
                    self.network.flow(label, target)
                self.network.note_eliminated(len(slots))
                slots.clear()
                if self.durable is not None:
                    self.durable.log("pending_clear", target)
                continue
            vars_payload: Dict[FrameID, Dict[str, Any]] = {}
            labels = []
            for (fid_num, var), (value, label, fid) in slots.items():
                vars_payload.setdefault(fid, {})[var] = value
                labels.append(label)
                self.network.flow(label, target)
            if self.opt_level >= 1 and len(slots) > 1:
                self.network.note_eliminated(len(slots) - 1)
            message = Message(
                "forward",
                self.name,
                target,
                {"vars": vars_payload, "digest": self.split.digest},
                data_labels=labels,
            )
            slots.clear()
            if self.durable is not None:
                self.durable.log("pending_clear", target)
            if self.opt_level >= 2:
                # The paper's proposed (unimplemented) optimization:
                # forwards need no acknowledgment.
                self.network.one_way(message)
            else:
                self.network.request(message)
        return piggyback

    # -- terminators ---------------------------------------------------------------

    def _run_plan(
        self, plan: List[EdgeAction], state: ExecutionState
    ) -> Optional[ExecutionState]:
        token = state.token
        for action in plan:
            if action.kind == "local":
                state.entry = action.entry
                state.token = token
                return state
            if action.kind == "sync":
                token = self._do_sync(action.entry, state.frame, token)
                if token is None:
                    return None
            elif action.kind == "rgoto":
                self._do_rgoto(action.entry, state.frame, token)
                return None
            elif action.kind == "lgoto":
                self._do_lgoto(token)
                return None
            elif action.kind == "halt":
                raise HaltSignal()
        return None

    def _do_sync(
        self, entry: str, frame: FrameID, token: Optional[Token]
    ) -> Optional[Token]:
        target_host = self.split.entry_host(entry)
        if target_host == self.name and entry in self._entry_table:
            # Local sync fast path: a request to ourselves never touches
            # the network (no counts, no charges — the general path's
            # src == dst case), the entry is ours, and the ACL cannot
            # deny the host itself, so this is exactly _handle_sync
            # minus the Message round trip.
            minted = self.factory.mint(frame, entry)
            self.stack.push(minted, token)
            if self.durable is not None:
                self.durable.log("push", minted, token)
            return minted
        message = Message(
            "sync",
            self.name,
            target_host,
            {
                "entry": entry,
                "frame": frame,
                "token": token,
                "digest": self.split.digest,
            },
        )
        result = self.network.request(message)
        if result is _REJECTED:
            self.network.audit(self.name, f"sync to {entry} was rejected")
            return None
        return result

    def _do_rgoto(
        self, entry: str, frame: FrameID, token: Optional[Token],
        extra_vars: Optional[Dict[FrameID, Dict[str, Any]]] = None,
    ) -> None:
        target_host = self.split.entry_host(entry)
        piggyback = self.flush_forwards(piggyback_for=target_host)
        vars_payload = piggyback or {}
        if extra_vars:
            for fid, values in extra_vars.items():
                vars_payload.setdefault(fid, {}).update(values)
        message = Message(
            "rgoto",
            self.name,
            target_host,
            {
                "entry": entry,
                "frame": frame,
                "token": token,
                "vars": vars_payload,
                "digest": self.split.digest,
            },
        )
        self.network.post(message)

    def _do_lgoto(
        self, token: Optional[Token],
        extra_vars: Optional[Dict[FrameID, Dict[str, Any]]] = None,
    ) -> None:
        if token is None:
            raise HaltSignal()
        piggyback = self.flush_forwards(piggyback_for=token.host)
        vars_payload = piggyback or {}
        if extra_vars:
            for fid, values in extra_vars.items():
                vars_payload.setdefault(fid, {}).update(values)
        message = Message(
            "lgoto",
            self.name,
            token.host,
            {
                "token": token,
                "vars": vars_payload,
                "digest": self.split.digest,
            },
        )
        self.network.post(message)

    def _finish_call(
        self,
        terminator: TermCall,
        state: ExecutionState,
        arg_values: Dict[str, Any],
    ) -> Optional[ExecutionState]:
        """A call terminator once its arguments are evaluated."""
        # Sync the continuation on this host (a local ICS push).
        cont_token = self._do_sync(
            terminator.cont_entry, state.frame, state.token
        )
        if cont_token is None:
            return None
        callee_frame = FrameID(terminator.callee_key)
        callee_host = self.split.entry_host(terminator.callee_entry)
        plan = self.split.methods[terminator.callee_key]
        # Route each argument directly to the hosts that read the
        # parameter — not to hosts that merely run other callee code.
        rgoto_payload: Dict[str, Any] = {}
        for param, value in arg_values.items():
            label = plan.var_labels.get(param, Label.constant())
            for target in terminator.arg_hosts.get(param, ()):
                if target == self.name:
                    self.set_var(callee_frame, param, value)
                elif target == callee_host:
                    rgoto_payload[param] = value
                    self.network.flow(label, target)
                else:
                    self.defer_forward(
                        target, (callee_frame.fid, param), value, label,
                        callee_frame,
                    )
        if callee_host == self.name:
            for param, value in rgoto_payload.items():
                self.set_var(callee_frame, param, value)
            return ExecutionState(
                terminator.callee_entry, callee_frame, cont_token
            )
        self._do_rgoto(
            terminator.callee_entry,
            callee_frame,
            cont_token,
            extra_vars={callee_frame: rgoto_payload} if rgoto_payload else None,
        )
        return None

    def _finish_return(
        self, state: ExecutionState, value: Any
    ) -> Optional[ExecutionState]:
        """A return terminator once its value is evaluated."""
        token = state.token
        if token is None:
            raise HaltSignal()
        # The whole return route is static per continuation entry: the
        # capability names the caller's host and frame, the split program
        # names the result variable and the hosts that consume it.
        result_var, result_hosts = self.split.cont_result(token.entry)
        retval_payload: Optional[Dict[FrameID, Dict[str, Any]]] = None
        if result_var is not None and value is not None:
            plan = self.split.methods[token.frame.method_key]
            label = plan.var_labels.get(result_var, Label.constant())
            for target in result_hosts:
                if target == self.name:
                    self.set_var(token.frame, result_var, value)
                elif self.opt_level >= 2 and target == token.host:
                    # Piggyback the return value on the lgoto (the
                    # paper's proposed optimization).
                    retval_payload = {token.frame: {result_var: value}}
                    self.network.flow(label, target)
                    self.network.note_eliminated(1)
                else:
                    self.network.flow(label, target)
                    self.network.request(
                        Message(
                            "forward",
                            self.name,
                            target,
                            {
                                "vars": {token.frame: {result_var: value}},
                                "digest": self.split.digest,
                            },
                            data_labels=[label],
                        )
                    )
        if token.host == self.name:
            # A local return: pop our own stack directly; deferred
            # forwards keep riding until control actually leaves.
            popped = self.stack.pop_if_top(token)
            if popped is None:
                self.network.audit(self.name, "local lgoto with stale token")
                return None
            if self.durable is not None:
                self.durable.log("pop")
            (previous,) = popped
            if previous is None:
                raise HaltSignal()
            return ExecutionState(token.entry, token.frame, previous)
        self._do_lgoto(token, extra_vars=retval_payload)
        return None

    # ------------------------------------------------------------------
    # Array element access (counted as getField/setField, like the
    # paper's run-time array support)
    # ------------------------------------------------------------------

    def alloc_array(self, length: int, label: Label) -> ArrayRef:
        """Allocate a local array (WAL-logged so recovery re-creates it
        under the same oid)."""
        ref = ArrayRef(length, self.name, label)
        self.array_store[ref.oid] = [0] * length
        self.array_meta[ref.oid] = label
        if self.durable is not None:
            self.durable.log("array_new", ref.oid, length, label)
        return ref

    def read_element(self, ref, index: int) -> Any:
        if ref is None:
            raise RuntimeError("null dereference in array read")
        if ref.host == self.name:
            store = self.array_store[ref.oid]
            if not 0 <= index < len(store):
                raise RuntimeError(
                    f"array index {index} out of bounds [0, {len(store)})"
                )
            return store[index]
        result = self.network.request(
            Message(
                "getField",
                self.name,
                ref.host,
                {"array": ref, "idx": index, "digest": self.split.digest},
                data_labels=[ref.label],
            )
        )
        if result is _REJECTED:
            raise RuntimeError(f"array read rejected for {self.name}")
        return result

    def write_element(self, ref, index: int, value: Any) -> None:
        if ref is None:
            raise RuntimeError("null dereference in array write")
        if ref.host == self.name:
            store = self.array_store[ref.oid]
            if not 0 <= index < len(store):
                raise RuntimeError(
                    f"array index {index} out of bounds [0, {len(store)})"
                )
            store[index] = value
            if self.durable is not None:
                self.durable.log("array_set", ref.oid, index, value)
            return
        self.network.flow(ref.label, ref.host)
        result = self.network.request(
            Message(
                "setField",
                self.name,
                ref.host,
                {"array": ref, "idx": index, "value": value,
                 "digest": self.split.digest},
            )
        )
        if result is _REJECTED:
            raise RuntimeError(f"array write rejected for {self.name}")

    # ------------------------------------------------------------------
    # Field access
    # ------------------------------------------------------------------

    def read_field(self, cls: str, field: str, oid: Optional[int]) -> Any:
        placement = self.split.fields[(cls, field)]
        if placement.host == self.name:
            store_key = (cls, field, oid)
            if store_key not in self.field_store:
                self.field_store[store_key] = placement.default_value()
                if self.durable is not None:
                    self.durable.log(
                        "field", store_key, self.field_store[store_key]
                    )
            return self.field_store[store_key]
        result = self.network.request(
            Message(
                "getField",
                self.name,
                placement.host,
                {"cls": cls, "field": field, "oid": oid,
                 "digest": self.split.digest},
                data_labels=[placement.label],
            )
        )
        if result is _REJECTED:
            raise RuntimeError(
                f"getField {cls}.{field} rejected for {self.name}"
            )
        return result

    def write_field(
        self, cls: str, field: str, oid: Optional[int], value: Any
    ) -> None:
        placement = self.split.fields[(cls, field)]
        if placement.host == self.name:
            self.field_store[(cls, field, oid)] = value
            if self.durable is not None:
                self.durable.log("field", (cls, field, oid), value)
            return
        self.network.flow(placement.label, placement.host)
        result = self.network.request(
            Message(
                "setField",
                self.name,
                placement.host,
                {"cls": cls, "field": field, "oid": oid, "value": value,
                 "digest": self.split.digest},
            )
        )
        if result is _REJECTED:
            raise RuntimeError(
                f"setField {cls}.{field} rejected for {self.name}"
            )
