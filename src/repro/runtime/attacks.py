"""Adversarial hosts (Section 3.2's threat model).

A *bad host* has full access to the part of the program executing on it,
can fabricate apparently-authentic messages from other bad hosts, and
can share information with them — but it cannot forge messages from good
hosts, and it cannot mint the capability tokens good hosts sign.

The :class:`Adversary` drives every attack the paper's dynamic checks
must stop (Figure 6): illegal field reads/writes, rgoto/sync to
privileged entry points, forged and replayed capabilities, mismatched
program hashes, and low-integrity data forwards — plus the
crash-recovery protocol's attack surface: forged checkpoint seals,
rolled-back checkpoint replays, and fabricated recovery announcements
for live hosts.  Each attempt reports whether the good host rejected
it.

Creating an :class:`Adversary` switches the network's quarantine layer
on: a detected violation no longer just returns ``_REJECTED`` — it
raises :class:`~repro.runtime.network.SecurityAbort` and blacklists the
bad host, which is exactly the fail-closed unwinding the session needs
instead of a stall.  The attack helpers catch the abort and record it
as a rejection.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional

from ..splitter.fragments import SplitProgram
from .checkpoint import Checkpoint, CheckpointTamperError
from .host import _REJECTED, TrustedHost
from .network import Message, SecurityAbort
from .session import Session
from .tokens import Token, forged_token
from .values import FrameID


class AttackReport:
    """Outcome of one attack attempt."""

    __slots__ = ("name", "rejected", "detail")

    def __init__(self, name: str, rejected: bool, detail: str = "") -> None:
        self.name = name
        self.rejected = rejected
        self.detail = detail

    def __repr__(self) -> str:
        verdict = "REJECTED" if self.rejected else "!! ACCEPTED !!"
        return f"AttackReport({self.name}: {verdict})"


class Adversary:
    """A subverted host mounting attacks against the good hosts."""

    def __init__(self, session: Session, bad_host: str) -> None:
        self.session = session
        self.network = session.network
        self.split: SplitProgram = session.split
        self.bad_host = bad_host
        self.reports: List[AttackReport] = []
        #: capabilities observed in transit to the bad host.
        self.captured_tokens: List[Token] = []
        # Once an adversary is in play, detections escalate: reject,
        # blacklist, and unwind via SecurityAbort.
        self.network.quarantine_enabled = True

    # -- reconnaissance ---------------------------------------------------------

    def capture_tokens(self) -> List[Token]:
        """Harvest every token a good host ever sent to the bad host.

        Bad hosts legitimately receive capabilities (to pass back via
        lgoto); the question is what they can do with them.
        """
        for message in self.network.message_log:
            if message.dst != self.bad_host:
                continue
            token = message.payload.get("token")
            if isinstance(token, Token):
                self.captured_tokens.append(token)
        return self.captured_tokens

    def _note(self, name: str, outcome: Any, detail: str = "") -> AttackReport:
        rejected = (
            outcome is _REJECTED
            or outcome is None
            or outcome is False
            or isinstance(outcome, (SecurityAbort, CheckpointTamperError))
        )
        report = AttackReport(name, rejected, detail)
        self.reports.append(report)
        return report

    def _request(self, message: Message) -> Any:
        """Send an attack message; a SecurityAbort counts as rejection.

        With quarantine on, the victim's detection raises instead of
        returning ``_REJECTED`` — and once the bad host is blacklisted,
        even *reaching* a good host raises.  Either way the attack
        failed, so return the abort for :meth:`_note` to record.
        """
        try:
            return self.network.request(message)
        except SecurityAbort as abort:
            return abort

    def _payload(self, **kwargs: Any) -> dict:
        payload = {"digest": self.split.digest}
        payload.update(kwargs)
        return payload

    # -- field attacks -----------------------------------------------------------

    def try_get_field(self, cls: str, field: str) -> AttackReport:
        """Request a field the bad host is not cleared to read."""
        placement = self.split.fields[(cls, field)]
        outcome = self._request(
            Message(
                "getField",
                self.bad_host,
                placement.host,
                self._payload(cls=cls, field=field, oid=None),
            )
        )
        return self._note(f"getField {cls}.{field}", outcome)

    def try_set_field(self, cls: str, field: str, value: Any) -> AttackReport:
        """Corrupt a field whose integrity the bad host lacks."""
        placement = self.split.fields[(cls, field)]
        outcome = self._request(
            Message(
                "setField",
                self.bad_host,
                placement.host,
                self._payload(cls=cls, field=field, oid=None, value=value),
            )
        )
        return self._note(f"setField {cls}.{field}", outcome)

    # -- control attacks -----------------------------------------------------------

    def try_rgoto(self, entry: str, frame: Optional[FrameID] = None) -> AttackReport:
        """Invoke a privileged entry point directly (Section 5.4: 'if B
        maliciously attempts to invoke any entry point ... the access
        control checks deny the operation')."""
        fragment = self.split.fragments[entry]
        frame = frame or FrameID(fragment.method_key)
        outcome = self._request(
            Message(
                "rgoto",
                self.bad_host,
                fragment.host,
                self._payload(entry=entry, frame=frame, token=None, vars={}),
            )
        )
        return self._note(f"rgoto {entry}", outcome)

    def try_sync(self, entry: str) -> AttackReport:
        """Ask a good host to mint a capability the bad host may not have."""
        fragment = self.split.fragments[entry]
        outcome = self._request(
            Message(
                "sync",
                self.bad_host,
                fragment.host,
                self._payload(
                    entry=entry,
                    frame=FrameID(fragment.method_key),
                    token=None,
                ),
            )
        )
        if isinstance(outcome, Token):
            return self._note(f"sync {entry}", outcome, "token minted!")
        return self._note(f"sync {entry}", outcome)

    def try_forged_lgoto(self, entry: str) -> AttackReport:
        """Present a token with a fabricated MAC."""
        fragment = self.split.fragments[entry]
        token = forged_token(FrameID(fragment.method_key), entry, fragment.host)
        outcome = self._request(
            Message(
                "lgoto",
                self.bad_host,
                fragment.host,
                self._payload(token=token, vars={}),
            )
        )
        return self._note(f"forged lgoto {entry}", outcome)

    def try_replay(self, token: Token) -> AttackReport:
        """Replay a previously consumed capability (one-shot check)."""
        outcome = self._request(
            Message(
                "lgoto",
                self.bad_host,
                token.host,
                self._payload(token=token, vars={}),
            )
        )
        return self._note(f"replay lgoto {token.entry}", outcome)

    def try_wrong_program(self, cls: str, field: str) -> AttackReport:
        """Speak for a different partitioning (Section 8's hash check)."""
        placement = self.split.fields[(cls, field)]
        outcome = self._request(
            Message(
                "getField",
                self.bad_host,
                placement.host,
                {"cls": cls, "field": field, "oid": None,
                 "digest": b"not-the-program-you-agreed-to"},
            )
        )
        return self._note(f"mismatched hash getField {cls}.{field}", outcome)

    def try_forward(
        self, method_key, var: str, value: Any, target_host: str
    ) -> AttackReport:
        """Forward corrupt data into a trusted frame variable."""
        frame = FrameID(method_key)
        outcome = self._request(
            Message(
                "forward",
                self.bad_host,
                target_host,
                self._payload(vars={frame: {var: value}}),
            )
        )
        return self._note(f"forward {var} to {target_host}", outcome)

    # -- recovery-protocol attacks --------------------------------------------------

    def _force_recovery(
        self, host: TrustedHost, restore: Callable[[], None]
    ) -> Any:
        """Crash ``host`` onto tampered durable storage and watch it
        refuse to come back up.

        The attack *succeeds* only if the host recovers from the
        tampered storage without noticing.  On detection the genuine
        storage is put back and the victim recovered cleanly, so later
        attacks (and the program, if still running) see a healthy host.
        """
        host.crash_wipe()
        try:
            host.recover()
        except (SecurityAbort, CheckpointTamperError) as abort:
            restore()
            host.crash_wipe()
            host.recover()
            return abort
        return True

    def try_forged_checkpoint(self, victim: str) -> AttackReport:
        """Swap in a checkpoint sealed with a fabricated MAC.

        Bad hosts cannot compute a good host's HMAC, so the best they
        can do against storage they control is attach a random seal.
        The victim's recovery must fail closed.
        """
        host = self.session.hosts[victim]
        host.ensure_durable()
        store = host.durable
        genuine_checkpoint, genuine_wal = store.checkpoint, list(store.wal)

        def restore() -> None:
            store.checkpoint = genuine_checkpoint
            store.wal = list(genuine_wal)

        forged = Checkpoint(
            victim, store.high_water, host.snapshot_state(),
            seal=os.urandom(32),
        )
        store.checkpoint = forged
        store.wal = []
        outcome = self._force_recovery(host, restore)
        return self._note(
            f"forged checkpoint seal on {victim}", outcome,
            "recovered from a forged checkpoint!" if outcome is True else "",
        )

    def try_checkpoint_rollback(self, victim: str) -> AttackReport:
        """Replay an older — genuinely sealed — checkpoint.

        The stale checkpoint's seal verifies, but its epoch no longer
        matches the sealed high-water counter, so the rollback is
        detected (the TPM-register trick).
        """
        host = self.session.hosts[victim]
        host.ensure_durable()
        store = host.durable
        stale = store.checkpoint
        host.take_checkpoint()  # legitimate progress bumps high_water
        fresh = store.checkpoint

        def restore() -> None:
            store.checkpoint = fresh
            store.wal = []

        store.checkpoint = stale
        store.wal = []
        outcome = self._force_recovery(host, restore)
        return self._note(
            f"checkpoint rollback on {victim}", outcome,
            "recovered from a rolled-back checkpoint!"
            if outcome is True else "",
        )

    def try_fake_recovery(
        self, live_host: str, target: Optional[str] = None
    ) -> AttackReport:
        """Announce a recovery on behalf of a live good host.

        A peer believing this would re-forward pending data and reset
        its duplicate-suppression view of ``live_host``.  The bad host
        cannot seal the announcement, and it cannot even claim to *be*
        ``live_host`` (good hosts check the claimed identity against
        the authenticated message source), so the announcement is
        rejected and the bad host quarantined.
        """
        if target is None:
            target = next(
                descriptor.name
                for descriptor in self.split.config.hosts
                if descriptor.name not in (self.bad_host, live_host)
            )
        outcome = self._request(
            Message(
                "recover",
                self.bad_host,
                target,
                self._payload(
                    host=live_host, epoch=1, seq=1, seal=os.urandom(32)
                ),
            )
        )
        return self._note(
            f"fake recovery announcement for {live_host}", outcome
        )

    # -- summaries ------------------------------------------------------------------

    def all_rejected(self) -> bool:
        return all(report.rejected for report in self.reports)

    def accepted(self) -> List[AttackReport]:
        return [report for report in self.reports if not report.rejected]
