"""Attack simulations: every Figure 6 dynamic check under fire.

The threat model is Section 3.2: bad hosts fabricate messages, replay
capabilities, and probe privileged entry points; good hosts must ignore
each attempt (and log it for auditing)."""

import pytest

from repro.runtime import (
    Adversary,
    FaultInjector,
    FaultPolicy,
    FrameID,
    Message,
    RuntimeImage,
    SecurityAbort,
    Session,
)
from repro.runtime.values import REJECTED
from repro.splitter import split_source

from tests.programs import OT_SOURCE, PINGPONG_SOURCE, config_abt


@pytest.fixture
def ot_run():
    result = split_source(OT_SOURCE, config_abt())
    session = Session(RuntimeImage.for_split(result.split))
    outcome = session.run()
    return result, session, outcome


class TestFieldAttacks:
    def test_bob_cannot_read_alices_secrets(self, ot_run):
        result, session, _ = ot_run
        adversary = Adversary(session, "B")
        assert adversary.try_get_field("OTExample", "m1").rejected
        assert adversary.try_get_field("OTExample", "m2").rejected

    def test_bob_cannot_corrupt_is_accessed(self, ot_run):
        """Resetting isAccessed would let Bob take both secrets."""
        result, session, outcome = ot_run
        adversary = Adversary(session, "B")
        assert adversary.try_set_field("OTExample", "isAccessed", False).rejected
        assert outcome.field_value("OTExample", "isAccessed") is True

    def test_denied_requests_are_audited(self, ot_run):
        result, session, _ = ot_run
        adversary = Adversary(session, "B")
        adversary.try_get_field("OTExample", "m1")
        assert any("denied to B" in entry for entry in session.network.audit_log)

    def test_alice_cannot_read_bobs_request_from_a(self, ot_run):
        """Symmetric protection: host A may not read Bob's field."""
        result, session, _ = ot_run
        adversary = Adversary(session, "A")
        placement = result.split.fields[("OTExample", "request")]
        if placement.host != "A":
            assert adversary.try_get_field("OTExample", "request").rejected


class TestControlAttacks:
    def test_bob_cannot_invoke_transfer_directly(self, ot_run):
        """Section 5.4: B may not rgoto any entry on T or A."""
        result, session, _ = ot_run
        adversary = Adversary(session, "B")
        for entry, fragment in result.split.fragments.items():
            if fragment.host in ("A", "T") and fragment.remote_entry:
                assert adversary.try_rgoto(entry).rejected, entry

    def test_bob_cannot_sync_privileged_entries(self, ot_run):
        result, session, _ = ot_run
        adversary = Adversary(session, "B")
        for entry, fragment in result.split.fragments.items():
            if fragment.host in ("A", "T") and fragment.remote_entry:
                assert adversary.try_sync(entry).rejected, entry

    def test_forged_tokens_rejected(self, ot_run):
        result, session, _ = ot_run
        adversary = Adversary(session, "B")
        for entry, fragment in result.split.fragments.items():
            if fragment.host != "B":
                assert adversary.try_forged_lgoto(entry).rejected

    def test_capability_replay_rejected(self, ot_run):
        """The one-shot property: a consumed capability is dead.

        This is exactly the race of Section 5.4 — Bob re-presenting t1
        to sneak a second request for Alice's other secret."""
        result, session, _ = ot_run
        adversary = Adversary(session, "B")
        tokens = adversary.capture_tokens()
        assert tokens, "B should have legitimately received a capability"
        for token in tokens:
            assert adversary.try_replay(token).rejected

    def test_race_for_both_secrets_fails(self, ot_run):
        """After a full honest run, nothing Bob can send yields m2."""
        result, session, outcome = ot_run
        adversary = Adversary(session, "B")
        adversary.capture_tokens()
        adversary.try_get_field("OTExample", "m2")
        adversary.try_set_field("OTExample", "isAccessed", False)
        transfer_entry = result.split.methods[("OTExample", "transfer")].entry
        adversary.try_rgoto(transfer_entry)
        for token in adversary.captured_tokens:
            adversary.try_replay(token)
        assert adversary.all_rejected()

    def test_mismatched_program_hash_rejected(self, ot_run):
        """Section 8: subprograms from different partitionings refuse to
        interoperate."""
        result, session, _ = ot_run
        adversary = Adversary(session, "B")
        assert adversary.try_wrong_program("OTExample", "m1").rejected


class TestForwardAttacks:
    def test_low_integrity_forward_rejected(self, ot_run):
        """B cannot inject values into Alice-trusted frame variables."""
        result, session, _ = ot_run
        adversary = Adversary(session, "B")
        report = adversary.try_forward(
            ("OTExample", "transfer"), "tmp1", 999, "T"
        )
        assert report.rejected

    def test_untrusted_forward_accepted_when_label_allows(self, ot_run):
        """A forward into an untrusted variable is fine — B is allowed to
        supply data nobody claims integrity for."""
        result, session, _ = ot_run
        adversary = Adversary(session, "B")
        report = adversary.try_forward(
            ("OTExample", "main"), "choice", 2, "T"
        )
        # choice is {Bob:}-labeled with no integrity claim, so this is a
        # legal data transfer, not a violation.
        assert not report.rejected

    def test_forward_from_unconfigured_host_quarantined(self, ot_run):
        """A sender outside the trust configuration is denied even a
        variable every configured host may forward, audited, and
        quarantined like any refused forward."""
        result, session, _ = ot_run
        adversary = Adversary(session, "Mallory")
        report = adversary.try_forward(
            ("OTExample", "main"), "choice", 2, "T"
        )
        assert report.rejected
        assert any(
            "forward of choice denied from Mallory" in entry
            for entry in session.network.audit_log
        )
        assert "Mallory" in session.network.quarantined

    def test_forward_from_unconfigured_host_silently_ignored(self, ot_run):
        """Without the quarantine layer the same forward gets Figure 6's
        treatment: refused, logged, and nothing written."""
        result, session, _ = ot_run
        host = session.hosts["T"]
        frame = FrameID(("OTExample", "main"))
        outcome = host.handle(
            Message(
                "forward", "Mallory", "T",
                {"digest": result.split.digest, "vars": {frame: {"choice": 2}}},
            )
        )
        assert outcome is REJECTED
        assert "choice" not in host.frames.get(frame, {})
        assert session.network.audit_log == [
            "T: forward of choice denied from Mallory: I_Mallory ⋢ I(L_var)"
        ]


class TestRecoveryAttacks:
    """The crash-recovery protocol's attack surface (checkpoint seals,
    the sealed high-water counter, and recovery announcements)."""

    def test_forged_checkpoint_seal_rejected(self, ot_run):
        result, session, _ = ot_run
        adversary = Adversary(session, "B")
        report = adversary.try_forged_checkpoint("A")
        assert report.rejected
        # The victim came back up from its genuine storage afterwards.
        assert session.hosts["A"].durable.recoveries >= 1

    def test_checkpoint_rollback_rejected(self, ot_run):
        result, session, _ = ot_run
        adversary = Adversary(session, "B")
        assert adversary.try_checkpoint_rollback("A").rejected

    def test_fake_recovery_announcement_rejected_and_quarantined(self, ot_run):
        result, session, _ = ot_run
        adversary = Adversary(session, "B")
        assert adversary.try_fake_recovery("A").rejected
        # The announcer is blacklisted: even an otherwise-legal message
        # from B now fails closed.
        assert "B" in session.network.quarantined
        follow_up = adversary.try_forward(
            ("OTExample", "main"), "choice", 2, "T"
        )
        assert follow_up.rejected

    def test_all_recovery_attacks_rejected(self, ot_run):
        result, session, _ = ot_run
        adversary = Adversary(session, "B")
        adversary.try_forged_checkpoint("A")
        adversary.try_checkpoint_rollback("T")
        adversary.try_fake_recovery("A")
        assert adversary.all_rejected(), adversary.accepted()


class TestReplayAttacks:
    """Idempotency keys are per sender: re-using another host's
    ``msg_id`` earns no cached reply."""

    def test_reused_msg_id_gets_no_cached_token(self):
        split = split_source(OT_SOURCE, config_abt()).split
        # A zero-probability injector: every message is stamped with a
        # msg_id, nothing is ever dropped.
        session = Session(
            RuntimeImage.for_split(split),
            faults=FaultInjector(FaultPolicy(), seed=0),
        )
        session.run()
        sync = next(
            m for m in session.network.message_log
            if m.kind == "sync" and (m.src, m.dst) == ("A", "T")
        )
        adversary = Adversary(session, "B")
        audits = len(session.network.audit_log)
        probe = Message(
            "getField", "B", "T",
            {"cls": "Nope", "field": "nope", "digest": split.digest},
            msg_id=sync.msg_id,
        )
        with pytest.raises(SecurityAbort) as info:
            session.network.request(probe)
        assert info.value.offender == "B" and info.value.victim == "T"
        assert session.network.audit_log[audits:] == [
            "T: getField for absent field ('Nope', 'nope')",
            "T: quarantining B: getField from B rejected by T",
        ]
        assert adversary.network.quarantined == {"B"}


class TestPingPongAttacks:
    def test_bob_cannot_corrupt_alice_total(self):
        result = split_source(PINGPONG_SOURCE, config_abt())
        session = Session(RuntimeImage.for_split(result.split))
        outcome = session.run()
        adversary = Adversary(session, "B")
        assert adversary.try_set_field("PingPong", "aliceTotal", 0).rejected
        assert outcome.field_value("PingPong", "aliceTotal") == 45
