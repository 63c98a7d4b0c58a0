"""Direct tests of the Figure 6 request handlers on a live host: each
row of the table — rgoto, lgoto, sync — with its exact check."""

import pytest

from repro.runtime import FrameID, RuntimeImage, Session
from repro.runtime.host import _REJECTED
from repro.runtime.network import Message
from repro.splitter import split_source

from tests.programs import OT_SOURCE, config_abt


@pytest.fixture
def setup():
    result = split_source(OT_SOURCE, config_abt())
    session = Session(RuntimeImage.for_split(result.split))
    return result.split, session


def payload(split, **kwargs):
    data = {"digest": split.digest}
    data.update(kwargs)
    return data


class TestSyncRow:
    """sync(h, f, e, t): if I_i ⊑ I_e, mint nt, push (nt, t), send nt."""

    def test_authorized_sync_returns_fresh_token(self, setup):
        split, session = setup
        host_a = session.hosts["A"]
        entry = next(f.entry for f in split.fragments_on("A"))
        frame = FrameID(("OTExample", "main"))
        token = host_a.handle(
            Message("sync", "T", "A",
                    payload(split, entry=entry, frame=frame, token=None))
        )
        assert token is not _REJECTED
        assert token.entry == entry
        assert host_a.stack.depth == 1
        assert host_a.stack.top()[0] == token

    def test_unauthorized_sync_ignored(self, setup):
        split, session = setup
        host_a = session.hosts["A"]
        entry = next(f.entry for f in split.fragments_on("A"))
        frame = FrameID(("OTExample", "main"))
        result = host_a.handle(
            Message("sync", "B", "A",
                    payload(split, entry=entry, frame=frame, token=None))
        )
        assert result is _REJECTED
        assert host_a.stack.depth == 0

    def test_sync_unknown_entry_ignored(self, setup):
        split, session = setup
        host_a = session.hosts["A"]
        result = host_a.handle(
            Message("sync", "T", "A",
                    payload(split, entry="no.such.entry@A",
                            frame=FrameID(("OTExample", "main")),
                            token=None))
        )
        assert result is _REJECTED


class TestLgotoRow:
    """lgoto(t): if top(s_h) == (t, t'), pop and run e(f, t'); else ignore."""

    def test_valid_capability_pops(self, setup):
        split, session = setup
        host_t = session.hosts["T"]
        # Mint a capability for T's return-like entry via a legal sync.
        entry = next(
            f.entry for f in split.fragments_on("T")
            if "A" in split.entry_invokers(f.entry) or True
        )
        frame = FrameID(("OTExample", "main"))
        token = host_t.handle(
            Message("sync", "T", "T",
                    payload(split, entry=entry, frame=frame, token=None))
        )
        assert host_t.stack.depth == 1
        # Using it pops the stack (the fragment then runs; we only check
        # the stack effect by inspecting depth afterwards).
        try:
            host_t.handle(
                Message("lgoto", "A", "T", payload(split, token=token))
            )
        except Exception:
            pass  # the fragment may run off into the program; irrelevant
        assert host_t.stack.depth == 0

    def test_non_top_capability_ignored(self, setup):
        split, session = setup
        host_t = session.hosts["T"]
        entries = [f.entry for f in split.fragments_on("T")][:2]
        frame = FrameID(("OTExample", "main"))
        token1 = host_t.handle(
            Message("sync", "T", "T",
                    payload(split, entry=entries[0], frame=frame,
                            token=None))
        )
        host_t.handle(
            Message("sync", "T", "T",
                    payload(split, entry=entries[1], frame=frame,
                            token=token1))
        )
        # token1 is buried; presenting it must be ignored.
        result = host_t.handle(
            Message("lgoto", "A", "T", payload(split, token=token1))
        )
        assert result is _REJECTED
        assert host_t.stack.depth == 2

    def test_foreign_token_ignored(self, setup):
        split, session = setup
        host_t = session.hosts["T"]
        host_a = session.hosts["A"]
        entry = next(f.entry for f in split.fragments_on("A"))
        frame = FrameID(("OTExample", "main"))
        token = host_a.handle(
            Message("sync", "T", "A",
                    payload(split, entry=entry, frame=frame, token=None))
        )
        result = host_t.handle(
            Message("lgoto", "A", "T", payload(split, token=token))
        )
        assert result is _REJECTED


class TestRgotoRow:
    """rgoto(h, f, e, t): if I_i ⊑ I_e, run e(f, t); else ignore."""

    def test_unauthorized_rgoto_ignored(self, setup):
        split, session = setup
        host_a = session.hosts["A"]
        entry = next(f.entry for f in split.fragments_on("A"))
        result = host_a.handle(
            Message("rgoto", "B", "A",
                    payload(split, entry=entry,
                            frame=FrameID(("OTExample", "main")),
                            token=None, vars={}))
        )
        assert result is _REJECTED

    def test_rgoto_unknown_entry_ignored(self, setup):
        split, session = setup
        host_a = session.hosts["A"]
        result = host_a.handle(
            Message("rgoto", "T", "A",
                    payload(split, entry="bogus@A",
                            frame=FrameID(("OTExample", "main")),
                            token=None, vars={}))
        )
        assert result is _REJECTED


class TestDigestHandshake:
    def test_any_request_with_wrong_digest_ignored(self, setup):
        split, session = setup
        host_a = session.hosts["A"]
        for kind in ("getField", "setField", "sync", "rgoto", "lgoto",
                     "forward"):
            result = host_a.handle(
                Message(kind, "T", "A", {"digest": b"wrong"})
            )
            assert result is _REJECTED, kind

    def test_local_messages_skip_digest_check(self, setup):
        split, session = setup
        host_a = session.hosts["A"]
        entry = next(f.entry for f in split.fragments_on("A"))
        # A host trusts its own memory: src == dst bypasses the check.
        token = host_a.handle(
            Message("sync", "A", "A",
                    {"entry": entry,
                     "frame": FrameID(("OTExample", "main")),
                     "token": None})
        )
        assert token is not _REJECTED


class TestFrameIsolation:
    def test_forward_applies_to_named_frame_only(self, setup):
        split, session = setup
        host_t = session.hosts["T"]
        frame1 = FrameID(("OTExample", "main"))
        frame2 = FrameID(("OTExample", "main"))
        host_t.handle(
            Message("forward", "A", "T",
                    payload(split, vars={frame1: {"choice": 42}}))
        )
        assert host_t.var(frame1, "choice") == 42
        assert host_t.var(frame2, "choice") == 0  # default, untouched

    def test_default_values_by_base_type(self, setup):
        split, session = setup
        host_t = session.hosts["T"]
        frame = FrameID(("OTExample", "transfer"))
        assert host_t.var(frame, "tmp1") == 0
        main_frame = FrameID(("OTExample", "main"))
        assert host_t.var(main_frame, "choice") == 0
