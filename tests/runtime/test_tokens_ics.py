"""Unit tests for capability tokens and the integrity control stack."""

from repro.runtime import FrameID, LocalStack, TokenFactory, forged_token
from repro.trust import KeyRegistry


def make_factory(name="T"):
    return TokenFactory(name, KeyRegistry())


class TestTokens:
    def test_mint_and_verify(self):
        factory = make_factory()
        token = factory.mint(FrameID(("C", "m")), "e1")
        assert factory.verify(token)

    def test_tokens_are_unique(self):
        factory = make_factory()
        frame = FrameID(("C", "m"))
        t1 = factory.mint(frame, "e1")
        t2 = factory.mint(frame, "e1")
        assert t1 != t2  # fresh nonce every time

    def test_forged_token_rejected(self):
        factory = make_factory()
        bad = forged_token(FrameID(("C", "m")), "e1", "T")
        assert not factory.verify(bad)

    def test_token_for_other_host_rejected(self):
        t_factory = make_factory("T")
        a_factory = TokenFactory("A", KeyRegistry())
        token = a_factory.mint(FrameID(("C", "m")), "e1")
        assert not t_factory.verify(token)

    def test_tampered_entry_rejected(self):
        factory = make_factory()
        token = factory.mint(FrameID(("C", "m")), "e1")
        token.entry = "privileged"
        assert not factory.verify(token)

    def test_tampered_frame_rejected(self):
        factory = make_factory()
        token = factory.mint(FrameID(("C", "m")), "e1")
        token.frame = FrameID(("C", "m"))
        assert not factory.verify(token)

    def test_hash_count_tracks_operations(self):
        factory = make_factory()
        before = factory.hash_count
        token = factory.mint(FrameID(("C", "m")), "e1")
        factory.verify(token)
        assert factory.hash_count == before + 2

    def test_registry_holds_no_per_message_state(self):
        """Nonces are fresh, so a remembered MAC would never be read
        again: after many mint+verify cycles the registry still holds
        only per-key entries (keys and keyed HMAC bases)."""
        registry = KeyRegistry()
        factory = TokenFactory("T", registry)
        frame = FrameID(("C", "m"))
        for _ in range(10_000):
            assert factory.verify(factory.mint(frame, "e1"))
        key_names = {"host:T"}
        for name, table in vars(registry).items():
            assert isinstance(table, dict), name
            assert set(table) <= key_names, (
                f"KeyRegistry.{name} holds {len(table)} entries"
            )


class TestLocalStack:
    def test_push_and_top(self):
        factory = make_factory()
        stack = LocalStack()
        token = factory.mint(FrameID(("C", "m")), "e1")
        stack.push(token, None)
        assert stack.top() == (token, None)

    def test_pop_requires_exact_top(self):
        factory = make_factory()
        stack = LocalStack()
        frame = FrameID(("C", "m"))
        t1 = factory.mint(frame, "e1")
        t2 = factory.mint(frame, "e2")
        stack.push(t1, None)
        stack.push(t2, t1)
        assert stack.pop_if_top(t1) is None  # not on top
        assert stack.pop_if_top(t2) == (t1,)
        assert stack.pop_if_top(t2) is None  # one-shot
        assert stack.pop_if_top(t1) == (None,)

    def test_pop_empty_stack(self):
        factory = make_factory()
        stack = LocalStack()
        token = factory.mint(FrameID(("C", "m")), "e1")
        assert stack.pop_if_top(token) is None

    def test_lifo_order(self):
        factory = make_factory()
        stack = LocalStack()
        frame = FrameID(("C", "m"))
        tokens = [factory.mint(frame, f"e{i}") for i in range(4)]
        previous = None
        for token in tokens:
            stack.push(token, previous)
            previous = token
        for token in reversed(tokens):
            popped = stack.pop_if_top(token)
            assert popped is not None
        assert stack.depth == 0

    def test_depth(self):
        factory = make_factory()
        stack = LocalStack()
        frame = FrameID(("C", "m"))
        assert stack.depth == 0
        stack.push(factory.mint(frame, "e1"), None)
        assert stack.depth == 1
