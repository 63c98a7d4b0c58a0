"""Microbenchmarks of capability-token mint/verify and the MAC memo.

The hot-path profile attributes a visible slice of per-message time to
``token`` (HMAC-SHA256 under the per-host key).  The key registry memoizes
correct MACs keyed on ``(host, message bytes)`` — the memo rides the
shared :class:`RuntimeImage`, so interleaved sessions of one image batch
their verification work: the first presentation of a token pays the
HMAC, later re-derivations of the same bytes are a dict hit.

These pin (a) the rates in isolation, and (b) the *safety* contract the
optimization leans on: memoized verification returns the verdict of an
HMAC-SHA256 recomputed from the raw host key for every token class —
valid, forged, tampered, cross-host, and minted bytes under a bogus
MAC — and replay rejection never
depended on ``verify`` in the first place (the one-shot ICS pop
enforces it).
"""

import hashlib
import hmac

from repro.runtime import FrameID, LocalStack, TokenFactory, forged_token
from repro.trust import KeyRegistry

FRAME = FrameID(("C", "m"))


def fresh_factory():
    """A factory over its own registry."""
    return TokenFactory("T", KeyRegistry())


def recomputed_verdict(factory, token):
    """The verdict of verifying ``token`` at ``factory``'s host, computed
    here from the raw key: no registry, no memo."""
    if token.host != factory.host:
        return False
    key = factory._registry.key_of(f"host:{factory.host}")
    mac = hmac.new(key, token.message(), hashlib.sha256).digest()
    return hmac.compare_digest(mac, token.mac)


def token_corpus(factory):
    """One token of every verdict class the runtime can meet."""
    valid = factory.mint(FRAME, "e1")
    forged = forged_token(FRAME, "e1", "T")
    tampered = factory.mint(FRAME, "e1")
    tampered.entry = "privileged"
    cross = TokenFactory("A", KeyRegistry()).mint(FRAME, "e1")
    # Minted bytes (so their MAC is memoized) under a bogus MAC: the
    # memo's hit path must still compare against the presented MAC.
    remaced = factory.mint(FRAME, "e1")
    remaced.mac = forged.mac
    return [("valid", valid), ("forged", forged),
            ("tampered", tampered), ("cross-host", cross),
            ("re-MACed", remaced)]


class TestTokenRates:
    def test_mint_rate(self, benchmark):
        factory = fresh_factory()
        token = benchmark(lambda: factory.mint(FRAME, "e1"))
        assert factory.verify(token)

    def test_verify_rate_memoized(self, benchmark):
        # Every mint seeds the memo, so steady-state verification of
        # in-flight tokens is the fast path being measured here.
        factory = fresh_factory()
        tokens = [factory.mint(FRAME, f"e{i}") for i in range(64)]

        def verify_all():
            return sum(factory.verify(token) for token in tokens)

        assert benchmark(verify_all) == len(tokens)

    def test_verify_rate_recomputed(self, benchmark):
        # The cost the memo saves: the same verdicts from a full
        # HMAC-SHA256 per token.
        factory = fresh_factory()
        tokens = [factory.mint(FRAME, f"e{i}") for i in range(64)]

        def verify_all():
            return sum(recomputed_verdict(factory, token) for token in tokens)

        assert benchmark(verify_all) == len(tokens)


class TestBatchedVerifySafety:
    def test_memoized_verdicts_match_recomputed(self):
        """The differential: for every token class, the memoized
        registry agrees with an HMAC recomputed from the raw key."""
        factory = fresh_factory()
        verdicts = set()
        for name, token in token_corpus(factory):
            # Present each token twice: the second pass is the pure
            # dict-hit path and must not change the verdict.
            first = factory.verify(token)
            second = factory.verify(token)
            recomputed = recomputed_verdict(factory, token)
            assert first == second == recomputed, (
                f"{name} token verdict diverged between memoized and "
                f"recomputed verification"
            )
            verdicts.add(recomputed)
        # Sanity: the corpus actually spans both verdicts.
        assert verdicts == {True, False}

    def test_memo_holds_only_correct_macs(self):
        """A forged token's bytes never enter the memo: verification of
        a forgery cannot poison later verifications."""
        factory = fresh_factory()
        bad = forged_token(FRAME, "e1", "T")
        assert not factory.verify(bad)
        assert not factory.verify(bad)  # still rejected, post-memo
        good = factory.mint(bad.frame, bad.entry)
        assert factory.verify(good)

    def test_replay_rejection_is_ics_not_verify(self):
        """Batching verify is safe w.r.t. replays because replay
        protection never lived there: a replayed *valid* token passes
        the MAC check but the one-shot ICS pop refuses it."""
        factory = fresh_factory()
        stack = LocalStack()
        token = factory.mint(FRAME, "e1")
        stack.push(token, None)
        assert factory.verify(token) and factory.verify(token)
        assert stack.pop_if_top(token) == (None,)
        assert stack.pop_if_top(token) is None  # the replay dies here

    def test_hash_count_still_tracks_simulated_cost(self):
        """The memo must not leak into the simulated cost model: every
        mint/verify charges a hash regardless of memo hits."""
        factory = fresh_factory()
        before = factory.hash_count
        token = factory.mint(FRAME, "e1")
        factory.verify(token)
        factory.verify(token)  # memo hit — still a charged operation
        assert factory.hash_count == before + 3
