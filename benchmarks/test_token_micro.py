"""Microbenchmarks of capability-token mint/verify, and the verify
differential.

The hot-path profile attributes a visible slice of per-message time to
``token`` (HMAC-SHA256 under the per-host key).  The key registry keeps
one keyed HMAC base per key, so a MAC costs one ``copy()`` plus the
message bytes; it keeps no per-message state, so every ``verify``
recomputes the MAC.

These pin (a) the rates in isolation, and (b) the verdicts: registry
verification agrees with an HMAC-SHA256 recomputed from the raw host key
for every token class — valid, forged, tampered, cross-host, and minted
bytes under a bogus MAC — and replay rejection never depended on
``verify`` in the first place (the one-shot ICS pop enforces it).
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
    here from the raw key, without the registry."""
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
    # Bytes this factory minted, presented under a bogus MAC: verify
    # must compare against the presented MAC, not trust the bytes.
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

    def test_verify_rate_recomputed(self, benchmark):
        # A full HMAC-SHA256 per token, from the raw key.
        factory = fresh_factory()
        tokens = [factory.mint(FRAME, f"e{i}") for i in range(64)]

        def verify_all():
            return sum(recomputed_verdict(factory, token) for token in tokens)

        assert benchmark(verify_all) == len(tokens)


class TestVerifySafety:
    def test_verdicts_match_raw_key_hmac(self):
        """The differential: for every token class, the registry agrees
        with an HMAC recomputed from the raw key."""
        factory = fresh_factory()
        verdicts = set()
        for name, token in token_corpus(factory):
            # Present each token twice: a repeat must not change the
            # verdict.
            first = factory.verify(token)
            second = factory.verify(token)
            recomputed = recomputed_verdict(factory, token)
            assert first == second == recomputed, (
                f"{name} token verdict diverged from the raw-key HMAC"
            )
            verdicts.add(recomputed)
        # Sanity: the corpus actually spans both verdicts.
        assert verdicts == {True, False}

    def test_forgery_does_not_affect_later_verifies(self):
        """Verifying a forgery changes nothing: it stays rejected, and a
        genuine token over the same frame and entry still verifies."""
        factory = fresh_factory()
        bad = forged_token(FRAME, "e1", "T")
        assert not factory.verify(bad)
        assert not factory.verify(bad)
        good = factory.mint(bad.frame, bad.entry)
        assert factory.verify(good)

    def test_replay_rejection_is_ics_not_verify(self):
        """Replay protection never lived in ``verify``: a replayed
        *valid* token passes the MAC check but the one-shot ICS pop
        refuses it."""
        factory = fresh_factory()
        stack = LocalStack()
        token = factory.mint(FRAME, "e1")
        stack.push(token, None)
        assert factory.verify(token) and factory.verify(token)
        assert stack.pop_if_top(token) == (None,)
        assert stack.pop_if_top(token) is None  # the replay dies here

    def test_hash_count_tracks_simulated_cost(self):
        """Every mint/verify charges one hash to the simulated cost
        model."""
        factory = fresh_factory()
        before = factory.hash_count
        token = factory.mint(FRAME, "e1")
        factory.verify(token)
        factory.verify(token)
        assert factory.hash_count == before + 3
