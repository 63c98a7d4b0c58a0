"""Signed trust declarations (Section 3.1).

Each known host ``h`` carries two labels:

* ``C_h`` — an upper bound on the confidentiality of information that can
  be sent securely to ``h``;
* ``I_h`` — which principals trust data received from ``h``.

These are assembled from per-principal *signed declarations*: a component
``{Alice: r1..rn}`` of ``C_h`` is only valid if Alice signed it, and
``Alice ∈ I_h`` only if Alice signed that too.  The paper assumes a
public-key infrastructure; we model it with an in-process key registry
and HMAC-SHA256 signatures, which preserves the unforgeability
assumption without a real PKI.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from typing import Dict, Iterable, List, Optional

from ..labels import (
    ConfLabel,
    ConfPolicy,
    IntegLabel,
    Principal,
)


class TrustError(Exception):
    """An inconsistent, unsigned, or forged trust declaration."""


class KeyRegistry:
    """A simulated public-key infrastructure.

    Maps each principal to a secret signing key.  ``sign`` produces an
    HMAC tag over a message; ``verify`` checks it.  Hosts also get keys
    (used by the runtime to sign capability tokens).
    """

    def __init__(self) -> None:
        self._keys: Dict[str, bytes] = {}
        #: memoized keyed-HMAC base objects: deriving the inner/outer
        #: pads from a key is the expensive part of HMAC-SHA256, and a
        #: registry signs many short messages under few keys (tokens,
        #: seals, recovery announcements).  ``sign`` copies the base and
        #: feeds it the message, so per-key derivation happens once per
        #: registry lifetime — which a shared RuntimeImage stretches
        #: across every session run over the same split program.
        self._bases: Dict[str, "hmac.HMAC"] = {}

    def register(self, name: str) -> None:
        if name not in self._keys:
            self._keys[name] = os.urandom(32)

    def install(self, name: str, key: bytes) -> None:
        """Install a specific key (cross-process key restore: a
        rehydrating runtime re-creates the registry from the sealed
        sidecar rather than drawing fresh randomness)."""
        self._keys[name] = bytes(key)
        self._bases.pop(name, None)

    def key_of(self, name: str) -> bytes:
        if name not in self._keys:
            raise TrustError(f"no key registered for {name!r}")
        return self._keys[name]

    def sign(self, name: str, message: bytes) -> bytes:
        base = self._bases.get(name)
        if base is None:
            base = self._bases[name] = hmac.new(
                self.key_of(name), digestmod=hashlib.sha256
            )
        digest = base.copy()
        digest.update(message)
        return digest.digest()

    def verify(self, name: str, message: bytes, signature: bytes) -> bool:
        """Recompute the MAC and compare in constant time.  Replay
        rejection is not a MAC question: a token verifies as often as it
        is presented, and the ICS's one-shot pop refuses the second use."""
        return hmac.compare_digest(self.sign(name, message), signature)


class TrustDeclaration:
    """One principal's signed statement about one host.

    ``readers`` is meaningful only with ``confidentiality=True``: the
    principal permits data it owns, readable by at most these readers,
    to reside on the host.  ``integrity=True`` states the principal
    trusts data received from the host.
    """

    __slots__ = ("principal", "host", "confidentiality", "readers",
                 "integrity", "signature")

    def __init__(
        self,
        principal: Principal,
        host: str,
        confidentiality: bool,
        readers: Iterable[Principal],
        integrity: bool,
        signature: Optional[bytes] = None,
    ) -> None:
        self.principal = principal
        self.host = host
        self.confidentiality = confidentiality
        self.readers = frozenset(readers)
        self.integrity = integrity
        self.signature = signature

    def message(self) -> bytes:
        readers = ",".join(sorted(r.name for r in self.readers))
        text = (
            f"trust-decl|{self.principal.name}|{self.host}|"
            f"conf={int(self.confidentiality)}|readers={readers}|"
            f"integ={int(self.integrity)}"
        )
        return text.encode()

    def sign(self, registry: KeyRegistry) -> "TrustDeclaration":
        self.signature = registry.sign(self.principal.name, self.message())
        return self

    def verify(self, registry: KeyRegistry) -> bool:
        if self.signature is None:
            return False
        return registry.verify(
            self.principal.name, self.message(), self.signature
        )

    def __repr__(self) -> str:
        parts = []
        if self.confidentiality:
            readers = ", ".join(sorted(r.name for r in self.readers))
            parts.append(f"conf[{readers}]")
        if self.integrity:
            parts.append("integ")
        return (
            f"TrustDeclaration({self.principal.name} -> {self.host}: "
            f"{' '.join(parts) or 'nothing'})"
        )


class DelegationDeclaration:
    """A signed acts-for edge: ``inferior`` declares that ``superior``
    may act for it.  Only the *inferior* can grant this, so only its
    signature makes the edge valid."""

    __slots__ = ("superior", "inferior", "signature")

    def __init__(
        self,
        superior: Principal,
        inferior: Principal,
        signature: Optional[bytes] = None,
    ) -> None:
        self.superior = superior
        self.inferior = inferior
        self.signature = signature

    def message(self) -> bytes:
        return f"acts-for|{self.superior.name}|{self.inferior.name}".encode()

    def sign(self, registry: KeyRegistry) -> "DelegationDeclaration":
        self.signature = registry.sign(self.inferior.name, self.message())
        return self

    def verify(self, registry: KeyRegistry) -> bool:
        if self.signature is None:
            return False
        return registry.verify(
            self.inferior.name, self.message(), self.signature
        )

    def __repr__(self) -> str:
        return (
            f"DelegationDeclaration({self.superior.name} ≽ "
            f"{self.inferior.name})"
        )


def hierarchy_from_declarations(
    declarations: Iterable[DelegationDeclaration],
    registry: KeyRegistry,
):
    """Assemble an acts-for hierarchy from verified signed delegations."""
    from ..labels import ActsForHierarchy

    hierarchy = ActsForHierarchy()
    for decl in declarations:
        if not decl.verify(registry):
            raise TrustError(
                f"invalid signature on delegation by {decl.inferior.name!r}"
            )
        hierarchy.add(decl.superior, decl.inferior)
    return hierarchy


class HostDescriptor:
    """A known host with its trust labels ``C_h`` and ``I_h``."""

    __slots__ = ("name", "conf", "integ")

    def __init__(self, name: str, conf: ConfLabel, integ: IntegLabel) -> None:
        self.name = name
        self.conf = conf
        self.integ = integ

    @classmethod
    def of(cls, name: str, conf_spec: str, integ_spec: str) -> "HostDescriptor":
        """Build a descriptor from label literals, e.g.

        ``HostDescriptor.of("A", "{Alice:}", "{?:Alice}")``.
        """
        from ..labels import parse_conf_label, parse_integ_label

        return cls(name, parse_conf_label(conf_spec), parse_integ_label(integ_spec))

    @classmethod
    def from_declarations(
        cls,
        name: str,
        declarations: Iterable[TrustDeclaration],
        registry: KeyRegistry,
    ) -> "HostDescriptor":
        """Assemble ``C_h`` and ``I_h`` from verified signed declarations.

        Unsigned or forged declarations raise :class:`TrustError`; a
        declaration about a different host is rejected too.
        """
        conf_policies: List[ConfPolicy] = []
        trusting: List[Principal] = []
        for decl in declarations:
            if decl.host != name:
                raise TrustError(
                    f"declaration for host {decl.host!r} used for {name!r}"
                )
            if not decl.verify(registry):
                raise TrustError(
                    f"invalid signature on declaration by "
                    f"{decl.principal.name!r} for host {name!r}"
                )
            if decl.confidentiality:
                conf_policies.append(
                    ConfPolicy(decl.principal, decl.readers)
                )
            if decl.integrity:
                trusting.append(decl.principal)
        return cls(name, ConfLabel(conf_policies), IntegLabel(trusting))

    def can_hold_conf(self, conf: ConfLabel) -> bool:
        """May data with confidentiality ``conf`` be sent to this host?"""
        return conf.flows_to(self.conf)

    def can_provide_integ(self, integ: IntegLabel) -> bool:
        """May this host write locations requiring integrity ``integ``?

        The Section 4.1 condition ``I_h ⊑ I(L)``.
        """
        return self.integ.flows_to(integ)

    def __repr__(self) -> str:
        return f"HostDescriptor({self.name}: C={{{self.conf}}}, I={{{self.integ}}})"
