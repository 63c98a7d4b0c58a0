"""The splitter's view of the distributed environment.

A :class:`TrustConfiguration` holds the set of known hosts ``H`` with
their trust labels, optional communication-cost weights and per-principal
placement preferences (Section 6: "principals may indicate a preference
for their data to stay on one of several equally trusted machines"), and
a one-way hash over all splitter inputs (Section 8) that partitioned
programs embed in their messages to detect mismatched partitionings.
The program half of that hash is the source text the parser was given
(``Program.source``); nothing caches splits, so the configuration needs
no other content key.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

from ..labels import (
    ActsForHierarchy,
    ConfLabel,
    EMPTY_HIERARCHY,
    IntegLabel,
    Principal,
)
from .declarations import HostDescriptor, TrustError

#: Default relative cost of one remote message between distinct hosts.
DEFAULT_REMOTE_COST = 10.0
#: Cost of a "message" a host sends to itself (never over the network).
LOCAL_COST = 0.0


class TrustConfiguration:
    """The known hosts ``H`` plus optimizer inputs."""

    def __init__(
        self,
        hosts: Iterable[HostDescriptor] = (),
        hierarchy: Optional[ActsForHierarchy] = None,
    ) -> None:
        #: the acts-for (delegation) relation all label comparisons use
        #: (Section 10: Jif's actsfor "could readily be included").
        self.hierarchy: ActsForHierarchy = hierarchy or EMPTY_HIERARCHY
        self._hosts: Dict[str, HostDescriptor] = {}
        #: (principal name, host name) -> preference weight multiplier
        #: (< 1 prefers the host, > 1 penalizes it).
        self._preferences: Dict[Tuple[str, str], float] = {}
        #: (class, field) -> required host (the paper's Section 10
        #: "ability to specify a particular host for a given field").
        self._field_pins: Dict[Tuple[str, str], str] = {}
        #: (host, host) -> per-message cost override.
        self._link_costs: Dict[Tuple[str, str], float] = {}
        #: (conf, integ, hierarchy cache_key) -> hosts passing the
        #: Section 4 eligibility filter.  Labels are hash-consed, so the
        #: key is cheap; cleared whenever the host set changes and
        #: implicitly invalidated by the hierarchy version stamp.
        self._eligible_cache: Dict[tuple, Tuple[HostDescriptor, ...]] = {}
        for host in hosts:
            self.add_host(host)

    # -- hosts ----------------------------------------------------------------

    def add_host(self, host: HostDescriptor) -> None:
        if host.name in self._hosts:
            raise TrustError(f"duplicate host {host.name!r}")
        self._hosts[host.name] = host
        self._eligible_cache.clear()

    def host(self, name: str) -> HostDescriptor:
        if name not in self._hosts:
            raise TrustError(f"unknown host {name!r}")
        return self._hosts[name]

    @property
    def hosts(self) -> List[HostDescriptor]:
        return list(self._hosts.values())

    @property
    def host_names(self) -> List[str]:
        return list(self._hosts)

    def __contains__(self, name: str) -> bool:
        return name in self._hosts

    def __len__(self) -> int:
        return len(self._hosts)

    # -- optimizer inputs --------------------------------------------------------

    def set_preference(self, principal, host_name: str, weight: float) -> None:
        """Scale costs of placing ``principal``-owned data on ``host_name``.

        Weights below 1.0 attract placement, above 1.0 repel it.
        """
        if weight <= 0:
            raise ValueError("preference weight must be positive")
        name = principal.name if isinstance(principal, Principal) else principal
        self._preferences[(name, host_name)] = weight

    def preference(self, principal, host_name: str) -> float:
        name = principal.name if isinstance(principal, Principal) else principal
        return self._preferences.get((name, host_name), 1.0)

    def pin_field(self, cls: str, field: str, host_name: str) -> None:
        """Require a field to live on a specific host.

        The pin is honored only if the host satisfies the field's
        Section 4 constraints — the splitter rejects insecure pins.
        """
        if host_name not in self._hosts:
            raise TrustError(f"unknown host {host_name!r}")
        self._field_pins[(cls, field)] = host_name

    def field_pin(self, cls: str, field: str) -> Optional[str]:
        return self._field_pins.get((cls, field))

    def set_link_cost(self, a: str, b: str, cost: float) -> None:
        """Override the per-message cost between two hosts (symmetric)."""
        if cost < 0:
            raise ValueError("link cost must be non-negative")
        self._link_costs[(a, b)] = cost
        self._link_costs[(b, a)] = cost

    def link_cost(self, a: str, b: str) -> float:
        if a == b:
            return LOCAL_COST
        return self._link_costs.get((a, b), DEFAULT_REMOTE_COST)

    def eligible_hosts(
        self, required_conf: ConfLabel, required_integ: IntegLabel
    ) -> Tuple[HostDescriptor, ...]:
        """Hosts ``h`` with ``required_conf ⊑ C_h`` and ``I_h ⊑
        required_integ`` — the Section 4 filter shared by field and
        statement candidate selection, memoized per label pair.

        Distinct fields/statements overwhelmingly share a handful of
        label pairs, so the splitter's candidate pass collapses to a few
        dictionary hits per program.
        """
        key = (required_conf, required_integ, self.hierarchy.cache_key)
        hosts = self._eligible_cache.get(key)
        if hosts is None:
            hierarchy = self.hierarchy
            hosts = tuple(
                host
                for host in self._hosts.values()
                if required_conf.flows_to(host.conf, hierarchy)
                and host.integ.flows_to(required_integ, hierarchy)
            )
            self._eligible_cache[key] = hosts
        return hosts

    # -- Section 8: hash of splitter inputs ---------------------------------------

    def digest(self, program_text: str = "") -> bytes:
        """One-way hash of trust declarations and program text.

        Embedded in run-time messages so subprograms generated under
        different assumptions refuse to talk to each other (Section 8).
        """
        hasher = hashlib.sha256()
        for name in sorted(self._hosts):
            host = self._hosts[name]
            hasher.update(name.encode())
            hasher.update(str(host.conf).encode())
            hasher.update(str(host.integ).encode())
        for key in sorted(self._preferences):
            hasher.update(repr((key, self._preferences[key])).encode())
        for key in sorted(self._field_pins):
            hasher.update(repr((key, self._field_pins[key])).encode())
        for actor, target in self.hierarchy:
            hasher.update(f"actsfor|{actor}|{target}".encode())
        hasher.update(program_text.encode())
        return hasher.digest()


def example_hosts() -> Dict[str, HostDescriptor]:
    """The four hosts of Section 3.1: A, B, T, and S.

    * ``A`` — Alice's machine, untrusted by Bob.
    * ``B`` — Bob's machine, untrusted by Alice.
    * ``T`` — trusted with both parties' secrets; only Alice trusts its
      integrity.
    * ``S`` — trusted with secrets but with no integrity at all.
    """
    return {
        "A": HostDescriptor.of("A", "{Alice:}", "{?:Alice}"),
        "B": HostDescriptor.of("B", "{Bob:}", "{?:Bob}"),
        "T": HostDescriptor.of("T", "{Alice:; Bob:}", "{?:Alice}"),
        "S": HostDescriptor.of("S", "{Alice:; Bob:}", "{?:}"),
    }
