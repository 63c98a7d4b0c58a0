"""A minimal RMI-style layer over the simulated network.

Used for the paper's hand-coded reference implementations (OT-h and
Tax-h, Section 7.3).  An RMI invocation is a synchronous request/reply —
two messages, exactly how the paper accounts for Java RMI calls.

Like the split-program hosts, RMI servers are *at-most-once* under the
reliable-delivery protocol: when the network stamps messages with
idempotency keys (fault injection enabled), a retransmitted or
duplicated invocation is answered from the server's result table
instead of re-running the method.  The table is keyed by ``(src,
msg_id)``, so a cached result only ever goes back to the caller that
asked.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from .faults import FaultInjector
from .network import CostModel, Message, SimNetwork

_UNSEEN = object()


class RMIServer:
    """One host exposing named remote methods."""

    def __init__(self, name: str, network: SimNetwork) -> None:
        self.name = name
        self.network = network
        self._methods: Dict[str, Callable] = {}
        self._seen_calls: Dict[Tuple[str, int], Any] = {}
        network.register(name, self._dispatch)

    def expose(self, name: str, func: Callable) -> None:
        self._methods[name] = func

    def method(self, func: Callable) -> Callable:
        """Decorator form of :meth:`expose`."""
        self.expose(func.__name__, func)
        return func

    def _dispatch(self, message: Message) -> Any:
        if message.kind != "rmi":
            raise ValueError(f"RMI host got {message.kind!r}")
        remote = message.src != self.name
        key = (message.src, message.msg_id)
        if remote:
            self.network.charge_check()
            if message.msg_id is not None:
                cached = self._seen_calls.get(key, _UNSEEN)
                if cached is not _UNSEEN:
                    return cached
        method = self._methods[message.payload["method"]]
        result = method(*message.payload["args"])
        if remote and message.msg_id is not None:
            self._seen_calls[key] = result
        return result


class RMISystem:
    """A set of RMI hosts sharing one network (and its accounting)."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.network = SimNetwork(cost_model, faults=faults)
        self.hosts: Dict[str, RMIServer] = {}

    def host(self, name: str) -> RMIServer:
        if name not in self.hosts:
            self.hosts[name] = RMIServer(name, self.network)
        return self.hosts[name]

    def call(self, src: str, dst: str, method: str, *args: Any) -> Any:
        """One RMI invocation: two messages unless local."""
        return self.network.request(
            Message("rmi", src, dst, {"method": method, "args": args})
        )

    @property
    def total_messages(self) -> int:
        return self.network.counts.get("messages", 0)

    @property
    def elapsed(self) -> float:
        return self.network.clock
