"""Running split programs: shared runtime images and pooled sessions.

Good hosts preserve the source program's sequential execution (Section
3.2): there is a single thread of control, embodied by the rgoto/lgoto
message queue.  Execution starts at the main method's entry, holding
the root capability ``t0`` (as host T does in Figure 4); consuming
``t0`` ends the program.

The paper's deployment model is *compile once, run many times*: a
partitioned program is published and then executed over and over by
mutually distrusting principals.  A program is split once, when it is
published, so the per-request cost is execution set-up.  This module
splits the runtime's state along an immutable/mutable line:

* :class:`RuntimeImage` — everything about a (split, key registry)
  pair that no run ever mutates, built once and shared by every
  session: the :class:`~repro.splitter.fragments.SplitProgram` itself,
  the compiled fragment cache (filled on each fragment's first entry,
  so building an image compiles nothing), the per-host key material
  (HMAC keys derived exactly once per registry — the reuse contract of
  :func:`run_split_program`), per-host entry tables and invoker ACLs,
  initial field values, and the precomputed results of the
  per-variable forward integrity checks (Figure 6's
  ``I_src ⊑ I(L_var)`` is static per split, so sessions answer it with
  a set lookup instead of a lattice operation).

* :class:`Session` — everything one run mutates: the simulated
  network (clock, counts, logs, control queue, quarantine set), and
  per-host frames, field/array stores, ICS slices, token factories,
  idempotency tables, deferred forwards, and checkpoint WALs.  Each
  session's simulated clock and trace are fully isolated; interleaving
  sessions (:meth:`Session.start` / :meth:`Session.step`) cannot change
  any session's observables.

* :class:`SessionPool` — recycles sessions by **reset-in-place**:
  :meth:`Session.reset` clears the mutable state rather than
  reconstructing hosts and network, so the steady-state cost of a
  pooled run is the run itself.

:func:`run_split_program` is the one-call helper: one session over the
split's shared image, run to completion.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..labels import Label
from ..splitter.fragments import Fragment, SplitProgram
from ..trust import KeyRegistry
from .compiler import CompiledFragment, compile_split
from .faults import FaultInjector
from .host import ExecutionState, HaltSignal, TrustedHost
from .network import CostModel, SimNetwork
from .storage import default_storage
from .values import FrameID

_MAX_STEPS = 2_000_000

#: ``Session(storage=NO_STORAGE)``: explicitly no durable tier, even
#: when ``REPRO_STORAGE=sqlite`` would auto-create one (the rehydration
#: path uses this — it installs persisted state itself).
NO_STORAGE = object()

#: ``Session.reset(storage=_KEEP)``: recycle the attached storage.
_KEEP = object()

#: Default for ExecutionResult accessors: raise on a missing name.
_RAISE = object()


class ExecutionResult:
    """Everything observable about one distributed run."""

    def __init__(
        self,
        network: SimNetwork,
        hosts: Dict[str, TrustedHost],
        main_frame: FrameID,
    ) -> None:
        self.network = network
        self.hosts = hosts
        self.main_frame = main_frame

    @property
    def elapsed(self) -> float:
        return self.network.clock

    @property
    def counts(self) -> Dict[str, int]:
        return self.network.table_counts()

    @property
    def audits(self):
        return self.network.audit_log

    def field_value(
        self,
        cls: str,
        field: str,
        oid: Optional[int] = None,
        default: Any = _RAISE,
    ) -> Any:
        """The stored value of a field (from whichever host holds it).

        Raises :class:`KeyError` when no host stores the field; pass
        ``default=`` to get a fallback value instead.
        """
        for host in self.hosts.values():
            key = (cls, field, oid)
            if key in host.field_store:
                return host.field_store[key]
        if default is not _RAISE:
            return default
        raise KeyError(f"field {cls}.{field} not found on any host")

    def var_value(self, frame: FrameID, var: str, default: Any = _RAISE) -> Any:
        """The value of a frame variable (from any host's copy).

        Raises :class:`KeyError` when no host's frame copy binds the
        variable — a silent ``None`` here has historically masked typos
        in test assertions.  Pass ``default=`` to get a fallback value
        instead.
        """
        for host in self.hosts.values():
            frame_copy = host.frames.get(frame)
            if frame_copy is not None and var in frame_copy:
                return frame_copy[var]
        if default is not _RAISE:
            return default
        raise KeyError(f"variable {var!r} not bound in any copy of {frame!r}")

    def main_var(self, var: str, default: Any = _RAISE) -> Any:
        return self.var_value(self.main_frame, var, default)


class HostImage:
    """One host's slice of a :class:`RuntimeImage` — the per-host
    artifacts that no session mutates."""

    __slots__ = (
        "name",
        "entries",
        "entry_acl",
        "entry_table",
        "field_defaults",
        "forward_denied",
        "constant_denied",
        "compiled",
    )

    def __init__(
        self,
        name: str,
        split: SplitProgram,
        forward_denied: Dict[str, FrozenSet[Tuple[Tuple[str, str], str]]],
        constant_denied: FrozenSet[str],
        compiled: Dict[str, CompiledFragment],
    ) -> None:
        self.name = name
        #: the image-wide compiled fragment cache (shared across hosts).
        self.compiled = compiled
        #: entries this host serves.
        self.entries: Dict[str, Fragment] = {
            f.entry: f for f in split.fragments_on(name)
        }
        #: per-entry invoker ACLs (Figure 6's ``I_i ⊑ I_e``).
        self.entry_acl: Dict[str, FrozenSet[str]] = {
            entry: split.entry_invokers(entry) for entry in self.entries
        }
        #: per-entry dispatch table: entry -> (fragment, invoker ACL),
        #: so the sync/rgoto hot path validates with one dict probe.
        self.entry_table: Dict[str, Tuple[Fragment, FrozenSet[str]]] = {
            entry: (fragment, self.entry_acl[entry])
            for entry, fragment in self.entries.items()
        }
        #: initial values of statically placed fields; sessions start
        #: from a plain copy of this dict.
        self.field_defaults: Dict[Tuple[str, str, Optional[int]], Any] = {
            (p.cls, p.field, None): p.default_value()
            for p in split.fields_on(name)
        }
        #: shared (image-wide) forward integrity-check results.
        self.forward_denied = forward_denied
        self.constant_denied = constant_denied


class RuntimeImage:
    """The immutable per-(split, registry) runtime artifacts.

    Built once, shared by arbitrarily many sessions (and by every
    :func:`run_split_program` call over the same split): nothing in
    here is ever mutated by a run.  Sharing is also
    the key-reuse contract — the registry's HMAC keys are derived once
    per image, not once per run.
    """

    __slots__ = (
        "split",
        "registry",
        "compiled",
        "host_images",
        "main_method_key",
    )

    def __init__(
        self, split: SplitProgram, registry: Optional[KeyRegistry] = None
    ) -> None:
        self.split = split
        self.registry = registry or KeyRegistry()
        #: compiled fragment cache, shared across hosts and sessions;
        #: empty here, filled as ``run_chain`` first enters each fragment.
        self.compiled: Dict[str, CompiledFragment] = compile_split(split)
        # Derive every host key now, so no session pays for it.
        for descriptor in split.config.hosts:
            self.registry.register(f"host:{descriptor.name}")
        forward_denied, constant_denied = self._precompute_forward_checks(split)
        self.host_images: Dict[str, HostImage] = {
            descriptor.name: HostImage(
                descriptor.name,
                split,
                forward_denied,
                constant_denied,
                self.compiled,
            )
            for descriptor in split.config.hosts
        }
        #: the main method's key, or None for a program with no main
        #: (sessions over such a split can be constructed, not started).
        self.main_method_key = (
            split.fragments[split.main_entry].method_key
            if split.main_entry is not None
            else None
        )

    @staticmethod
    def _precompute_forward_checks(
        split: SplitProgram,
    ) -> Tuple[
        Dict[str, FrozenSet[Tuple[Tuple[str, str], str]]], FrozenSet[str]
    ]:
        """The forward integrity checks, evaluated once per image.

        A ``forward`` applies ``I_src ⊑ I(L_var)`` per variable; both
        sides are static per split, so the denied (src, method, var)
        combinations are a fixed set.  Honest runs never hit a denial —
        the common case is an empty set per sender.
        """
        hierarchy = split.config.hierarchy
        forward_denied: Dict[str, FrozenSet[Tuple[Tuple[str, str], str]]] = {}
        constant_integ = Label.constant().integ
        constant_denied = frozenset(
            descriptor.name
            for descriptor in split.config.hosts
            if not descriptor.integ.flows_to(constant_integ, hierarchy)
        )
        for descriptor in split.config.hosts:
            denied = []
            for method_key, plan in split.methods.items():
                for var, label in plan.var_labels.items():
                    if not descriptor.integ.flows_to(label.integ, hierarchy):
                        denied.append((method_key, var))
            forward_denied[descriptor.name] = frozenset(denied)
        return forward_denied, constant_denied

    @classmethod
    def for_split(
        cls, split: SplitProgram, registry: Optional[KeyRegistry] = None
    ) -> "RuntimeImage":
        """The shared image of ``split``, memoized on the split object.

        With ``registry=None`` (the common case) every caller gets the
        same image and therefore the same derived key material; passing
        an explicit registry yields an image bound to it (memoized per
        registry object).
        """
        images = getattr(split, "_images", None)
        if images is None:
            images = split._images = {}
        key = id(registry) if registry is not None else None
        image = images.get(key)
        if image is None or (
            registry is not None and image.registry is not registry
        ):
            image = images[key] = cls(split, registry)
        return image


class Session:
    """One run's mutable state over a shared :class:`RuntimeImage`.

    Drives the control loop step-wise (:meth:`start` / :meth:`step`)
    so a caller can interleave many concurrent sessions, and supports
    :meth:`reset`-in-place so a pool can recycle it without
    reconstructing hosts or network.
    """

    def __init__(
        self,
        image: RuntimeImage,
        cost_model: Optional[CostModel] = None,
        opt_level: int = 1,
        faults: Optional[FaultInjector] = None,
        token_rng=None,
        quarantine: bool = False,
        checkpoint_interval: int = 4,
        storage=None,
    ) -> None:
        self.image = image
        self.split = image.split
        self.registry = image.registry
        self.network = SimNetwork(cost_model, faults=faults)
        #: opt in to the quarantine layer: a rejected remote request
        #: raises SecurityAbort and blacklists the offender instead of
        #: being silently ignored.
        self.network.quarantine_enabled = quarantine
        #: the optional durable tier (a :class:`~repro.runtime.storage.
        #: sqlite_backend.SessionStorage`); ``None`` consults the
        #: ``REPRO_STORAGE`` environment default.
        if storage is None:
            storage = default_storage()
        elif storage is NO_STORAGE:
            storage = None
        self.storage = storage
        #: True once ``run()`` has discarded an auto tier; the next
        #: ``reset(storage=_KEEP)`` then creates a fresh one.
        self._auto_discarded = False
        self._token_rng = token_rng
        self.hosts: Dict[str, TrustedHost] = {}
        for descriptor in self.split.config.hosts:
            self.hosts[descriptor.name] = TrustedHost(
                descriptor.name,
                self.split,
                self.network,
                self.registry,
                opt_level=opt_level,
                token_rng=token_rng,
                checkpoint_interval=checkpoint_interval,
                image=image.host_images[descriptor.name],
            )
        self._main_frame: Optional[FrameID] = None
        self._started = False
        self._halted = False
        self._steps = 0
        if self.storage is not None:
            self._attach_storage()

    def _attach_storage(self) -> None:
        """Wire every host's durable store to the session's persistent
        tier and publish boundary 1 (base checkpoints + empty journal)."""
        storage = self.storage
        storage.on_degrade = self._note_degraded
        if not storage.available:
            self._note_degraded(
                storage.degraded_reason or "storage unavailable"
            )
            return
        for name in self.hosts:
            storage.record_key(name, self.registry.key_of(f"host:{name}"))
        storage.record_digest(self.split.digest)
        storage.begin()
        for host in self.hosts.values():
            host.attach_storage(storage)
        storage.save_boundary(self)

    def _note_degraded(self, reason: str) -> None:
        """The durable tier failed: detach it and keep running
        fail-closed on the authoritative in-memory state.  Recorded in
        the trace so a deployment can see it lost durability."""
        self.network._emit("degraded", None, None, reason)
        for host in self.hosts.values():
            host.detach_storage()

    # -- lifecycle -----------------------------------------------------------

    def reset(
        self,
        cost_model: Optional[CostModel] = None,
        opt_level: int = 1,
        faults: Optional[FaultInjector] = None,
        token_rng=None,
        quarantine: bool = False,
        checkpoint_interval: int = 4,
        storage=_KEEP,
    ) -> "Session":
        """Reset-in-place back to a fresh session over the same image.

        Clears every piece of mutable state — network accounting and
        queues, host frames/fields/arrays/ICS/dedup tables, durable
        stores, trace listeners — without reconstructing any object, so
        a pooled run's steady-state cost is the run itself.  Parameters
        mirror ``__init__`` and default to a fault-free session.

        ``storage`` defaults to recycling the attached durable tier in
        place (its persisted rows are wound back to a fresh lifetime), or
        to a fresh ``REPRO_STORAGE`` default when the last run discarded
        its auto tier; pass ``None``/``NO_STORAGE`` to detach it, or a
        new ``SessionStorage`` to swap tiers.
        """
        if storage is _KEEP:
            storage = self.storage
            if storage is None and self._auto_discarded:
                storage = default_storage()
        elif storage is NO_STORAGE:
            storage = None
        self._auto_discarded = False
        if storage is not self.storage:
            # Swapping tiers: sever the old one before anything writes.
            if self.storage is not None:
                self.storage.close()
            for host in self.hosts.values():
                host.detach_storage()
        self.storage = storage
        self._token_rng = token_rng
        usable = storage is not None and storage.available
        if usable:
            storage.begin()
            storage.reset_for_recycle()
        self.network.reset(faults=faults)
        if cost_model is not None:
            self.network.cost = cost_model
        self.network.quarantine_enabled = quarantine
        for host in self.hosts.values():
            # Hosts whose durable store still points at `storage`
            # recycle their persisted rows in place here.
            host.reset(
                opt_level=opt_level,
                token_rng=token_rng,
                checkpoint_interval=checkpoint_interval,
            )
        self._main_frame = None
        self._started = False
        self._halted = False
        self._steps = 0
        if storage is None:
            for host in self.hosts.values():
                host.detach_storage()
            return self
        storage.on_degrade = self._note_degraded
        if usable and storage.available:
            for name in self.hosts:
                storage.record_key(
                    name, self.registry.key_of(f"host:{name}")
                )
            storage.record_digest(self.split.digest)
            for host in self.hosts.values():
                if host.durable is None or host.durable.backend is None:
                    host.attach_storage(storage)
            storage.save_boundary(self)
        elif not storage.available:
            self._note_degraded(
                storage.degraded_reason or "storage unavailable"
            )
        return self

    @property
    def halted(self) -> bool:
        return self._halted

    def start(self) -> bool:
        """Mint the root capability and run the main chain until control
        first leaves the main host; returns True when that already
        completed the program."""
        assert not self._started, "session already started; reset() first"
        split = self.split
        assert split.main_entry is not None
        assert self.image.main_method_key is not None
        storage = self.storage
        if storage is not None and storage.available:
            storage.begin()
        main_host = self.hosts[split.main_host]
        self._main_frame = FrameID(self.image.main_method_key)
        # The root capability t0: consuming it halts the program.
        root = main_host.factory.mint(self._main_frame, split.main_entry)
        main_host.adopt_root(root)
        state = ExecutionState(split.main_entry, self._main_frame, root)
        self._started = True
        try:
            main_host.run_chain(state)
        except HaltSignal:
            self._halted = True
        if storage is not None and storage.available:
            storage.save_boundary(self)
        return self._halted

    def step(self) -> bool:
        """Deliver one pending control message; returns True when the
        program has halted."""
        if self._halted:
            return True
        storage = self.storage
        if storage is not None and storage.available:
            storage.begin()
        message = self.network.pop_control()
        if message is None:
            raise RuntimeError(
                "distributed execution stalled: no control message "
                "pending and the program has not halted"
            )
        handler = self.hosts[message.dst]
        try:
            handler.handle(message)
        except HaltSignal:
            self._halted = True
        self._steps += 1
        if self._steps > _MAX_STEPS:
            raise RuntimeError("execution exceeded the step budget")
        if storage is not None and storage.available:
            storage.save_boundary(self)
        return self._halted

    def run(self) -> ExecutionResult:
        """Execute the program to completion."""
        if not self._started:
            self.start()
        while not self._halted:
            self.step()
        storage = self.storage
        if storage is not None and storage.auto:
            # Environment-created tiers are per-run scratch space; a
            # completed run has nothing left to rehydrate.
            storage.discard()
            self.storage = None
            self._auto_discarded = True
        return self.result()

    def result(self) -> ExecutionResult:
        assert self._main_frame is not None, "session never started"
        return ExecutionResult(self.network, self.hosts, self._main_frame)

    def observables(self) -> Dict[str, Any]:
        """The invariant surface one run exposes: message counts,
        simulated time, and per-host ICS depths — the facts a pooled
        session must reproduce bit-identically from the solo oracle."""
        return {
            "messages": self.network.table_counts(),
            "simulated_seconds": round(self.network.clock, 6),
            "ics_depths": {
                name: host.stack.depth
                for name, host in sorted(self.hosts.items())
            },
        }


class SessionPool:
    """A free-list of reusable sessions over one shared image.

    ``acquire`` hands out a reset session (creating one only when the
    free list is empty); ``release`` resets it in place and returns it
    to the list.  Sessions are uniform: every acquisition sees the
    options the pool was built with.  Pools are meant for the
    deterministic fault-free serving path; attaching a shared
    ``FaultInjector`` is allowed but its RNG state deliberately carries
    across sessions (schedules stay seed-reproducible end to end).
    """

    def __init__(self, image: RuntimeImage, size: int = 0, **session_opts) -> None:
        self.image = image
        self._opts = session_opts
        self._free: List[Session] = [
            Session(image, **session_opts) for _ in range(size)
        ]
        #: sessions ever constructed / resets performed (observability).
        self.created = size
        self.resets = 0

    def acquire(self) -> Session:
        if self._free:
            return self._free.pop()
        self.created += 1
        return Session(self.image, **self._opts)

    def release(self, session: Session) -> None:
        assert session.image is self.image, "session from a different image"
        session.reset(**self._opts)
        self.resets += 1
        self._free.append(session)

    def __len__(self) -> int:
        return len(self._free)


def run_split_program(
    split: SplitProgram,
    cost_model: Optional[CostModel] = None,
    opt_level: int = 1,
    faults: Optional[FaultInjector] = None,
    token_rng=None,
    quarantine: bool = False,
    storage=None,
) -> ExecutionResult:
    """Execute a split program as one :class:`Session` and return the
    result (whose ``hosts``/``network`` stay readable after the run).

    With ``faults`` set, the run either completes with the fault-free
    result or raises :class:`~repro.runtime.network.DeliveryTimeoutError`
    (fail closed) — never a wrong answer.  With ``quarantine`` set, a
    detected protocol violation raises
    :class:`~repro.runtime.network.SecurityAbort` instead of stalling.

    **Key-reuse contract.** Every call over the same split shares that
    split's memoized :class:`RuntimeImage`, including its
    :class:`~repro.trust.KeyRegistry`: per-host HMAC keys are derived
    once per image, not once per call.  This is safe because keys never
    appear in any observable — tokens are minted fresh per session
    (nonces come from ``token_rng``/``os.urandom``), and nothing
    outlives the session that minted it.  A caller that *wants* distinct
    key material (e.g. to model key rotation) builds its own
    ``RuntimeImage(split, registry)`` and runs a :class:`Session` on it.
    """
    return Session(
        RuntimeImage.for_split(split), cost_model=cost_model,
        opt_level=opt_level, faults=faults, token_rng=token_rng,
        quarantine=quarantine, storage=storage,
    ).run()
