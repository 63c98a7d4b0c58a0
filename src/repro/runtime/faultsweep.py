"""Seeded fault-injection sweeps: the "never a wrong answer" check.

A sweep takes one split program and runs it under many randomly drawn —
but seed-reproducible — fault schedules.  Each schedule must end in one
of exactly two ways:

* the run **completes** with field values identical to the fault-free
  reference run, every delivered message's data labels within the
  receiving host's confidentiality clearance, and an empty audit log; or
* the run **fails closed** with an explicit
  :class:`~repro.runtime.network.DeliveryTimeoutError`.

Anything else — a wrong field value, a label above the receiver's
clearance, an unexpected exception — is recorded as a failure.  The CLI
(``python -m repro faultsweep``) and the differential test harness both
drive this engine.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from ..splitter.fragments import SplitProgram
from .session import ExecutionResult, run_split_program
from .faults import CrashPointInjector, FaultInjector, FaultPolicy
from .network import DeliveryTimeoutError


def random_policy(rng: random.Random) -> FaultPolicy:
    """Draw one fault schedule's knobs; spans mild to fairly hostile."""
    return FaultPolicy(
        drop_prob=rng.uniform(0.0, 0.15),
        duplicate_prob=rng.uniform(0.0, 0.15),
        reorder_prob=rng.uniform(0.0, 0.3),
        jitter_max=rng.uniform(0.0, 1e-3),
        crash_prob=rng.uniform(0.0, 0.02),
        crash_downtime=rng.uniform(1e-4, 4e-3),
        max_crashes=3,
    )


class ScheduleOutcome:
    """What happened under one fault schedule."""

    __slots__ = ("seed", "policy", "status", "detail", "fault_counts")

    def __init__(
        self,
        seed: int,
        policy: FaultPolicy,
        status: str,
        detail: str = "",
        fault_counts: Optional[Dict[str, int]] = None,
    ) -> None:
        self.seed = seed
        self.policy = policy
        #: "ok" | "timeout" | "failure"
        self.status = status
        self.detail = detail
        self.fault_counts = fault_counts or {}

    def __repr__(self) -> str:
        return f"ScheduleOutcome(seed={self.seed}, {self.status})"


class SweepReport:
    """Aggregate of a whole sweep."""

    def __init__(self, reference: Dict[Tuple[str, str], object]) -> None:
        self.reference = reference
        self.schedules: List[ScheduleOutcome] = []
        self.failures: List[str] = []

    @property
    def completed(self) -> int:
        return sum(1 for s in self.schedules if s.status == "ok")

    @property
    def timeouts(self) -> int:
        return sum(1 for s in self.schedules if s.status == "timeout")

    def summary(self) -> str:
        total = len(self.schedules)
        faults = sum(
            sum(s.fault_counts.values()) for s in self.schedules
        )
        lines = [
            f"{total} schedules: {self.completed} completed with the "
            f"fault-free result, {self.timeouts} failed closed (timeout), "
            f"{len(self.failures)} FAILED; {faults} injected fault events"
        ]
        for failure in self.failures:
            lines.append(f"  FAIL {failure}")
        return "\n".join(lines)


def reference_fields(
    split: SplitProgram, opt_level: int = 1
) -> Dict[Tuple[str, str], object]:
    """Field values of the fault-free run — the oracle for the sweep."""
    outcome = run_split_program(split, opt_level=opt_level)
    return {
        key: outcome.field_value(*key) for key in split.fields
    }


def assurance_problems(split: SplitProgram, outcome: ExecutionResult) -> List[str]:
    """Label violations among everything the network saw delivered.

    Checks both the per-message instrumentation (each transmitted
    message's data labels against the destination's confidentiality
    clearance) and the flow log (each labeled value that became visible
    to a host).
    """
    config = split.config
    problems: List[str] = []
    for message in outcome.network.message_log:
        descriptor = config.host(message.dst)
        for label in message.data_labels:
            if not label.conf.flows_to(descriptor.conf):
                problems.append(
                    f"{message.kind} {message.src}->{message.dst} carried "
                    f"{label} above C_{message.dst}"
                )
    for label, host in outcome.network.flow_log:
        descriptor = config.host(host)
        if not label.conf.flows_to(descriptor.conf):
            problems.append(f"data labeled {label} became visible to {host}")
    return problems


def _run_schedule(
    split: SplitProgram,
    reference: Dict[Tuple[str, str], object],
    seed: int,
    opt_level: int,
    policy_factory: Callable[[random.Random], FaultPolicy],
) -> Tuple[ScheduleOutcome, Optional[str]]:
    """One fault schedule; returns the outcome plus the untagged failure
    line (``None`` unless the schedule is a failure)."""
    policy = policy_factory(random.Random(seed))
    faults = FaultInjector(policy, seed=seed)
    token_rng = random.Random(seed ^ 0x5EED)
    try:
        outcome = run_split_program(
            split, opt_level=opt_level, faults=faults, token_rng=token_rng
        )
    except DeliveryTimeoutError as error:
        return ScheduleOutcome(
            seed, policy, "timeout", str(error), {"crashes": faults.crashes}
        ), None
    except Exception as error:  # noqa: BLE001 — any other escape is a bug
        return ScheduleOutcome(
            seed, policy, "failure", repr(error)
        ), f"seed={seed} {policy}: unexpected {error!r}"
    problems: List[str] = []
    for key, expected in reference.items():
        got = outcome.field_value(*key)
        if got != expected:
            problems.append(
                f"field {key[0]}.{key[1]} = {got!r}, expected "
                f"{expected!r}"
            )
    problems.extend(assurance_problems(split, outcome))
    if outcome.audits:
        problems.append(f"audit log not empty: {outcome.audits}")
    counts = dict(outcome.network.fault_counts)
    if problems:
        detail = "; ".join(problems)
        return ScheduleOutcome(
            seed, policy, "failure", detail, counts
        ), f"seed={seed} {policy}: {detail}"
    return ScheduleOutcome(seed, policy, "ok", fault_counts=counts), None


def sweep(
    split: SplitProgram,
    schedules: int = 50,
    base_seed: int = 0,
    opt_level: int = 1,
    policy_factory: Callable[[random.Random], FaultPolicy] = random_policy,
    name: str = "",
) -> SweepReport:
    """Run ``schedules`` seeded fault schedules against ``split``."""
    reference = reference_fields(split, opt_level=opt_level)
    report = SweepReport(reference)
    tag = f"{name} " if name else ""
    for index in range(schedules):
        outcome, failure = _run_schedule(
            split, reference, base_seed + index, opt_level, policy_factory
        )
        report.schedules.append(outcome)
        if failure is not None:
            report.failures.append(tag + failure)
    return report


# ----------------------------------------------------------------------
# Crash-point sweep: crash every host at every message-kind boundary
# ----------------------------------------------------------------------


class CrashPointOutcome:
    """One deterministic crash point's result."""

    __slots__ = ("host", "kind", "occurrence", "status", "detail")

    def __init__(
        self, host: str, kind: str, occurrence: int, status: str,
        detail: str = "",
    ) -> None:
        self.host = host
        self.kind = kind
        self.occurrence = occurrence
        #: "ok" | "timeout" | "failure"
        self.status = status
        self.detail = detail

    def __repr__(self) -> str:
        return (
            f"CrashPointOutcome({self.host}/{self.kind}"
            f"@{self.occurrence}, {self.status})"
        )


class CrashSweepReport:
    """Aggregate of a crash-point sweep."""

    def __init__(self, reference: Dict[Tuple[str, str], object]) -> None:
        self.reference = reference
        self.points: List[CrashPointOutcome] = []
        self.failures: List[str] = []

    @property
    def completed(self) -> int:
        return sum(1 for p in self.points if p.status == "ok")

    @property
    def timeouts(self) -> int:
        return sum(1 for p in self.points if p.status == "timeout")

    def summary(self) -> str:
        lines = [
            f"{len(self.points)} crash points: {self.completed} recovered "
            f"with the fault-free result, {self.timeouts} failed closed "
            f"(timeout), {len(self.failures)} FAILED"
        ]
        for failure in self.failures:
            lines.append(f"  FAIL {failure}")
        return "\n".join(lines)


def _pick_occurrences(total: int, per_point: Optional[int]) -> List[int]:
    """Up to ``per_point`` receipt indices in [0, total), evenly spaced
    and always including the first and last receipt; None means all."""
    if per_point is None or per_point >= total:
        return list(range(total))
    if per_point <= 1:
        return [0]
    step = (total - 1) / (per_point - 1)
    return sorted({round(i * step) for i in range(per_point)})


def _run_crash_point(
    split: SplitProgram,
    point: Tuple[str, str, int],
    opt_level: int,
    crash_downtime: float,
    token_seed: int,
    ref_fields: Dict[Tuple[str, str], object],
    ref_depths: Dict[str, int],
    baseline_problems: frozenset,
) -> Tuple[CrashPointOutcome, Optional[str]]:
    """One deterministic crash point; returns the outcome plus the
    untagged failure line (``None`` unless the point is a failure)."""
    dst, kind, occurrence = point
    injector = CrashPointInjector(
        dst, kind, occurrence, crash_downtime=crash_downtime
    )
    label = f"{dst}/{kind}@{occurrence}"
    try:
        outcome = run_split_program(
            split, opt_level=opt_level, faults=injector,
            token_rng=random.Random(token_seed),
        )
    except DeliveryTimeoutError as error:
        return CrashPointOutcome(
            dst, kind, occurrence, "timeout", str(error)
        ), None
    except Exception as error:  # noqa: BLE001 — any escape is a bug
        return CrashPointOutcome(
            dst, kind, occurrence, "failure", repr(error)
        ), f"{label}: unexpected {error!r}"
    problems: List[str] = []
    if not injector.fired:
        problems.append("crash point never reached")
    for key, expected in ref_fields.items():
        got = outcome.field_value(*key)
        if got != expected:
            problems.append(
                f"field {key[0]}.{key[1]} = {got!r}, expected "
                f"{expected!r}"
            )
    problems.extend(
        p for p in assurance_problems(split, outcome)
        if p not in baseline_problems
    )
    if outcome.audits:
        problems.append(f"audit log not empty: {outcome.audits}")
    for host, h in outcome.hosts.items():
        if h.stack.depth != ref_depths[host]:
            problems.append(
                f"{host} ICS depth {h.stack.depth} != "
                f"fault-free {ref_depths[host]}"
            )
    if injector.fired and not any(
        event[0] == "recover"
        for event in outcome.network.fault_events
    ):
        problems.append("no recovery event after a crash")
    if problems:
        detail = "; ".join(problems)
        return CrashPointOutcome(
            dst, kind, occurrence, "failure", detail
        ), f"{label}: {detail}"
    return CrashPointOutcome(dst, kind, occurrence, "ok"), None


def crash_point_sweep(
    split: SplitProgram,
    opt_level: int = 1,
    per_point: Optional[int] = 3,
    crash_downtime: float = 2e-3,
    name: str = "",
    token_seed: int = 0x5EED,
) -> CrashSweepReport:
    """Crash each host at each message-kind receipt boundary, recover,
    and check the run still ends bit-identical to fault-free.

    The boundaries are enumerated from a fault-free reference run's
    message log: every remote ``(dst host, kind)`` pair, sampled at up
    to ``per_point`` receipt indices (``None`` = every single receipt).
    Because :class:`~repro.runtime.faults.CrashPointInjector` injects no
    other fault, the pre-crash prefix of each run matches the reference
    exactly, so every enumerated point is guaranteed to fire.
    """
    tag = f"{name} " if name else ""
    reference = run_split_program(
        split, opt_level=opt_level, token_rng=random.Random(token_seed)
    )
    ref_fields = {
        key: reference.field_value(*key) for key in split.fields
    }
    ref_depths = {
        host: h.stack.depth for host, h in reference.hosts.items()
    }
    # Some workloads (e.g. medical) declassify data whose static label
    # the per-message instrumentation still flags; only flows the
    # fault-free run does NOT exhibit count against a crash point.
    baseline_problems = frozenset(assurance_problems(split, reference))
    receipt_counts = Counter(
        (m.dst, m.kind)
        for m in reference.network.message_log
        if m.src != m.dst
    )
    points = [
        (dst, kind, occurrence)
        for (dst, kind), total in sorted(receipt_counts.items())
        for occurrence in _pick_occurrences(total, per_point)
    ]
    report = CrashSweepReport(ref_fields)
    for point in points:
        outcome, failure = _run_crash_point(
            split, point, opt_level, crash_downtime,
            token_seed, ref_fields, ref_depths, baseline_problems,
        )
        report.points.append(outcome)
        if failure is not None:
            report.failures.append(tag + failure)
    return report


# ----------------------------------------------------------------------
# Storage fault sweep: the durable tier under injected storage failures
# ----------------------------------------------------------------------


class StorageScheduleOutcome:
    """One storage fault schedule's result."""

    __slots__ = ("seed", "status", "detail", "degraded", "tampered")

    def __init__(
        self, seed: int, status: str, detail: str = "",
        degraded: bool = False, tampered: str = "",
    ) -> None:
        self.seed = seed
        #: "ok" | "failure"
        self.status = status
        self.detail = detail
        #: whether the live run lost its durable tier mid-flight.
        self.degraded = degraded
        #: the post-mortem tamper kind applied ("" = none).
        self.tampered = tampered

    def __repr__(self) -> str:
        return f"StorageScheduleOutcome(seed={self.seed}, {self.status})"


class StorageSweepReport:
    """Aggregate of a storage fault sweep."""

    def __init__(self) -> None:
        self.schedules: List[StorageScheduleOutcome] = []
        self.failures: List[str] = []

    @property
    def completed(self) -> int:
        return sum(1 for s in self.schedules if s.status == "ok")

    @property
    def degradations(self) -> int:
        return sum(1 for s in self.schedules if s.degraded)

    def summary(self) -> str:
        tampers = sum(1 for s in self.schedules if s.tampered)
        lines = [
            f"{len(self.schedules)} storage schedules: {self.completed} ok "
            f"({self.degradations} degraded gracefully, {tampers} tamper "
            f"checks failed closed), {len(self.failures)} FAILED"
        ]
        for failure in self.failures:
            lines.append(f"  FAIL {failure}")
        return "\n".join(lines)


def storage_fault_sweep(
    split: SplitProgram,
    schedules: int = 25,
    base_seed: int = 0,
    opt_level: int = 1,
    name: str = "",
) -> StorageSweepReport:
    """Run seeded storage-fault schedules against the SQLite tier.

    Each schedule runs the workload on a SQLite-backed session with a
    seeded :class:`~repro.runtime.storage.faultsim.StorageFaultInjector`
    (locked/busy databases exercising the bounded retry path, disk-full
    exercising graceful degradation).  The live run must always complete
    with the fault-free field values — the in-memory state is
    authoritative, so a dying disk may cost durability, never
    correctness — and a degradation must leave a recorded ``degraded``
    trace event.  When the tier survives, the schedule then attacks the
    directory post-mortem with a seeded tamper kind and requires
    rehydration to fail closed (or, untampered, to reproduce the
    oracle's observables bit-identically).
    """
    import shutil
    import tempfile

    from ..trust import KeyRegistry
    from .checkpoint import CheckpointTamperError
    from .session import RuntimeImage, Session
    from .storage import (
        SessionStorage,
        StorageUnavailableError,
        rehydrate_session,
    )
    from .storage.faultsim import (
        TAMPER_KINDS,
        StorageFaultInjector,
        StorageFaultPolicy,
    )

    tag = f"{name} " if name else ""
    report = StorageSweepReport()
    image = RuntimeImage(split, KeyRegistry())
    oracle = Session(image)
    oracle.run()
    oracle_fields = {
        key: oracle.result().field_value(*key) for key in split.fields
    }
    oracle_observables = oracle.observables()
    for index in range(schedules):
        seed = base_seed + index
        rng = random.Random(seed ^ 0x570AA6E)
        policy = StorageFaultPolicy(
            busy_prob=rng.uniform(0.0, 0.3),
            diskfull_after=(
                rng.randrange(5, 80) if rng.random() < 0.4 else None
            ),
        )
        directory = tempfile.mkdtemp(prefix="repro-storage-sweep-")
        problems: List[str] = []
        degraded = False
        tampered = ""
        try:
            storage = SessionStorage(directory)
            injector = StorageFaultInjector(policy, seed=seed)
            injector.install(storage)
            session = Session(image, opt_level=opt_level, storage=storage)
            try:
                outcome = session.run()
            except Exception as error:  # noqa: BLE001 — any escape is a bug
                problems.append(f"live run raised {error!r}")
                outcome = None
            if outcome is not None:
                for key, expected in oracle_fields.items():
                    got = outcome.field_value(*key)
                    if got != expected:
                        problems.append(
                            f"field {key[0]}.{key[1]} = {got!r}, "
                            f"expected {expected!r}"
                        )
                degraded = not storage.available
                events = [
                    e for e in session.network.fault_events
                    if e[0] == "degraded"
                ]
                if degraded and not events:
                    problems.append(
                        "storage degraded without a recorded event"
                    )
                if events and not degraded:
                    problems.append(
                        "degraded event recorded but tier still attached"
                    )
            if outcome is not None and not degraded:
                # Post-mortem: tamper half the surviving directories.
                storage.fault_hook = None
                storage.close()
                if rng.random() < 0.5:
                    tampered = TAMPER_KINDS[rng.randrange(len(TAMPER_KINDS))]
                    try:
                        from .storage.faultsim import tamper

                        tamper(directory, tampered)
                    except RuntimeError:
                        # No rows of the targeted kind (e.g. an empty
                        # WAL right after a checkpoint): tamper the
                        # checkpoint instead, which always exists.
                        tampered = "corrupt-page"
                        from .storage.faultsim import tamper

                        tamper(directory, tampered)
                try:
                    resumed = rehydrate_session(split, directory)
                    if tampered:
                        problems.append(
                            f"tamper {tampered} was not detected"
                        )
                    else:
                        resumed.run()
                        if resumed.observables() != oracle_observables:
                            problems.append(
                                "rehydrated observables diverge from "
                                "the oracle"
                            )
                except (CheckpointTamperError, StorageUnavailableError):
                    if not tampered:
                        problems.append(
                            "untampered directory failed rehydration"
                        )
                except Exception as error:  # noqa: BLE001
                    problems.append(
                        f"rehydration raised unexpected {error!r}"
                    )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if problems:
            detail = "; ".join(problems)
            report.schedules.append(
                StorageScheduleOutcome(
                    seed, "failure", detail, degraded, tampered
                )
            )
            report.failures.append(f"{tag}seed={seed}: {detail}")
        else:
            report.schedules.append(
                StorageScheduleOutcome(seed, "ok", "", degraded, tampered)
            )
    return report
