"""Session isolation under interleaving (satellite of the session engine).

Many sessions share one :class:`RuntimeImage`; nothing a neighbouring
session does — fault injection, quarantine blacklisting, crashes into
fail-closed timeouts — may change a clean session's observables.  The
tests interleave fault-injected sessions with a clean one, message by
message, and pin the clean session bit-identical to a solo run; the
quarantine tests pin the blacklist to the session that earned it.
"""

import random

import pytest

from repro.reporting.throughput import (
    aggregation_config,
    aggregation_source,
    request_workloads,
)
from repro.runtime import (
    DeliveryTimeoutError,
    FaultInjector,
    FaultPolicy,
    RuntimeImage,
    SecurityAbort,
    Session,
    SessionPool,
)
from repro.splitter import split_source
from repro.trust import HostDescriptor
from repro.workloads import ot, tax


def fingerprint(session):
    outcome = session.result()
    fields = {
        key: outcome.field_value(key[0], key[1], default=None)
        for key in session.split.fields
    }
    return session.observables(), fields, list(outcome.audits)


def interleave(sessions, clean):
    """Round-robin one control message per session.

    A faulted session may fail closed (``DeliveryTimeoutError``) — that
    is an acceptable per-session outcome, but it must never surface on
    the clean session.
    """
    for session in sessions:
        session.start()
    active = [s for s in sessions if not s.halted]
    while active:
        still_running = []
        for session in active:
            try:
                if not session.step():
                    still_running.append(session)
            except DeliveryTimeoutError:
                assert session is not clean, (
                    "clean session failed closed: a neighbour's faults "
                    "leaked across the session boundary"
                )
        active = still_running


def drive(pools, count, concurrency, observer=None):
    """Serve ``count`` pooled sessions, at most ``concurrency`` in
    flight, delivering one control message to each in round-robin order
    (a single-threaded server multiplexing requests).  Launches rotate
    across ``pools`` (session ``i`` comes from ``pools[i % len]``).
    ``observer`` sees each completed session before its pool recycles
    it; returns every session's observables in completion order."""
    active = []
    records = []
    launched = 0

    def finish(session, pool):
        records.append(session.observables())
        if observer is not None:
            observer(session)
        pool.release(session)

    while launched < count or active:
        while launched < count and len(active) < concurrency:
            pool = pools[launched % len(pools)]
            session = pool.acquire()
            launched += 1
            if session.start():
                finish(session, pool)
            else:
                active.append((session, pool))
        still_running = []
        for session, pool in active:
            if session.step():
                finish(session, pool)
            else:
                still_running.append((session, pool))
        active = still_running
    return records


def test_clean_session_is_bit_identical_under_faulted_neighbours():
    split = split_source(tax.source(records=3), tax.config()).split
    image = RuntimeImage.for_split(split)
    solo = Session(image)
    solo.run()
    want = fingerprint(solo)

    clean = Session(image)
    policy = FaultPolicy(duplicate_prob=1.0, jitter_max=5e-3)
    faulted = [
        Session(
            image,
            faults=FaultInjector(policy, seed=seed),
            token_rng=random.Random(seed),
        )
        for seed in (1, 2, 3)
    ]
    interleave([faulted[0], clean, faulted[1], faulted[2]], clean)

    assert clean.halted
    assert fingerprint(clean) == want
    assert clean.network.fault_events == []
    # The neighbours really were under fire, in their own traces only.
    for session in faulted:
        assert session.network.fault_counts, "fault injector never fired"


#: Solo-run observables of each request-sized Table 1 program
#: (``request_workloads()``).  Machine-independent: a pooled session
#: must reproduce them bit for bit.
REQUEST_OBSERVABLES = {
    "List": {
        "messages": {
            "forward": 5, "getField": 0, "setField": 0, "sync": 4,
            "lgoto": 10, "rgoto": 14, "total_messages": 42,
            "eliminated": 14,
        },
        "simulated_seconds": 0.015136,
        "ics_depths": {"A": 0, "B": 0, "T": 0},
    },
    "Medical": {
        "messages": {
            "forward": 0, "getField": 3, "setField": 5, "sync": 0,
            "lgoto": 1, "rgoto": 7, "total_messages": 24,
            "eliminated": 10,
        },
        "simulated_seconds": 0.007947,
        "ics_depths": {
            "ClinicHost": 0, "InsurerHost": 0, "LabHost": 0,
            "PartnerHost": 0,
        },
    },
    "OT": {
        "messages": {
            "forward": 2, "getField": 0, "setField": 0, "sync": 1,
            "lgoto": 2, "rgoto": 5, "total_messages": 13,
            "eliminated": 4,
        },
        "simulated_seconds": 0.004543,
        "ics_depths": {"A": 0, "B": 0, "T": 0},
    },
    "Tax": {
        "messages": {
            "forward": 0, "getField": 4, "setField": 0, "sync": 0,
            "lgoto": 1, "rgoto": 7, "total_messages": 16,
            "eliminated": 3,
        },
        "simulated_seconds": 0.00532,
        "ics_depths": {"Bank": 0, "Broker": 0, "Prep": 0},
    },
    "Work": {
        "messages": {
            "forward": 0, "getField": 0, "setField": 0, "sync": 0,
            "lgoto": 2, "rgoto": 2, "total_messages": 4,
            "eliminated": 0,
        },
        "simulated_seconds": 0.001539,
        "ics_depths": {"A": 0, "B": 0},
    },
}


def solo_observables(split):
    solo = Session(RuntimeImage.for_split(split))
    solo.run()
    return solo.observables()


@pytest.mark.parametrize("name", sorted(REQUEST_OBSERVABLES))
def test_driver_interleaving_matches_solo_oracle(name):
    source, config = request_workloads()[name]
    split = split_source(source, config).split
    want = solo_observables(split)
    assert want == REQUEST_OBSERVABLES[name]

    pool = SessionPool(RuntimeImage.for_split(split))
    records = drive([pool], 40, concurrency=16)
    assert records == [want] * 40
    # 40 sessions were served by at most `concurrency` session objects.
    assert pool.created <= 16


def test_mixed_image_driver_matches_each_solo_oracle():
    """Round-robin over heterogeneous programs: every pooled session
    must be bit-identical to the solo oracle of *its own* program."""
    splits = {
        name: split_source(source, config).split
        for name, (source, config) in request_workloads().items()
    }
    images = {name: RuntimeImage.for_split(s) for name, s in splits.items()}
    oracles = {}
    for name, image in images.items():
        solo = Session(image)
        solo.run()
        oracles[id(image)] = (name, solo.observables())

    seen = set()

    def observer(session):
        name, want = oracles[id(session.image)]
        assert session.observables() == want, (
            f"pooled {name} session diverged from its solo oracle"
        )
        seen.add(name)

    # One pool per image: a session is only ever recycled into the pool
    # of the image that built it (``release`` asserts it), so state
    # never migrates between programs.
    pools = [SessionPool(image) for image in images.values()]
    records = drive(pools, 30, concurrency=12, observer=observer)
    assert len(records) == 30
    assert seen == set(REQUEST_OBSERVABLES)


@pytest.mark.parametrize("owners", [2, 4, 8, 16])
def test_aggregation_messages_scale_with_owners(owners):
    """The N-owner aggregation program sends two messages per owner,
    solo and pooled alike."""
    split = split_source(
        aggregation_source(owners), aggregation_config(owners)
    ).split
    want = solo_observables(split)
    assert want["messages"]["total_messages"] == 2 * owners
    records = drive([SessionPool(RuntimeImage.for_split(split))], 8, 4)
    assert all(record["messages"] == want["messages"] for record in records)


def ot_config_with_inert_hosts(extra):
    """The OT trust configuration plus ``extra`` hosts no data or code
    can be placed on (fresh principals, unrelated trust)."""
    trust = ot.config()
    for j in range(1, extra + 1):
        trust.add_host(
            HostDescriptor.of(f"X{j}", f"{{Ext{j}:}}", f"{{?:Ext{j}}}")
        )
    return trust


@pytest.mark.parametrize("extra", [0, 2, 6, 14])
def test_inert_hosts_do_not_move_ot_placement(extra):
    """Hosts nothing can be placed on leave OT's message counts exactly
    those of plain OT."""
    source, _ = request_workloads()["OT"]
    split = split_source(source, ot_config_with_inert_hosts(extra)).split
    want = solo_observables(split)
    assert want["messages"] == REQUEST_OBSERVABLES["OT"]["messages"]
    records = drive([SessionPool(RuntimeImage.for_split(split))], 8, 4)
    assert all(record["messages"] == want["messages"] for record in records)


def test_round_robin_sessions_keep_solo_logs_and_observables():
    """Interleaved pooled sessions record exactly the message and flow
    logs of a solo run, and the same observables."""
    split = split_source(tax.source(records=3), tax.config()).split
    image = RuntimeImage.for_split(split)
    solo = Session(image)
    solo.run()
    assert solo.network.message_log, "solo session should keep its logs"
    want = solo.observables()

    def log_shape(network):
        return (
            [(m.kind, m.src, m.dst) for m in network.message_log],
            [(str(label), host) for label, host in network.flow_log],
        )

    want_logs = log_shape(solo.network)
    checked = []

    def observer(session):
        assert session.observables() == want
        assert log_shape(session.network) == want_logs
        checked.append(session)

    drive([SessionPool(image)], 8, concurrency=4, observer=observer)
    assert len(checked) == 8


def test_mixed_pools_quarantine_never_leaks_across_images():
    """Quarantine state is per-session; with a mixed image set it must
    not leak across sessions of the same image *or* across images."""
    splits = [
        split_source(ot.source(rounds=1), ot.config()).split,
        split_source(tax.source(records=3), tax.config()).split,
    ]
    images = [RuntimeImage.for_split(s) for s in splits]
    ot_pool = SessionPool(images[0], quarantine=True)
    tax_pool = SessionPool(images[1], quarantine=True)

    bad = ot_pool.acquire()
    bad.run()
    with pytest.raises(SecurityAbort):
        bad.network.quarantine("B", "A", "test")
    assert "B" in bad.network.quarantined

    # A session of the *other* image is untouched by the blacklist.
    tax_session = tax_pool.acquire()
    assert not tax_session.network.quarantined
    tax_session.run()
    solo = Session(images[1], quarantine=True)
    solo.run()
    assert tax_session.observables() == solo.observables()

    # Recycling the offender clears its blacklist within its own pool.
    ot_pool.release(bad)
    recycled = ot_pool.acquire()
    assert recycled is bad
    assert not recycled.network.quarantined
    assert recycled.run().field_value("OTBench", "isAccessed") is True


def test_quarantine_blacklist_never_leaks_across_sessions():
    split = split_source(ot.source(rounds=1), ot.config()).split
    image = RuntimeImage.for_split(split)
    pool = SessionPool(image, quarantine=True)

    bad = pool.acquire()
    bad.run()
    with pytest.raises(SecurityAbort):
        bad.network.quarantine("B", "A", "test")
    assert "B" in bad.network.quarantined

    # A concurrent fresh session over the same image is unaffected.
    other = Session(image, quarantine=True)
    assert not other.network.quarantined
    other.run()
    assert other.result().field_value("OTBench", "isAccessed") is True

    # Recycling the offender's session clears its blacklist.
    pool.release(bad)
    recycled = pool.acquire()
    assert recycled is bad
    assert not recycled.network.quarantined
    outcome = recycled.run()
    assert outcome.field_value("OTBench", "isAccessed") is True
