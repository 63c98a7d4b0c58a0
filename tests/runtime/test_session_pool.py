"""Pool recycling is observably free (satellite of the session engine).

The contract of :meth:`Session.reset` / :class:`SessionPool`: running a
session, resetting it in place, and running it again is bit-identical
to running two freshly constructed sessions over the same shared
:class:`RuntimeImage`.  Checked across all five Table 1 workloads (at
request sizes) and a 25-seed progen sweep, on counter-independent
observables — message counts, simulated time, ICS depths, and every
placed field's stored value (global frame/object counters differ
between runs by design and are excluded).
"""

import pytest

from repro import progen
from repro.runtime import (
    FaultInjector,
    FaultPolicy,
    RuntimeImage,
    Session,
    SessionPool,
)
from repro.splitter import split_source
from repro.workloads import listcompare, medical, ot, tax, work

WORKLOADS = [
    ("List", lambda: (listcompare.source(elements=4), listcompare.config())),
    ("OT", lambda: (ot.source(rounds=1), ot.config())),
    ("Tax", lambda: (tax.source(records=3), tax.config())),
    ("Work", lambda: (work.source(rounds=2, inner=2), work.config())),
    ("Medical", lambda: (medical.source(patients=3), medical.config())),
]

PROGEN_SEEDS = list(range(25))


def fingerprint(session):
    """Counter-independent facts of one completed session."""
    outcome = session.result()
    fields = {
        key: outcome.field_value(key[0], key[1], default=None)
        for key in session.split.fields
    }
    return session.observables(), fields, list(outcome.audits)


def recycled_pair(image):
    """(first run, second run) of ONE pooled session, reset in between."""
    pool = SessionPool(image, size=1)
    session = pool.acquire()
    session.run()
    first = fingerprint(session)
    pool.release(session)
    again = pool.acquire()
    assert again is session, "pool rebuilt a session instead of recycling"
    again.run()
    second = fingerprint(again)
    assert pool.created == 1 and pool.resets == 1
    return first, second


def fresh_pair(image):
    """(first, second) of two independently constructed sessions."""
    results = []
    for _ in range(2):
        session = Session(image)
        session.run()
        results.append(fingerprint(session))
    return results


def assert_recycled_equals_fresh(split):
    image = RuntimeImage.for_split(split)
    recycled = recycled_pair(image)
    fresh = fresh_pair(image)
    assert recycled[0] == fresh[0]
    assert recycled[1] == fresh[1]


@pytest.mark.parametrize(
    "workload", [w[1] for w in WORKLOADS], ids=[w[0] for w in WORKLOADS]
)
def test_table1_run_reset_run_matches_two_fresh_sessions(workload):
    source, config = workload()
    assert_recycled_equals_fresh(split_source(source, config).split)


@pytest.mark.parametrize("seed", PROGEN_SEEDS)
def test_progen_run_reset_run_matches_two_fresh_sessions(seed):
    split = split_source(progen.generate_program(seed), progen.config()).split
    assert_recycled_equals_fresh(split)


def test_reset_recycles_the_durable_store_in_place():
    """Under an (inactive) fault injector every host keeps a durable
    store; reset must recycle the same store object — WAL cleared,
    counters rewound, a fresh base checkpoint sealed — not reallocate."""
    split = split_source(ot.source(rounds=1), ot.config()).split
    image = RuntimeImage.for_split(split)
    faults = FaultInjector(FaultPolicy(), seed=1)
    session = Session(image, faults=faults)
    session.run()
    stores = {name: host.durable for name, host in session.hosts.items()}
    assert all(store is not None for store in stores.values())
    first = fingerprint(session)
    session.reset(faults=faults)
    for name, host in session.hosts.items():
        assert host.durable is stores[name]
        assert host.durable.wal == []
        assert host.durable.high_water == 1
        assert host.durable.checkpoints_taken == 1
    session.run()
    assert fingerprint(session) == first


def test_pool_acquire_beyond_free_list_constructs_lazily():
    split = split_source(work.source(rounds=2, inner=2), work.config()).split
    image = RuntimeImage.for_split(split)
    pool = SessionPool(image)
    assert len(pool) == 0 and pool.created == 0
    a, b = pool.acquire(), pool.acquire()
    assert a is not b and pool.created == 2
    a.run()
    b.run()
    assert fingerprint(a) == fingerprint(b)
    pool.release(a)
    pool.release(b)
    assert len(pool) == 2 and pool.resets == 2


def test_pooled_runs_each_persist_under_env_storage(tmp_path, monkeypatch):
    """Under ``REPRO_STORAGE=sqlite`` a completed run discards its auto
    tier; recycling the session must create a fresh one, so every pooled
    run appends WAL records and commits its boundaries — not only the
    first — and no run degrades to memory-only."""
    from repro.runtime import storage

    monkeypatch.setenv("REPRO_STORAGE", "sqlite")
    monkeypatch.setenv("REPRO_STORAGE_DIR", str(tmp_path))
    split = split_source(ot.source(rounds=1), ot.config()).split
    pool = SessionPool(RuntimeImage.for_split(split), size=1)
    for _ in range(3):
        before = storage.stats()
        session = pool.acquire()
        session.run()
        pool.release(session)
        after = storage.stats()
        assert after["appends"] > before["appends"]
        assert after["boundaries"] > before["boundaries"]
        assert after["degradations"] == before["degradations"]
    assert pool.created == 1
