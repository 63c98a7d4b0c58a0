"""The durable storage tier: SQLite-WAL persistence, process-death
rehydration, storage fault injection, and graceful degradation.

The contract under test, layer by layer:

* the **codec** maps every persisted runtime value to deterministic
  JSON and back, fails closed on malformed input, and never draws from
  the global id counters while decoding;
* the **backend contract** behaves identically over the in-memory
  reference implementation and the SQLite database;
* a **SQLite-backed run** is observably bit-identical to the
  storage-free oracle — durability is write-through, memory stays
  authoritative;
* **process death** (a real ``SIGKILL``, via ``os.fork``) at any
  committed boundary loses nothing: the rehydrated session finishes
  with the oracle's exact observables, fields, audits, and flows —
  checked on all five Table 1 workloads;
* **tampered or rolled-back** persisted state fails closed with
  :class:`CheckpointTamperError` (or reports the tier unavailable when
  the trusted sidecar is gone) — never resurrects forged state;
* **storage faults** on the live path degrade gracefully: transient
  busy errors are retried within bounds, hard faults detach the tier
  mid-run with a recorded ``degraded`` trace event, and the run still
  completes with correct results.
"""

import json
import os
import random
import signal
import sqlite3

import pytest

from repro.labels import parse_label
from repro.runtime import RetryPolicy, RuntimeImage, Session, SessionPool
from repro.runtime.checkpoint import CheckpointTamperError
from repro.runtime.faultsweep import storage_fault_sweep
from repro.runtime.storage import (
    STATS,
    DecodeContext,
    SessionStorage,
    StorageBackend,
    StorageCodecError,
    StorageRetryPolicy,
    StorageUnavailableError,
    advance_id_floors,
    codec,
    rehydrate_session,
)
from repro.runtime.storage.faultsim import (
    TAMPER_KINDS,
    StorageFaultInjector,
    StorageFaultPolicy,
    tamper,
)
from repro.runtime.storage.harness import (
    fingerprint,
    kill_and_rehydrate,
    run_oracle,
)
from repro.runtime.tokens import Token
from repro.runtime.values import REJECTED, ArrayRef, FrameID, ObjectRef, ReturnInfo
from repro.runtime import values as _values
from repro.splitter import split_source
from repro.trust import KeyRegistry
from repro.workloads import listcompare, medical, ot, tax, work

TABLE1 = [
    ("ot", ot.source(rounds=2), ot.config()),
    ("tax", tax.source(records=3), tax.config()),
    ("work", work.source(rounds=2, inner=2), work.config()),
    ("listcompare", listcompare.source(elements=3), listcompare.config()),
    ("medical", medical.source(patients=3), medical.config()),
]


def ot_split():
    return split_source(ot.source(rounds=2), ot.config()).split


def storage_session(split, directory, **storage_opts):
    """A (session, storage) pair over a fresh SQLite tier."""
    storage = SessionStorage(directory, **storage_opts)
    image = RuntimeImage(split, KeyRegistry())
    session = Session(image, storage=storage)
    return session, storage


def partial_run(split, directory, steps=6):
    """Run ``steps`` boundaries then abandon the process's session,
    leaving a mid-run storage directory behind (the close simulates the
    handle dying with the process; every boundary was committed)."""
    session, storage = storage_session(split, directory)
    session.start()
    for _ in range(steps):
        if session.step():
            break
    storage.close()
    return session


def wal_row_count(directory):
    conn = sqlite3.connect(os.path.join(directory, "session.db"))
    try:
        return conn.execute("SELECT COUNT(*) FROM wal").fetchone()[0]
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------


class TestCodec:
    def test_plain_tree_roundtrip(self):
        value = {
            ("C", "f", None): [1, 2.5, "x", None, True, b"\x00\xff"],
            ("k",): (REJECTED, {"nested": (1, 2)}),
        }
        assert codec.loads(codec.dumps(value)) == value

    def test_deterministic_text(self):
        """Same traversal -> byte-identical text (dicts encode as
        ordered pair lists, so the blob is a pure function of the
        in-memory structure — what replay determinism needs)."""
        value = {("C", "f"): [1, b"\x01"], "k": (2, 3)}
        assert codec.dumps(value) == codec.dumps(value)
        reordered = codec.loads(codec.dumps({"x": 1, "y": 2}))
        assert reordered == {"x": 1, "y": 2}

    def test_reference_types_roundtrip(self):
        frame = FrameID(("C", "m"))
        token = Token("A", frame, "entry0", os.urandom(12), os.urandom(32))
        ref = ObjectRef("C")
        array = ArrayRef(3, "B", parse_label("{Alice:}"))
        rinfo = ReturnInfo("A", frame, "rv")
        decoded = codec.loads(
            codec.dumps([token, frame, ref, array, rinfo])
        )
        got_token, got_frame, got_ref, got_array, got_rinfo = decoded
        assert got_token == token
        assert got_frame == frame and got_frame.method_key == ("C", "m")
        assert got_ref.cls == "C" and got_ref.oid == ref.oid
        assert got_array.oid == array.oid
        assert got_array.length == 3 and got_array.host == "B"
        assert got_array.label is array.label  # interned
        assert got_rinfo.host == "A" and got_rinfo.var == "rv"

    def test_decoding_never_draws_fresh_ids(self):
        blob = codec.dumps([ObjectRef("C"), FrameID(("C", "m"))])
        before_oid = next(_values._object_ids)
        before_fid = next(_values._frame_ids)
        codec.loads(blob)
        assert next(_values._object_ids) == before_oid + 1
        assert next(_values._frame_ids) == before_fid + 1

    def test_advance_id_floors(self):
        ref = ObjectRef("C")
        frame = FrameID(("C", "m"))
        blob = codec.dumps([ref, frame])
        ctx = DecodeContext()
        codec.loads(blob, ctx)
        assert ctx.max_oid >= ref.oid and ctx.max_fid >= frame.fid
        advance_id_floors(ctx)
        assert ObjectRef("C").oid > ref.oid
        assert FrameID(("C", "m")).fid > frame.fid

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            '{"t": "no-such-tag"}',
            '{"t": "tok"}',
            '{"t": "b", "v": "zz"}',
            '{"t": "fid", "fid": "x", "mk": {"t": "t", "v": []}}',
            '{"missing": "tag"}',
        ],
    )
    def test_malformed_input_fails_closed(self, text):
        with pytest.raises(StorageCodecError):
            codec.loads(text)

    def test_unencodable_value_rejected(self):
        with pytest.raises(StorageCodecError):
            codec.dumps(object())


# ----------------------------------------------------------------------
# Backend contract (reference implementation vs SQLite)
# ----------------------------------------------------------------------


class MemoryBackend(StorageBackend):
    """The reference backend: the backend contract over plain dicts,
    persisting nothing across process death."""

    def __init__(self, host):
        self.host = host
        self._checkpoint = None
        self._wal = {}

    def append_wal(self, epoch, index, blob, seal):
        self._wal[index] = (epoch, blob, seal)

    def save_checkpoint(self, epoch, blob, seal):
        self._checkpoint = (epoch, blob, seal)
        self._wal.clear()

    def reset_run(self):
        self._checkpoint = None
        self._wal.clear()

    def load_checkpoint(self):
        return self._checkpoint

    def load_wal(self):
        return [
            (index, epoch, blob, seal)
            for index, (epoch, blob, seal) in sorted(self._wal.items())
        ]


def _backends(tmp_path):
    memory = MemoryBackend("A")
    storage = SessionStorage(str(tmp_path / "contract"))
    return [("memory", memory, None), ("sqlite", storage.backend_for("A"), storage)]


class TestBackendContract:
    @pytest.mark.parametrize("which", ["memory", "sqlite"])
    def test_wal_and_checkpoint_roundtrip(self, which, tmp_path):
        name, backend, storage = next(
            b for b in _backends(tmp_path) if b[0] == which
        )
        try:
            assert backend.load_checkpoint() is None
            assert backend.load_wal() == []
            backend.append_wal(1, 0, '["a"]', b"s0")
            backend.append_wal(1, 1, '["b"]', b"s1")
            assert backend.load_wal() == [
                (0, 1, '["a"]', b"s0"),
                (1, 1, '["b"]', b"s1"),
            ]
            # Compaction: a sealed checkpoint supersedes the WAL.
            backend.save_checkpoint(2, '{"state": 1}', b"cp")
            assert backend.load_checkpoint() == (2, '{"state": 1}', b"cp")
            assert backend.load_wal() == []
            backend.append_wal(2, 0, '["c"]', b"s2")
            backend.reset_run()
            assert backend.load_checkpoint() is None
            assert backend.load_wal() == []
        finally:
            if storage is not None:
                storage.close()

    def test_sqlite_rows_are_isolated_per_host(self, tmp_path):
        storage = SessionStorage(str(tmp_path / "hosts"))
        try:
            a, b = storage.backend_for("A"), storage.backend_for("B")
            a.append_wal(1, 0, "x", b"sa")
            b.append_wal(1, 0, "y", b"sb")
            b.save_checkpoint(1, "cp-b", b"cb")
            assert a.load_wal() == [(0, 1, "x", b"sa")]
            assert a.load_checkpoint() is None
            assert b.load_wal() == []
            assert b.load_checkpoint() == (1, "cp-b", b"cb")
        finally:
            storage.close()


# ----------------------------------------------------------------------
# Write-through durability is observably free
# ----------------------------------------------------------------------


class TestDurableRunsBitIdentical:
    @pytest.mark.parametrize(
        "name,source,config", TABLE1[:2], ids=[t[0] for t in TABLE1[:2]]
    )
    def test_sqlite_run_matches_oracle(self, name, source, config, tmp_path):
        split = split_source(source, config).split
        oracle = run_oracle(split)
        session, storage = storage_session(split, str(tmp_path / name))
        session.run()
        try:
            assert fingerprint(session) == oracle
            # Persistence must not leak into the trace: a fault-free
            # run's fault_events stay empty, sqlite tier or not.
            assert session.network.fault_events == []
            assert storage.available
        finally:
            storage.close()

    def test_completed_run_rehydrates_to_the_same_result(self, tmp_path):
        split = ot_split()
        oracle = run_oracle(split)
        directory = str(tmp_path / "done")
        session, storage = storage_session(split, directory)
        session.run()
        storage.close()
        resumed = rehydrate_session(split, directory)
        resumed.run()
        assert fingerprint(resumed) == oracle
        resumed.storage.close()

    def test_mid_run_rehydration_finishes_the_program(self, tmp_path):
        split = ot_split()
        oracle = run_oracle(split)
        directory = str(tmp_path / "mid")
        partial_run(split, directory, steps=5)
        resumed = rehydrate_session(split, directory)
        resumed.run()
        assert fingerprint(resumed) == oracle
        assert STATS.rehydrations > 0
        resumed.storage.close()


# ----------------------------------------------------------------------
# Process death (the tentpole claim)
# ----------------------------------------------------------------------


class TestKillAndRehydrate:
    @pytest.mark.parametrize(
        "name,source,config", TABLE1, ids=[t[0] for t in TABLE1]
    )
    def test_sigkill_at_a_boundary_loses_nothing(self, name, source, config):
        split = split_source(source, config).split
        oracle, resumed, child_exit = kill_and_rehydrate(
            split, kill_after_boundaries=3
        )
        assert child_exit == -signal.SIGKILL
        assert resumed == oracle

    def test_sigkill_mid_transaction_loses_nothing(self):
        """Die on a WAL append *inside* an open boundary transaction:
        the uncommitted boundary rolls back and replay resumes from the
        last committed one."""
        split = ot_split()
        oracle, resumed, child_exit = kill_and_rehydrate(
            split, kill_after_appends=7
        )
        assert child_exit == -signal.SIGKILL
        assert resumed == oracle

    def test_late_kill_points_still_match(self):
        split = ot_split()
        for kill_after in (8, 11):
            oracle, resumed, child_exit = kill_and_rehydrate(
                split, kill_after_boundaries=kill_after
            )
            # The workload may outrun a late trigger; either way the
            # directory must rehydrate to the oracle's result.
            assert resumed == oracle


# ----------------------------------------------------------------------
# Tampering fails closed
# ----------------------------------------------------------------------


class TestTamperFailsClosed:
    @pytest.mark.parametrize("kind", TAMPER_KINDS)
    def test_tampered_directory_never_resurrects(self, kind, tmp_path):
        split = ot_split()
        directory = str(tmp_path / kind)
        partial_run(split, directory, steps=6)
        if kind == "torn-write":
            assert wal_row_count(directory) > 0, "kill point left no WAL"
        tamper(directory, kind)
        expected = (
            StorageUnavailableError
            if kind == "drop-sidecar"
            else CheckpointTamperError
        )
        with pytest.raises(expected):
            rehydrate_session(split, directory)

    def test_sidecar_counter_ahead_of_journal_is_a_rollback(self, tmp_path):
        """The monotonic-counter check proper: the trusted sidecar says
        boundary N, the database says something older — the classic
        restore-from-backup replay."""
        split = ot_split()
        directory = str(tmp_path / "replay")
        partial_run(split, directory, steps=6)
        sidecar_path = os.path.join(directory, "sealed.json")
        with open(sidecar_path) as handle:
            sidecar = json.load(handle)
        sidecar["boundary"] += 3
        with open(sidecar_path, "w") as handle:
            json.dump(sidecar, handle)
        with pytest.raises(CheckpointTamperError, match="rollback"):
            rehydrate_session(split, directory)

    def test_missing_directory_reports_unavailable(self, tmp_path):
        with pytest.raises(StorageUnavailableError):
            rehydrate_session(ot_split(), str(tmp_path / "nothing-here"))

    def test_shredded_database_fails_closed(self, tmp_path):
        """A database file replaced with garbage cannot even be opened:
        the tier reports itself unavailable — still fail-closed, never
        forged state."""
        split = ot_split()
        directory = str(tmp_path / "shredded")
        partial_run(split, directory, steps=6)
        with open(os.path.join(directory, "session.db"), "wb") as handle:
            handle.write(b"this is not a database")
        with pytest.raises((CheckpointTamperError, StorageUnavailableError)):
            rehydrate_session(split, directory)


# ----------------------------------------------------------------------
# Graceful degradation and bounded retry
# ----------------------------------------------------------------------


def degraded_events(session):
    return [e for e in session.network.fault_events if e[0] == "degraded"]


class TestGracefulDegradation:
    def test_disk_full_degrades_and_the_run_still_completes(self, tmp_path):
        split = ot_split()
        oracle = run_oracle(split)
        session, storage = storage_session(split, str(tmp_path / "full"))
        injector = StorageFaultInjector(
            StorageFaultPolicy(diskfull_after=6), seed=1
        )
        injector.install(storage)
        before = STATS.degradations
        session.run()
        assert injector.diskfull_faults > 0
        assert not storage.available
        assert "space" in storage.degraded_reason
        assert degraded_events(session), "degradation left no trace event"
        assert fingerprint(session) == oracle
        assert STATS.degradations > before

    def test_connection_death_mid_run_degrades(self, tmp_path):
        split = ot_split()
        oracle = run_oracle(split)
        session, storage = storage_session(split, str(tmp_path / "dead"))
        session.start()
        session.step()
        storage._conn.close()
        session.run()
        assert not storage.available
        assert degraded_events(session)
        assert fingerprint(session) == oracle

    def test_unopenable_directory_degrades_at_attach(self, tmp_path):
        split = ot_split()
        oracle = run_oracle(split)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the directory should go")
        session, storage = storage_session(
            split, str(blocker / "nested")
        )
        assert not storage.available
        session.run()
        assert degraded_events(session)
        assert fingerprint(session) == oracle

    def test_busy_database_is_retried_not_degraded(self, tmp_path):
        split = ot_split()
        oracle = run_oracle(split)
        session, storage = storage_session(
            split,
            str(tmp_path / "busy"),
            retry=StorageRetryPolicy(attempts=3, base_delay=1e-5),
        )
        injector = StorageFaultInjector(
            StorageFaultPolicy(busy_prob=0.5), seed=3
        )
        injector.install(storage)
        before = STATS.retries
        session.run()
        try:
            assert injector.busy_faults > 0
            assert storage.available, "transient faults must not degrade"
            assert STATS.retries - before >= injector.busy_faults
            assert session.network.fault_events == []
            assert fingerprint(session) == oracle
        finally:
            storage.close()

    def test_retry_policy_validation_and_backoff(self):
        with pytest.raises(ValueError):
            StorageRetryPolicy(attempts=-1)
        with pytest.raises(ValueError):
            StorageRetryPolicy(base_delay=1e-2, max_delay=1e-3)
        policy = StorageRetryPolicy(
            attempts=5, base_delay=1e-3, backoff=2.0, max_delay=3e-3
        )
        assert policy.delay(0) == pytest.approx(1e-3)
        assert policy.delay(1) == pytest.approx(2e-3)
        assert policy.delay(10) == 3e-3


class TestStorageFaultSweep:
    def test_sweep_completes_with_no_failures(self):
        split = split_source(ot.source(rounds=1), ot.config()).split
        report = storage_fault_sweep(split, schedules=6, name="ot")
        assert report.failures == []
        assert report.completed == 6
        assert "0 FAILED" in report.summary()


# ----------------------------------------------------------------------
# Opt-in retry jitter (satellite)
# ----------------------------------------------------------------------


class TestRetryJitter:
    def test_default_schedule_is_the_exact_doubling(self):
        policy = RetryPolicy(base_timeout=1e-3, backoff=2.0, max_timeout=0.05)
        assert policy.jitter_seed is None
        assert policy.timeout(0) == pytest.approx(1e-3)
        assert policy.timeout(4) == pytest.approx(16e-3)
        assert policy.timeout(40) == 0.05

    def test_seeded_jitter_is_reproducible(self):
        a = RetryPolicy(jitter_seed=7)
        b = RetryPolicy(jitter_seed=7)
        schedule_a = [a.timeout(i) for i in range(6)]
        schedule_b = [b.timeout(i) for i in range(6)]
        assert schedule_a == schedule_b
        assert schedule_a != [
            RetryPolicy().timeout(i) for i in range(6)
        ]

    def test_jitter_stays_within_bounds(self):
        policy = RetryPolicy(
            base_timeout=1e-3, max_timeout=0.02, jitter_seed=11
        )
        for attempt in range(20):
            value = policy.timeout(attempt)
            assert 1e-3 <= value <= 0.02

    def test_attempt_zero_restarts_the_decorrelated_walk(self):
        policy = RetryPolicy(jitter_seed=5)
        first = [policy.timeout(i) for i in range(4)]
        # A second message restarts at attempt 0: the walk re-anchors at
        # base_timeout instead of compounding the previous message's
        # last timer.
        second = [policy.timeout(i) for i in range(4)]
        assert first[0] <= 3.0 * policy.base_timeout
        assert second[0] <= 3.0 * policy.base_timeout


# ----------------------------------------------------------------------
# Pool recycling over a disk-backed tier (satellite)
# ----------------------------------------------------------------------


def pool_fingerprint(session):
    outcome = session.result()
    fields = {
        key: outcome.field_value(key[0], key[1], default=None)
        for key in session.split.fields
    }
    return session.observables(), fields, list(outcome.audits)


class TestDiskBackedPoolRecycling:
    def test_run_reset_run_matches_two_fresh_sessions(self, tmp_path):
        split = ot_split()
        image = RuntimeImage(split, KeyRegistry())
        fresh = []
        for _ in range(2):
            session = Session(image)
            session.run()
            fresh.append(pool_fingerprint(session))

        storage = SessionStorage(str(tmp_path / "pool"))
        pool = SessionPool(image, size=1, storage=storage)
        session = pool.acquire()
        session.run()
        first = pool_fingerprint(session)
        pool.release(session)

        # The recycled lifetime starts clean: no queue or flow rows
        # survive from the previous run, and the journal was rewound to
        # the fresh-attach boundary rather than continuing the old one.
        conn = sqlite3.connect(str(tmp_path / "pool" / "session.db"))
        try:
            for table in ("queue", "flows"):
                count = conn.execute(
                    f"SELECT COUNT(*) FROM {table}"
                ).fetchone()[0]
                assert count == 0, f"stale {table} rows survived recycling"
            boundary = conn.execute(
                "SELECT boundary FROM journal"
            ).fetchone()[0]
            assert boundary == 1, "journal continued the old lifetime"
        finally:
            conn.close()

        again = pool.acquire()
        assert again is session, "pool rebuilt instead of recycling"
        again.run()
        second = pool_fingerprint(again)
        assert storage.available
        storage.close()
        assert (first, second) == (fresh[0], fresh[1])


# ----------------------------------------------------------------------
# Environment blanket mode
# ----------------------------------------------------------------------


class TestEnvironmentDefault:
    def test_blanket_sqlite_mode_is_observably_free(self, monkeypatch, tmp_path):
        split = ot_split()
        oracle = run_oracle(split)
        monkeypatch.setenv("REPRO_STORAGE", "sqlite")
        monkeypatch.setenv("REPRO_STORAGE_DIR", str(tmp_path / "blanket"))
        image = RuntimeImage(split, KeyRegistry())
        session = Session(image)
        assert session.storage is not None and session.storage.auto
        session.run()
        # Auto tiers are per-run scratch space, discarded on completion.
        assert session.storage is None
        assert fingerprint(session) == oracle
        assert session.network.fault_events == []

    def test_storage_dir_is_read_on_every_call(self, monkeypatch, tmp_path):
        from repro.runtime.storage import default_storage

        monkeypatch.setenv("REPRO_STORAGE", "sqlite")
        for name in ("first", "second"):
            base = tmp_path / name
            monkeypatch.setenv("REPRO_STORAGE_DIR", str(base))
            storage = default_storage()
            try:
                assert os.path.dirname(storage.directory) == str(base)
                assert os.path.exists(storage.db_path)
            finally:
                storage.discard()

    def test_unknown_backend_name_is_rejected(self, monkeypatch):
        from repro.runtime.storage import default_storage

        monkeypatch.setenv("REPRO_STORAGE", "postgres")
        with pytest.raises(ValueError):
            default_storage()

    def test_memory_names_disable_the_tier(self, monkeypatch):
        from repro.runtime.storage import default_storage

        for name in ("", "0", "memory", "none", "off"):
            monkeypatch.setenv("REPRO_STORAGE", name)
            assert default_storage() is None
