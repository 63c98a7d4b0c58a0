"""The storage-backend contract and its shared plumbing.

PR3's :class:`~repro.runtime.checkpoint.DurableStore` simulates stable
storage in process memory: good enough for the volatile-crash sweeps,
useless against actual process death.  This package puts a
:class:`StorageBackend` behind it.  The in-memory structures stay
authoritative — every read the runtime performs is served from memory —
and a backend, when attached, persists a *copy* of each WAL record and
sealed checkpoint so a fresh process can rehydrate the session.  With
no backend attached (the default) nothing here runs at all, which is
what keeps the fault-free Table 1 runs bit-identical to the seed.

Error taxonomy (the graceful-degradation contract):

* :class:`TransientStorageError` — worth retrying (a locked/busy
  database).  The retry loop in
  :class:`~repro.runtime.storage.sqlite_backend.SessionStorage` sleeps
  on a bounded :class:`~repro.runtime.faults.RetryPolicy` schedule
  before giving up.
* :class:`StorageUnavailableError` — the durable tier cannot be used at
  all (missing sidecar, deleted directory, disk full at open).  A live
  session *degrades*: it detaches the backend, records a ``degraded``
  trace event, and keeps running fail-closed in memory.  Rehydration,
  by contrast, has nothing to fall back to and raises.
* :class:`StorageError` — the common base; any other hard backend
  failure degrades the live session the same way.

Tampered persisted state is *not* a storage error: verification
failures raise :class:`~repro.runtime.checkpoint.CheckpointTamperError`
so recovery fails closed exactly like the in-process path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple


class StorageError(RuntimeError):
    """A durable-tier operation failed for good."""


class TransientStorageError(StorageError):
    """A retryable storage failure (locked or busy database)."""


class StorageUnavailableError(StorageError):
    """The durable tier is absent or unusable; nothing to load from."""


class DurabilityStats:
    """Structured counters for the durable tier.

    One process-wide instance (:data:`STATS`) accumulates across every
    session and is never reset; readers snapshot it with ``stats()``
    and compare snapshots taken before and after the work they measure.
    """

    __slots__ = (
        "appends",
        "fsyncs",
        "checkpoints",
        "boundaries",
        "rehydrations",
        "degradations",
        "retries",
        "op_timings",
    )

    def __init__(self) -> None:
        #: WAL records written through to a backend.
        self.appends = 0
        #: durable publishes (transaction commits + sidecar fsyncs).
        self.fsyncs = 0
        #: sealed checkpoints written through to a backend.
        self.checkpoints = 0
        #: session boundaries committed (journal + queue snapshot).
        self.boundaries = 0
        #: successful startup rehydrations.
        self.rehydrations = 0
        #: sessions that fell back to fail-closed in-memory mode.
        self.degradations = 0
        #: transient-error retries performed.
        self.retries = 0
        #: per-op accumulated wall-clock: op -> [count, seconds].
        self.op_timings: Dict[str, list] = {}

    def record(self, op: str, seconds: float) -> None:
        cell = self.op_timings.get(op)
        if cell is None:
            cell = self.op_timings[op] = [0, 0.0]
        cell[0] += 1
        cell[1] += seconds

    def as_dict(self) -> Dict[str, Any]:
        return {
            "appends": self.appends,
            "fsyncs": self.fsyncs,
            "checkpoints": self.checkpoints,
            "boundaries": self.boundaries,
            "rehydrations": self.rehydrations,
            "degradations": self.degradations,
            "retries": self.retries,
            "op_timings": {
                op: {"count": count, "seconds": round(seconds, 6)}
                for op, (count, seconds) in sorted(self.op_timings.items())
            },
        }


#: the process-wide durability counters.
STATS = DurabilityStats()


class StorageBackend:
    """One host's durable tier, as seen by its
    :class:`~repro.runtime.checkpoint.DurableStore`.

    The store passes pre-encoded, pre-sealed rows: ``blob`` is the
    codec's JSON text and ``seal`` the host-keyed HMAC over it (the
    store owns the key via its token factory; the backend is untrusted
    and never sees key material).  A backend that cannot persist must
    swallow the failure into its session's degradation path — the
    calling store never handles storage exceptions.
    """

    def append_wal(
        self, epoch: int, index: int, blob: str, seal: bytes
    ) -> None:
        """Persist WAL record ``index`` of checkpoint epoch ``epoch``."""
        raise NotImplementedError

    def save_checkpoint(self, epoch: int, blob: str, seal: bytes) -> None:
        """Persist the sealed checkpoint of ``epoch`` and drop the
        now-compacted WAL rows."""
        raise NotImplementedError

    def reset_run(self) -> None:
        """Drop every persisted row: the recycled session is a new
        storage lifetime, not a continuation."""
        raise NotImplementedError

    def load_checkpoint(self) -> Optional[Tuple[int, str, bytes]]:
        """(epoch, blob, seal) of the persisted checkpoint, or None."""
        raise NotImplementedError

    def load_wal(self) -> list:
        """The persisted WAL rows as (index, epoch, blob, seal),
        ordered by index."""
        raise NotImplementedError
