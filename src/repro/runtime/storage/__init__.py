"""Durable storage tier behind :class:`~repro.runtime.checkpoint.DurableStore`.

See :mod:`repro.runtime.storage.base` for the backend contract and
error taxonomy, :mod:`~repro.runtime.storage.sqlite_backend` for the
SQLite-WAL implementation with process-death rehydration,
:mod:`~repro.runtime.storage.faultsim` for storage fault injection, and
:mod:`~repro.runtime.storage.harness` for the SIGKILL-and-rehydrate
harness (imported lazily — it forks).
"""

from __future__ import annotations

from .base import (
    STATS,
    DurabilityStats,
    StorageBackend,
    StorageError,
    StorageRetryPolicy,
    StorageUnavailableError,
    TransientStorageError,
)
from .codec import DecodeContext, StorageCodecError, advance_id_floors
from .sqlite_backend import (
    SessionStorage,
    SQLiteBackend,
    default_storage,
    open_for_rehydration,
    rehydrate_session,
)

__all__ = [
    "DecodeContext",
    "DurabilityStats",
    "STATS",
    "SQLiteBackend",
    "SessionStorage",
    "StorageBackend",
    "StorageCodecError",
    "StorageError",
    "StorageRetryPolicy",
    "StorageUnavailableError",
    "TransientStorageError",
    "advance_id_floors",
    "default_storage",
    "open_for_rehydration",
    "rehydrate_session",
    "stats",
]


def stats() -> dict:
    """Snapshot of the process-wide durability counters."""
    return STATS.as_dict()
