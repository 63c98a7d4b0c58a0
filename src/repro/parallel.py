"""Shared-nothing parallel workers for the bench and fault-sweep drivers.

The sweeps this repo runs are embarrassingly parallel: every progen
seed, fault schedule, and crash point is an independent simulation with
no shared mutable state.  The one obstacle to ``multiprocessing`` is
that a :class:`~repro.splitter.fragments.SplitProgram` holds compiled
fragment closures, which do not pickle.  We therefore use the ``fork``
start method and hand workers their heavyweight inputs through a
module-level state dict that the fork inherits by memory copy — only
the small per-item arguments (a seed, a crash-point triple) and the
plain-data results cross the pickle boundary.

Two entry points share that mechanism:

``WorkerPool``
    A *persistent* pool of forked workers fed by a task queue.  The
    workers are forked once (lazily, at the first :meth:`WorkerPool.map`)
    and reused across as many map calls as the caller makes, so a
    multi-phase driver — the throughput harness's ``--jobs`` scaling
    sweep, the bench progen sweep — pays the fork cost once per phase
    set instead of once per call.  Forking late and on purpose also
    means every process-wide cache populated before the pool starts
    (label-lattice memos, memoized
    :class:`~repro.runtime.session.RuntimeImage` artifacts hanging off
    a split) is inherited warm by every worker.

``fork_map``
    The original one-shot helper, now a thin wrapper that opens a
    ``WorkerPool`` for a single map and closes it.  It keeps its old
    contract: results in input order, or ``None`` when the parallel
    path is unavailable (``jobs <= 1``, a single item, or no ``fork``)
    so the caller falls back to its serial loop.

Work is split into balanced, *interleaved* chunks: chunk sizes never
differ by more than one item (no oversized last chunk on non-divisible
inputs), and item ``i`` lands in chunk ``i % parts`` so any cost
gradient across the input order — progen programs grow with the seed —
is spread across workers instead of concentrated in one chunk.  With
several chunks per worker pulled dynamically from the queue, a slow
chunk overlaps the fast ones.  Results are always reassembled in input
order, so aggregation in the caller is deterministic and independent of
the worker count.
"""

from __future__ import annotations

import multiprocessing
import queue as _queue
import traceback
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

#: Fork-inherited worker state.  Populated by the pool in the parent
#: immediately before the workers fork, read by worker tasks via
#: :func:`state`, and cleared in the parent once the fork is done.
_STATE: Dict[str, Any] = {}

#: Whether a pool (or in-flight serial map) currently owns ``_STATE``.
#: The module-level dict is process-global, so a nested or concurrent
#: call would silently clobber the outer call's worker state; the pool
#: fails fast instead.
_ACTIVE = False

#: How many chunks each worker gets by default.  Oversubscribing the
#: queue lets a worker that drew cheap chunks pull more work while a
#: slow chunk is still running elsewhere.
_CHUNKS_PER_WORKER = 4


def state() -> Dict[str, Any]:
    """The fork-inherited state dict, as seen from a worker task."""
    return _STATE


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


def chunk_plan(count: int, parts: int) -> List[List[int]]:
    """Split indices ``0..count-1`` into ``parts`` balanced, interleaved
    chunks.

    Sizes differ by at most one (``chunk_plan(10, 4)`` gives chunks of
    3/3/2/2, never 3/3/3/1), and item ``i`` goes to chunk ``i % parts``
    so consecutive items — which tend to have correlated cost — land on
    different workers.  Empty chunks are never returned.
    """
    parts = max(1, min(parts, count))
    chunks: List[List[int]] = [[] for _ in range(parts)]
    for index in range(count):
        chunks[index % parts].append(index)
    return [chunk for chunk in chunks if chunk]


def _worker_main(tasks: Any, results: Any) -> None:
    """Worker loop: pull ``(seq, func, items)``, push ``(seq, out, err)``."""
    while True:
        task = tasks.get()
        if task is None:
            return
        seq, func, items = task
        try:
            out = [func(item) for item in items]
        except BaseException as exc:  # propagate to the parent, keep serving
            try:
                results.put((seq, None, exc))
            except Exception:
                results.put(
                    (seq, None, RuntimeError(traceback.format_exc()))
                )
        else:
            results.put((seq, out, None))


class WorkerPool:
    """Long-lived forked workers behind a task queue.

    The pool forks lazily at the first :meth:`map` so the parent can
    finish building the heavyweight state the workers should inherit.
    ``shared`` is the fork-inherited state dict (read back in workers
    via :func:`state`); a later ``map(..., shared=...)`` with *different*
    contents restarts the workers so they inherit the new state — same
    contents (by identity) reuse the warm workers.

    With ``jobs <= 1`` or no ``fork`` support the pool runs every map
    inline in the parent (``workers == 0``), temporarily publishing
    ``shared`` through :func:`state` so worker tasks behave identically
    — the serial path uses the very same per-item function and can never
    diverge from the parallel one by more than scheduling.
    """

    def __init__(self, jobs: Optional[int], shared: Optional[Dict[str, Any]] = None):
        self.jobs = int(jobs or 0)
        self._shared: Dict[str, Any] = dict(shared) if shared else {}
        self._procs: List[Any] = []
        self._tasks: Any = None
        self._results: Any = None
        self._forked = self.jobs > 1 and fork_available()
        self._owns_guard = False

    # -- lifecycle -----------------------------------------------------

    @property
    def workers(self) -> int:
        """Live forked worker count (0 while unstarted or serial)."""
        return len(self._procs)

    def _acquire_guard(self) -> None:
        global _ACTIVE
        if _ACTIVE and not self._owns_guard:
            raise RuntimeError(
                "nested fork_map call: the fork-inherited state dict is "
                "process-global and already in use"
            )
        _ACTIVE = True
        self._owns_guard = True

    def _release_guard(self) -> None:
        global _ACTIVE
        if self._owns_guard:
            _STATE.clear()
            _ACTIVE = False
            self._owns_guard = False

    def _start(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._acquire_guard()
        _STATE.clear()
        _STATE.update(self._shared)
        try:
            self._tasks = ctx.Queue()
            self._results = ctx.Queue()
            for _ in range(self.jobs):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(self._tasks, self._results),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
        finally:
            # Workers inherited the populated dict at fork; the parent's
            # copy is cleared so a crash mid-map cannot leak state.
            _STATE.clear()

    def _stop_workers(self, force: bool = False) -> None:
        if self._procs:
            if not force:
                try:
                    for _ in self._procs:
                        self._tasks.put(None)
                except Exception:
                    force = True
            for proc in self._procs:
                proc.join(timeout=None if not force else 0.1)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5)
            for chan in (self._tasks, self._results):
                try:
                    chan.close()
                    chan.join_thread()
                except Exception:
                    pass
        self._procs = []
        self._tasks = None
        self._results = None

    def close(self) -> None:
        """Shut the workers down cleanly and release the state guard."""
        try:
            self._stop_workers()
        finally:
            self._release_guard()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- mapping -------------------------------------------------------

    def _same_shared(self, shared: Dict[str, Any]) -> bool:
        if shared.keys() != self._shared.keys():
            return False
        return all(shared[key] is self._shared[key] for key in shared)

    def map(
        self,
        func: Callable[[Any], Any],
        items: Iterable[Any],
        chunksize: Optional[int] = None,
        shared: Optional[Dict[str, Any]] = None,
    ) -> List[Any]:
        """Map ``func`` over ``items``; results come back in input order.

        ``func`` must be a module-level function; anything unpicklable it
        needs goes in ``shared`` (bound at fork time) and is read back
        with :func:`state`.  ``chunksize`` caps how many items ride in
        one task; leave it ``None`` for balanced interleaved chunks
        (several per worker), pass ``1`` when the items are few and
        heavy — the throughput harness's per-job session shards — so one
        slow shard cannot serialize behind another on the same worker.
        """
        work = list(items)
        if not work:
            return []
        if shared is not None and not self._same_shared(shared):
            # New fork-inherited state: restart so workers see it.
            if self._procs:
                self._stop_workers()
            self._shared = dict(shared)
        if not self._forked:
            return self._map_serial(func, work)
        if not self._procs:
            self._start()
        return self._map_forked(func, work, chunksize)

    def _map_serial(self, func: Callable[[Any], Any], work: Sequence[Any]) -> List[Any]:
        self._acquire_guard()
        _STATE.clear()
        _STATE.update(self._shared)
        try:
            return [func(item) for item in work]
        finally:
            self._release_guard()

    def _map_forked(
        self,
        func: Callable[[Any], Any],
        work: Sequence[Any],
        chunksize: Optional[int],
    ) -> List[Any]:
        if chunksize is not None:
            parts = max(1, -(-len(work) // max(1, chunksize)))
        else:
            parts = self.jobs * _CHUNKS_PER_WORKER
        chunks = chunk_plan(len(work), parts)
        for seq, chunk in enumerate(chunks):
            self._tasks.put((seq, func, [work[i] for i in chunk]))
        slots: List[Optional[List[Any]]] = [None] * len(chunks)
        pending = len(chunks)
        while pending:
            try:
                seq, out, err = self._results.get(timeout=1.0)
            except _queue.Empty:
                if not any(proc.is_alive() for proc in self._procs):
                    self._stop_workers(force=True)
                    raise RuntimeError(
                        "worker pool: all workers exited with tasks pending"
                    )
                continue
            if err is not None:
                # Fail fast: drop the remaining tasks and re-raise the
                # worker's exception in the parent, like Pool.map would.
                self._stop_workers(force=True)
                raise err
            slots[seq] = out
            pending -= 1
        results: List[Any] = []
        for chunk, out in zip(chunks, slots):
            results.extend(zip(chunk, out))  # type: ignore[arg-type]
        results.sort(key=lambda pair: pair[0])
        return [value for _, value in results]


def fork_map(
    func: Callable[[Any], Any],
    items: Iterable[Any],
    jobs: Optional[int],
    shared: Optional[Dict[str, Any]] = None,
    chunksize: Optional[int] = None,
) -> Optional[List[Any]]:
    """Map ``func`` over ``items`` with a one-shot pool of forked workers.

    Returns the results in input order, or ``None`` when the parallel
    path is unavailable (``jobs <= 1``, a single item, or no ``fork``)
    — the caller then runs its serial loop.  Callers that map more than
    once over the same fork-inherited state should hold a
    :class:`WorkerPool` open instead and amortize the fork.

    ``fork_map`` is not re-entrant: the fork-inherited state dict is
    process-global, so a nested call (from a worker task, or from
    concurrently driven sweeps in one process) raises ``RuntimeError``
    rather than silently corrupting the outer call's worker state.
    """
    work = list(items)
    if jobs is None or jobs <= 1 or len(work) <= 1:
        return None
    if not fork_available():
        return None
    with WorkerPool(min(jobs, len(work)), shared=shared) as pool:
        return pool.map(func, work, chunksize=chunksize)
