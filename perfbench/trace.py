"""In-memory span tracing around the system's public functions.

A :class:`Tracer` records one span per call it wraps: name, start, end,
parent span and request id, plus optional attributes.  The current span
lives in a :mod:`contextvars` variable, so parents follow asyncio tasks
and ``asyncio.to_thread`` hops.  Spans stay in memory until
:func:`write_spans` writes them out when a pass ends.

Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which
is shared by every process on the machine, so spans written by the
gateway process and by the load generator line up on one time axis.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (span id, request id) of the innermost open span.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(None, None)
)


class Tracer:
    """Collects spans for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: wrappers record spans only while this is set, so a pass can
        #: interleave traced and untraced operations.
        self.enabled = True

    @contextmanager
    def span(
        self, name: str, request: Optional[str] = None, **attrs: Any
    ) -> Iterator[Dict[str, Any]]:
        """Record one span around the ``with`` body; the yielded dict
        takes attributes set inside the body."""
        parent, inherited = _CURRENT.get()
        span_id = f"{self._pid}.{next(self._ids)}"
        record: Dict[str, Any] = {
            "id": span_id,
            "parent": parent,
            "request": request if request is not None else inherited,
            "name": name,
        }
        record.update(attrs)
        token = _CURRENT.set((span_id, record["request"]))
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(record)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        request_of: Optional[Callable[[tuple], Optional[str]]] = None,
        before: Optional[Callable[[tuple], Dict[str, Any]]] = None,
        after: Optional[Callable[[tuple, Any], Dict[str, Any]]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a function, method or coroutine
        function) with a wrapper that records a span per call.

        ``request_of(args)`` names the request a root call serves;
        ``before(args)`` and ``after(args, result)`` add attributes.
        """
        original = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await original(*args, **kwargs)
                request = request_of(args) if request_of else None
                with tracer.span(name, request) as record:
                    if before is not None:
                        record.update(before(args))
                    result = await original(*args, **kwargs)
                    if after is not None:
                        record.update(after(args, result))
                    return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                request = request_of(args) if request_of else None
                with tracer.span(name, request) as record:
                    if before is not None:
                        record.update(before(args))
                    result = original(*args, **kwargs)
                    if after is not None:
                        record.update(after(args, result))
                    return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        """Restore every attribute :meth:`wrap` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def write_spans(path: str, spans: List[Dict[str, Any]]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")


def read_spans(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> self time: duration minus the part of the span's
    interval that its children cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result: Dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(start, s), min(end, e))
            for s, e in children.get(span["id"], ())
            if min(end, e) > max(start, s)
        ]
        result[span["id"]] = (end - start) - _covered(clipped)
    return result


def by_name(spans: List[Dict[str, Any]], name: str) -> List[Dict[str, Any]]:
    return [span for span in spans if span["name"] == name]
