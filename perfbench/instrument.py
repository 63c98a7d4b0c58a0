"""Which public functions the traced pass wraps, and the span names.

Span names are ``<layer>.<operation>`` so per-layer metrics group by
prefix.  In-process workloads open most spans explicitly around their
own calls (see ``workloads.py``); these wrappers cover the calls the
system makes internally.
"""

from __future__ import annotations

from .trace import Tracer


def _messages(_args, result) -> dict:
    return {"messages": result.counts["total_messages"]}


def install_storage(tracer: Tracer) -> None:
    """Boundary commits happen inside ``Session.run``."""
    from repro.runtime.storage import SessionStorage

    tracer.wrap(SessionStorage, "save_boundary", "storage.boundary_commit")


def install_gateway(tracer: Tracer) -> None:
    """Wrappers for the gateway process, installed before ``Gateway``
    starts.  ``Gateway._run`` is the per-request coroutine: its span is
    the request's root and carries the request id ``<principal>:<id>``
    that the load generator also records.  Worker-thread spans inherit
    it because ``asyncio.to_thread`` copies the context."""
    from repro.runtime import gateway, session

    tracer.wrap(
        gateway.Gateway, "_run", "gateway.request",
        request_of=lambda args: f"{args[2]}:{args[1].get('id')}",
    )
    tracer.wrap(gateway, "split_source", "splitter.split")
    tracer.wrap(session.RuntimeImage, "__init__", "session.image_build")
    tracer.wrap(
        session.SessionPool, "acquire", "session.acquire",
        before=lambda args: {"reused": len(args[0]) > 0},
    )
    tracer.wrap(session.SessionPool, "release", "session.reset")
    tracer.wrap(session.Session, "run", "session.run", after=_messages)
    tracer.wrap(
        gateway, "run_split_over_tcp", "transport.tcp.run", after=_messages
    )
