"""Open- and closed-loop request drivers and their accounting.

Both drivers are generic over ``submit(item, connection)``, a coroutine
that sends one request and returns the reply frame, so the tests can
drive them against an in-process fake server.

Open-loop requests are timed from their *due* time, not from when the
generator got round to sending them: a server stall is then charged to
every request scheduled behind it, instead of silently thinning the
offered load (coordinated omission).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence

from .stats import percentile

Submit = Callable[[Any, Any], Awaitable[Dict[str, Any]]]


@dataclass
class Outcome:
    """One request: when it was due, sent and answered, and the reply."""

    item: Any
    due: float
    sent: float
    done: float
    #: the operation returned a result, not a refusal or an error.
    answered: bool
    reply: Optional[Dict[str, Any]] = None
    #: set by the caller's output check; False marks a wrong answer.
    correct: bool = True
    #: the operation ran with tracing on.
    traced: bool = False

    @property
    def succeeded(self) -> bool:
        return self.answered and self.correct

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


def poisson_schedule(
    rng: random.Random, rate: float, seconds: float
) -> List[float]:
    """Arrival offsets of a Poisson process at ``rate`` over ``seconds``,
    conditioned on its expected count ``round(rate * seconds)``.

    Given their count, Poisson arrivals are independent uniform points,
    so every seed offers exactly the same load and only the arrival
    pattern varies.
    """
    count = max(1, round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def _outcome(item, due, sent, done, reply) -> Outcome:
    return Outcome(
        item, due, sent, done, reply.get("t") == "result", reply=reply
    )


async def _attempt(
    submit: Submit, item: Any, connection: Any
) -> Dict[str, Any]:
    try:
        return await submit(item, connection)
    except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
        return {"t": "error", "code": "client", "detail": repr(exc)}


async def open_loop(
    offsets: Sequence[float],
    items: Sequence[Any],
    connections: Sequence[Any],
    submit: Submit,
    clock: Callable[[], float] = time.perf_counter,
) -> List[Outcome]:
    """Send ``items[i]`` at ``offsets[i]`` seconds after the start,
    round-robin over ``connections``, without waiting for replies."""
    start = clock()

    async def one(index: int) -> Outcome:
        due = start + offsets[index]
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = clock()
        reply = await _attempt(
            submit, items[index], connections[index % len(connections)]
        )
        return _outcome(items[index], due, sent, clock(), reply)

    return list(await asyncio.gather(*(one(i) for i in range(len(items)))))


async def closed_loop(
    connections: Sequence[Any],
    next_item: Callable[[int], Any],
    submit: Submit,
    seconds: float,
    clock: Callable[[], float] = time.perf_counter,
) -> List[Outcome]:
    """One caller per connection, each with one request outstanding,
    until ``seconds`` have passed.  A request is due when it is sent."""
    deadline = clock() + seconds
    outcomes: List[Outcome] = []

    async def caller(index: int) -> None:
        connection = connections[index]
        while clock() < deadline:
            item = next_item(index)
            sent = clock()
            reply = await _attempt(submit, item, connection)
            outcomes.append(_outcome(item, sent, sent, clock(), reply))

    await asyncio.gather(*(caller(i) for i in range(len(connections))))
    return outcomes


@dataclass
class Accounting:
    attempted: int
    failed: int
    slo_met: int
    #: latencies (seconds) of the requests that succeeded.
    latencies: List[float]

    @property
    def success_share(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0

    @property
    def slo_met_share(self) -> float:
        return self.slo_met / self.attempted if self.attempted else 0.0


def account(outcomes: Sequence[Outcome], limit: float) -> Accounting:
    """Fold outcomes: a refused, failed or wrong request is a failure
    and misses the latency limit ``limit`` (seconds) by definition."""
    failed = sum(1 for outcome in outcomes if not outcome.succeeded)
    latencies = [o.latency for o in outcomes if o.succeeded]
    return Accounting(
        attempted=len(outcomes),
        failed=failed,
        slo_met=sum(1 for latency in latencies if latency <= limit),
        latencies=latencies,
    )


def generator_late(outcomes: Sequence[Outcome]) -> Optional[float]:
    """p99 of how late the generator sent requests (seconds)."""
    if not outcomes:
        return None
    return percentile(sorted(o.late for o in outcomes), 0.99)
