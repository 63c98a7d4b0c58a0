"""Tests for the harness's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import asyncio
import json
import os
import random
import time

import pytest

from perfbench.loadgen import (
    Outcome,
    account,
    closed_loop,
    open_loop,
    poisson_schedule,
)
from perfbench.stats import fit_fixed_per_unit, tail_percentile
from perfbench.trace import Tracer, self_times

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


# -- the tail-percentile rule ------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(99, None), (100, "p90"), (999, "p90"), (1000, "p99"),
     (9999, "p99"), (10000, "p999")],
)
def test_tail_needs_ten_samples_beyond(count, expected):
    values = list(range(count))
    random.Random(count).shuffle(values)
    tail = tail_percentile(values)
    assert (tail[0] if tail else None) == expected
    if tail:
        assert sum(1 for v in values if v > tail[1]) >= 10


def test_tail_value_is_nearest_rank():
    assert tail_percentile(range(1, 101)) == ("p90", 90)
    assert tail_percentile(range(1, 1001)) == ("p99", 990)


def test_tail_is_capped_at_the_declared_percentile():
    assert tail_percentile(range(10000), highest="p99")[0] == "p99"
    assert tail_percentile(range(10000), highest="p90")[0] == "p90"
    assert tail_percentile(range(50), highest="p90") is None


# -- open-loop timing --------------------------------------------------------


class SerialServer:
    """Serves one request at a time; the request named ``stall`` holds
    the server for ``stall_s`` seconds, every other one for 1 ms."""

    def __init__(self, stall_s: float) -> None:
        self.stall_s = stall_s
        self.lock = asyncio.Lock()

    async def submit(self, item, _connection):
        async with self.lock:
            await asyncio.sleep(self.stall_s if item == "stall" else 0.001)
        return {"t": "result", "item": item}


def test_server_stall_is_charged_to_requests_behind_it():
    offsets = [i * 0.010 for i in range(10)]
    items = ["stall"] + ["quick"] * 9

    async def drive():
        server = SerialServer(stall_s=0.200)
        return await open_loop(offsets, items, [0, 1], server.submit)

    outcomes = asyncio.run(drive())
    # The generator kept its schedule: nothing waited for a reply.
    assert max(o.late for o in outcomes) < 0.050
    # Each request queued behind the stall waited out the rest of it,
    # counted from when it was due.
    for index, outcome in enumerate(outcomes[1:], start=1):
        assert outcome.latency >= 0.200 - offsets[index] - 0.005


def test_generator_stall_is_charged_from_the_due_time():
    offsets = [i * 0.010 for i in range(6)]
    items = ["block"] + ["quick"] * 5

    async def submit(item, _connection):
        if item == "block":
            time.sleep(0.100)  # blocks the generator's event loop
        return {"t": "result"}

    outcomes = asyncio.run(open_loop(offsets, items, [0], submit))
    for offset, outcome in zip(offsets[1:], outcomes[1:]):
        assert outcome.late >= 0.100 - offset - 0.005
        assert outcome.latency >= outcome.late


def test_closed_loop_times_from_the_send():
    server = SerialServer(stall_s=0.100)
    items = iter(["stall"] + ["quick"] * 1000)

    async def drive():
        return await closed_loop(
            [0], lambda _index: next(items), server.submit, seconds=0.15
        )

    outcomes = asyncio.run(drive())
    assert outcomes[0].latency >= 0.100
    # Closed-loop requests are due when sent: the stall slows the
    # offered load instead of showing in later latencies.
    assert all(o.latency < 0.050 for o in outcomes[1:])


def test_poisson_schedule_is_seeded_and_offers_a_fixed_load():
    first = poisson_schedule(random.Random(7), rate=15.0, seconds=20.0)
    again = poisson_schedule(random.Random(7), rate=15.0, seconds=20.0)
    other = poisson_schedule(random.Random(8), rate=15.0, seconds=20.0)
    assert first == again != other
    assert len(first) == len(other) == 300
    assert first == sorted(first) and 0.0 <= first[0] and first[-1] <= 20.0


# -- least-squares fit -------------------------------------------------------


def test_fit_recovers_fixed_and_per_message_cost():
    xs = [156, 404, 904] * 4
    ys = [0.030 + 0.000210 * x for x in xs]
    fixed, per_unit = fit_fixed_per_unit(xs, ys)
    assert fixed == pytest.approx(0.030)
    assert per_unit == pytest.approx(0.000210)


def test_fit_averages_symmetric_noise():
    xs, ys = [], []
    for x in (100, 500, 900):
        for noise in (-0.004, 0.0, 0.004):
            xs.append(x)
            ys.append(0.050 + 0.0002 * x + noise)
    fixed, per_unit = fit_fixed_per_unit(xs, ys)
    assert fixed == pytest.approx(0.050)
    assert per_unit == pytest.approx(0.0002)


def test_fit_needs_two_distinct_message_counts():
    with pytest.raises(ValueError):
        fit_fixed_per_unit([404, 404], [0.1, 0.2])


# -- failures and the latency limit -----------------------------------------


def _outcome(latency, reply, correct=True):
    return Outcome("w", 0.0, 0.0, latency, reply.get("t") == "result",
                   reply=reply, correct=correct)


def test_refused_failed_and_wrong_requests_miss_and_fail():
    ok = {"t": "result"}
    outcomes = [
        _outcome(0.010, ok),
        _outcome(0.020, ok),
        _outcome(0.400, ok),  # answered, over the limit
        _outcome(0.001, {"t": "error", "code": "rate-limit"}),  # refused
        _outcome(0.001, {"t": "error", "code": "client"}),  # failed
        _outcome(0.001, ok, correct=False),  # wrong answer
    ]
    acct = account(outcomes, limit=0.250)
    assert acct.attempted == 6
    assert acct.failed == 3
    assert acct.success_share == pytest.approx(0.5)
    assert acct.slo_met == 2
    assert acct.slo_met_share == pytest.approx(2 / 6)
    assert sorted(acct.latencies) == [0.010, 0.020, 0.400]


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "b", "parent": "a", "start": 1.0, "end": 4.0},
        {"id": "c", "parent": "a", "start": 3.0, "end": 5.0},  # overlaps b
        {"id": "d", "parent": "a", "start": 9.0, "end": 12.0},  # overruns a
    ]
    own = self_times(spans)
    assert own["a"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own["b"] == pytest.approx(3.0)


def test_wrapped_calls_nest_and_unwrap():
    class Thing:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    tracer = Tracer()
    tracer.wrap(Thing, "outer", "x.outer", request_of=lambda _args: "r1")
    tracer.wrap(Thing, "inner", "x.inner", after=lambda _a, r: {"got": r})
    assert Thing().outer() == 42
    tracer.unwrap_all()
    assert Thing().outer() == 42 and len(tracer.spans) == 2
    inner, outer = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["request"] == outer["request"] == "r1"
    assert inner["got"] == 41


def test_disabled_tracer_records_nothing():
    class Thing:
        def call(self):
            return 7

    tracer = Tracer()
    tracer.wrap(Thing, "call", "x.call")
    tracer.enabled = False
    assert Thing().call() == 7
    tracer.enabled = True
    assert Thing().call() == 7
    tracer.unwrap_all()
    assert [span["name"] for span in tracer.spans] == ["x.call"]


# -- the declared metrics ----------------------------------------------------


def test_benchmark_json_names_the_metrics_the_harness_prints():
    from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS

    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        declared = json.load(handle)

    def named(section):
        return [(m["name"], m["unit"]) for m in declared[section]]

    assert named("end_to_end") == list(END_TO_END)
    assert named("per_layer") == list(PER_LAYER)
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)
