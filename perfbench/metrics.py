"""Metric definitions and their computation from measured passes.

``END_TO_END`` and ``PER_LAYER`` list every metric by name and unit in
the order printed; ``BENCHMARK.json`` names the same metrics (a test
keeps the two in step).
"""

from __future__ import annotations

from statistics import fmean as mean
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from .loadgen import Outcome, account, generator_late
from .stats import fit_fixed_per_unit, tail_percentile
from .trace import by_name, self_times
from .workloads import LATENCY_LIMIT, Pass, own_peak_rss_mb

#: The tail percentile each workload declares; see ``tail_percentile``.
TAIL = {
    "compile": "p99",
    "serve-sim": "p90",
    "serve-tcp": "p90",
    "durable": "p90",
}

WORKLOADS = ("compile", "serve-sim", "serve-tcp", "durable")

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("slo_met_share", "share"),
    ("success_share", "share"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("lang.parse_ms", "ms"),
    ("lang.typecheck_ms", "ms"),
    ("lang.cache_hit_share", "share"),
    ("labels.cache_hit_share", "share"),
    ("splitter.split_ms", "ms"),
    ("splitter.fragments_per_program", "count"),
    ("splitter.cache_hit_share", "share"),
    ("session.image_build_ms", "ms"),
    ("session.run_ms", "ms"),
    ("session.us_per_message", "us"),
    ("session.reset_ms", "ms"),
    ("session.pool_reuse_share", "share"),
    ("network.messages_per_run", "count"),
    ("network.simulated_ms_per_run", "sim_ms"),
    ("transport.tcp.run_ms", "ms"),
    ("transport.tcp.fixed_ms", "ms"),
    ("transport.tcp.per_message_us", "us"),
    ("transport.tcp.lock_wait_ms", "ms"),
    ("gateway.queue_wait_ms", "ms"),
    ("gateway.execute_ms", "ms"),
    ("gateway.reply_ms", "ms"),
    ("loadgen.late_ms", "ms"),
    ("storage.open_ms", "ms"),
    ("storage.boundary_commit_ms", "ms"),
    ("storage.boundaries_per_run", "count"),
    ("storage.fsyncs_per_run", "count"),
    ("storage.appends_per_run", "count"),
    ("storage.rehydrate_ms", "ms"),
    ("storage.retries", "count"),
    ("storage.degradations", "count"),
) + tuple((f"trace.overhead_ratio.{w}", "ratio") for w in WORKLOADS)


class TooFewSamples(Exception):
    """A pass produced too few samples for a metric it must report."""


def end_to_end(workload: str, result: Pass) -> Dict[str, float]:
    acct = account(result.outcomes, LATENCY_LIMIT[workload])
    latencies_ms = [latency * 1e3 for latency in acct.latencies]
    tail = tail_percentile(latencies_ms, TAIL[workload])
    if tail is None:
        raise TooFewSamples(
            f"{workload}: {len(latencies_ms)} successful operations are "
            "too few for a tail percentile with 10 samples beyond it"
        )
    return {
        "throughput_per_s": (acct.attempted - acct.failed) / result.window,
        "latency_p50_ms": median(latencies_ms),
        "latency_tail_ms": tail[1],
        "slo_met_share": acct.slo_met_share,
        "success_share": acct.success_share,
        "peak_rss_mb": (
            result.peak_rss_mb
            if result.peak_rss_mb is not None
            else own_peak_rss_mb()
        ),
        "setup_s": median(result.setup_samples),
    }


# -- per-layer ---------------------------------------------------------------


def _ms(values: List[float]) -> float:
    return median(values) * 1e3 if values else 0.0


def _self_ms(spans: List[Dict[str, Any]], name: str) -> float:
    """Median self time (ms) of the spans called ``name``."""
    own = self_times(spans)
    return _ms([own[span["id"]] for span in by_name(spans, name)])


def _durations(spans: List[Dict[str, Any]], name: str) -> List[float]:
    return [span["end"] - span["start"] for span in by_name(spans, name)]


def _share(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def _compile_layers(result: Pass) -> Dict[str, float]:
    spans, cache = result.spans, result.counters["cache"]
    return {
        "lang.parse_ms": _self_ms(spans, "lang.parse"),
        "lang.typecheck_ms": _self_ms(spans, "lang.typecheck"),
        "lang.cache_hit_share": _share(*cache["lang"]),
        "labels.cache_hit_share": _share(*cache["labels"]),
        "splitter.split_ms": _self_ms(spans, "splitter.split"),
        "splitter.fragments_per_program": mean(result.counters["fragments"]),
        "splitter.cache_hit_share": _share(*cache["splitter"]),
        "session.image_build_ms": _self_ms(spans, "session.image_build"),
    }


def _requests(
    spans: List[Dict[str, Any]], name: str
) -> Dict[str, Dict[str, Any]]:
    return {span["request"]: span for span in by_name(spans, name)}


def _extent(spans: List[Dict[str, Any]]) -> Optional[float]:
    if not spans:
        return None
    return max(s["end"] for s in spans) - min(s["start"] for s in spans)


def _serve_sim_layers(result: Pass) -> Dict[str, float]:
    spans = result.spans
    runs = by_name(spans, "session.run")
    acquires = by_name(spans, "session.acquire")
    clients = _requests(spans, "loadgen.request")
    children: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    execute, queue_wait, reply = [], [], []
    for request in by_name(spans, "gateway.request"):
        client = clients.get(request["request"])
        span_extent = _extent(children.get(request["id"], []))
        if client is None or span_extent is None:
            continue
        execute.append(span_extent)
        queue_wait.append(client["wall_seconds"] - span_extent)
        reply.append((client["end"] - client["sent"]) - client["wall_seconds"])
    answered = [o.reply["observables"] for o in result.outcomes if o.answered]
    return {
        "session.run_ms": _self_ms(spans, "session.run"),
        "session.us_per_message": median(
            [(s["end"] - s["start"]) * 1e6 / s["messages"] for s in runs]
        ),
        "session.reset_ms": _ms(_durations(spans, "session.reset")),
        "session.pool_reuse_share": _share(
            sum(1 for span in acquires if span["reused"]), len(acquires)
        ),
        "network.messages_per_run": mean(
            [obs["messages"]["total_messages"] for obs in answered]
        ),
        "network.simulated_ms_per_run": mean(
            [obs["simulated_seconds"] * 1e3 for obs in answered]
        ),
        "gateway.queue_wait_ms": _ms(queue_wait),
        "gateway.execute_ms": _ms(execute),
        "gateway.reply_ms": _ms(reply),
        "loadgen.late_ms": generator_late(result.outcomes) * 1e3,
    }


def _serve_tcp_layers(result: Pass) -> Dict[str, float]:
    spans = result.spans
    runs = by_name(spans, "transport.tcp.run")
    fixed, per_message = fit_fixed_per_unit(
        [span["messages"] for span in runs],
        [span["end"] - span["start"] for span in runs],
    )
    # Worker-thread spans inherit their gateway request's id.
    run_of = _requests(spans, "transport.tcp.run")
    lock_wait = [
        client["wall_seconds"] - (run_of[rid]["end"] - run_of[rid]["start"])
        for rid, client in _requests(spans, "loadgen.request").items()
        if rid in run_of
    ]
    return {
        "transport.tcp.run_ms": _ms(_durations(spans, "transport.tcp.run")),
        "transport.tcp.fixed_ms": fixed * 1e3,
        "transport.tcp.per_message_us": per_message * 1e6,
        "transport.tcp.lock_wait_ms": _ms(lock_wait),
    }


def _durable_layers(result: Pass) -> Dict[str, float]:
    spans, counters = result.spans, result.counters
    runs = len(result.outcomes)
    return {
        "storage.open_ms": _self_ms(spans, "storage.open"),
        "storage.boundary_commit_ms": _self_ms(spans, "storage.boundary_commit"),
        "storage.boundaries_per_run": counters["boundaries"] / runs,
        "storage.fsyncs_per_run": counters["fsyncs"] / runs,
        "storage.appends_per_run": counters["appends"] / runs,
        "storage.rehydrate_ms": _self_ms(spans, "storage.rehydrate"),
        "storage.retries": counters["retries"],
        "storage.degradations": counters["degradations"],
    }


LAYERS = {
    "compile": _compile_layers,
    "serve-sim": _serve_sim_layers,
    "serve-tcp": _serve_tcp_layers,
    "durable": _durable_layers,
}


def overhead_ratio(traced: List[Outcome], untraced: List[Outcome]) -> float:
    """Mean operation latency with tracing on ÷ with tracing off."""
    return mean([o.latency for o in traced]) / mean(
        [o.latency for o in untraced]
    )


def self_time_table(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Span name -> calls and total self time (ms), for the report."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span["name"], {"calls": 0, "self_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += own[span["id"]] * 1e3
    return table

