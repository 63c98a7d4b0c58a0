"""The four workloads, each run as one measured pass.

A pass returns a :class:`Pass`: every operation's :class:`Outcome`, the
window its throughput is counted over, and (when traced) its spans.
Outputs are checked outside the timed region of every operation; a
mismatch marks the outcome incorrect, which fails it and makes the
command exit non-zero.

* ``compile`` — closed loop, one process: a seeded stream of distinct
  programs through parse → check → split → ``RuntimeImage``.
* ``serve-sim`` — open loop: seeded Poisson arrivals at ``SIM_RATE``
  over two connections to a ``repro serve`` process, simulated
  transport, stratified mix of the five Table 1 workloads.
* ``serve-tcp`` — closed loop: two connections, one request
  outstanding each, ``"transport": "tcp"``, mix of medical/tax/ot.
* ``durable`` — closed loop, one process: each request-sized Table 1
  run writes a fresh ``SessionStorage`` directory and is then brought
  back with ``rehydrate_session`` and run to the end.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import resource
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .gateway import GatewayProcess
from .loadgen import (
    Outcome,
    closed_loop,
    generator_late,
    open_loop,
    poisson_schedule,
)
from .trace import Tracer, read_spans

#: Open-loop arrival rate of ``serve-sim`` (requests/s).  The mix's
#: mean service time is about 27 ms, so the gateway is busy about a
#: quarter of the time.  The lower the load, the less queueing there is
#: to amplify the machine's own speed drift into latency.
SIM_RATE = 10.0

#: Latency limit per workload (seconds) for ``slo_met_share``.  The
#: ``serve-sim`` limit is the service-level objective; the closed-loop
#: limits are set well above their slowest operation and flag only
#: pathological stalls.
LATENCY_LIMIT = {
    "compile": 0.100,
    "serve-sim": 0.250,
    "serve-tcp": 2.000,
    "durable": 0.250,
}

#: An open-loop pass whose generator sent its p99 request later than
#: this (seconds, a fifth of the latency limit) did not keep to its
#: schedule and is invalid.  The median is about 1 ms (asyncio's
#: timers wake on millisecond ticks); the p99 reads 4-15 ms on a
#: shared two-core machine.
LATE_LIMIT = 0.050

#: Load-generator connections (``nproc`` = 2).
CONNECTIONS = 2

SIM_MIX = ("list", "ot", "tax", "work", "medical")
TCP_MIX = ("medical", "tax", "ot")

#: Gateway start-ups per ``serve-*`` run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: ``compile`` reads its peak RSS once this many programs are done.
#: The frontend and split caches keep every distinct program, so the
#: RSS at the end of a timed pass would grow with compile speed and
#: flag every speed-up as a memory regression.
RSS_PROGRAMS = 2000


def own_peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Pass:
    outcomes: List[Outcome]
    #: seconds the throughput is counted over.
    window: float
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: counters read around the pass (cache and storage statistics).
    counters: Dict[str, Any] = field(default_factory=dict)
    #: hygiene or validity problems; any makes the run invalid.
    problems: List[str] = field(default_factory=list)
    peak_rss_mb: Optional[float] = None
    setup_samples: List[float] = field(default_factory=list)
    #: open loop only: p99 of how late the generator sent (seconds).
    late: Optional[float] = None


def _nospan(*_args, **_kwargs):
    return nullcontext({})


def _alternate(tracer: Optional[Tracer], index: int):
    """With a tracer, trace every other operation, so traced and
    untraced operations interleave in time and the machine's drift
    cancels out of the tracing-overhead ratio.  Returns ``(traced,
    span)`` for operation ``index``."""
    if tracer is None:
        return False, _nospan
    tracer.enabled = index % 2 == 0
    return tracer.enabled, tracer.span if tracer.enabled else _nospan


def _blocks(rng: random.Random, names: Tuple[str, ...]) -> Iterator[str]:
    """Endless stratified mix: every block of ``len(names)`` requests
    holds each name once, in seeded order, so every seed offers the
    same proportions."""
    while True:
        block = list(names)
        rng.shuffle(block)
        yield from block


def expected_table(root: str) -> Dict[str, Dict[str, Any]]:
    path = os.path.join(root, "perfbench", "expected_table1.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


# -- compile -----------------------------------------------------------------


class CompileInputs:
    """The seeded program stream and the trust configurations it uses."""

    #: (workload module name, size keyword, sizes) for Table 1 sources.
    TABLE1_SIZES = (
        ("listcompare", "elements", range(1, 7)),
        ("ot", "rounds", range(1, 6)),
        ("tax", "records", range(1, 11)),
        ("work", "rounds", range(1, 6)),
        ("medical", "patients", range(1, 7)),
    )
    OWNERS = range(2, 33)

    def __init__(self, seed: int) -> None:
        from repro import progen, workloads
        from repro.reporting.throughput import aggregation_config

        self.seed = seed
        self.progen_config = progen.config()
        self.aggregation_configs = {n: aggregation_config(n) for n in self.OWNERS}
        self.table1 = {
            name: (getattr(workloads, name), getattr(workloads, name).config())
            for name, _, _ in self.TABLE1_SIZES
        }

    def stream(self, tag: str) -> Iterator[Tuple[str, str, Any]]:
        """Yields ``(label, source, config)``.  Every source is distinct:
        each ends with a comment naming the seed, the stream ``tag`` and
        the position, so no cache keyed on source text serves a repeat,
        also across the passes of one process."""
        from repro import progen
        from repro.reporting.throughput import aggregation_source

        rng = random.Random(f"{self.seed}:{tag}")
        index = 0
        while True:
            kind = index % 3
            if kind == 0:
                program_seed = rng.randrange(1 << 31)
                label = f"progen:{program_seed}"
                source = progen.generate_program(program_seed)
                config = self.progen_config
            elif kind == 1:
                owners = rng.choice(self.OWNERS)
                label = f"aggregation:{owners}"
                source = aggregation_source(owners)
                config = self.aggregation_configs[owners]
            else:
                name, keyword, sizes = rng.choice(self.TABLE1_SIZES)
                size = rng.choice(sizes)
                module, config = self.table1[name]
                label = f"{name}:{keyword}={size}"
                source = module.source(**{keyword: size})
            source += f"\n// perfbench stream {self.seed}:{tag}:{index}\n"
            index += 1
            yield label, source, config


def _compile_check(source: str, split, image) -> bool:
    """The split validates, and one execution gives the single-host
    interpreter's values for every field of the program instance
    (fields of allocated objects carry run-specific object ids)."""
    from repro.runtime import Session, run_single_host
    from repro.runtime.session import NO_STORAGE
    from repro.splitter import ValidationError, validate_split

    try:
        validate_split(split)
    except ValidationError:
        return False
    outcome = Session(image, storage=NO_STORAGE).run()
    oracle = run_single_host(source)
    main_class = split.fragments[split.main_entry].method_key[0]
    return all(
        outcome.field_value(cls, name, default=0)
        == oracle.fields.get((cls, name, None), 0)
        for cls, name in split.fields
        if cls == main_class
    )


def _cache_counts() -> Dict[str, Tuple[int, int]]:
    from repro.labels import cache as labels_cache
    from repro.lang import cache as lang_cache
    from repro.splitter import cache as split_cache

    counts = {}
    for layer, module in (
        ("lang", lang_cache),
        ("labels", labels_cache),
        ("splitter", split_cache),
    ):
        tables = module.stats().values()
        counts[layer] = (
            sum(t["hits"] for t in tables),
            sum(t["hits"] + t["misses"] for t in tables),
        )
    return counts


def run_compile(
    inputs: CompileInputs,
    seconds: float,
    tracer: Optional[Tracer],
    stream: str,
) -> Pass:
    from repro.lang import check_program, parse_program
    from repro.runtime import RuntimeImage
    from repro.splitter import split_program

    outcomes: List[Outcome] = []
    cache_delta = {layer: [0, 0] for layer in ("lang", "labels", "splitter")}
    fragments: List[int] = []
    peak_rss: Optional[float] = None
    programs = inputs.stream(stream)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        label, source, config = next(programs)
        traced, span = _alternate(tracer, len(outcomes))
        before = _cache_counts() if traced else None
        start = time.perf_counter()
        with span("compile.program", request=f"compile:{len(outcomes)}"):
            with span("lang.parse"):
                program = parse_program(source)
            with span("lang.typecheck"):
                checked = check_program(program, config.hierarchy)
            with span("splitter.split"):
                split = split_program(checked, config).split
            with span("session.image_build"):
                image = RuntimeImage(split)
        done = time.perf_counter()
        if before is not None:
            after = _cache_counts()
            for layer, (hits, total) in after.items():
                cache_delta[layer][0] += hits - before[layer][0]
                cache_delta[layer][1] += total - before[layer][1]
            fragments.append(len(split.fragments))
        correct = _compile_check(source, split, image)
        outcomes.append(
            Outcome(label, start, start, done, True, correct=correct,
                    traced=traced)
        )
        if len(outcomes) == RSS_PROGRAMS:
            peak_rss = own_peak_rss_mb()
    return Pass(
        outcomes,
        window=sum(o.done - o.sent for o in outcomes),
        spans=tracer.spans if tracer else [],
        counters={"cache": cache_delta, "fragments": fragments},
        peak_rss_mb=peak_rss,
    )


# -- durable -----------------------------------------------------------------


class DurableInputs:
    """Request-sized Table 1 splits, their images and no-storage oracles."""

    def __init__(self, seed: int) -> None:
        from repro.reporting.throughput import request_workloads
        from repro.runtime import RuntimeImage, Session
        from repro.runtime.session import NO_STORAGE
        from repro.splitter import split_source

        self.seed = seed
        self.programs: Dict[str, Tuple[Any, Any, Dict[str, Any]]] = {}
        for name, (source, config) in request_workloads().items():
            split = split_source(source, config).split
            image = RuntimeImage.for_split(split)
            oracle = Session(image, storage=NO_STORAGE)
            oracle.run()
            self.programs[name] = (split, image, oracle.observables())


def run_durable(
    inputs: DurableInputs,
    seconds: float,
    tracer: Optional[Tracer],
    scratch: str,
) -> Pass:
    from repro.runtime import Session, SessionStorage, rehydrate_session
    from repro.runtime import storage as storage_mod

    rng = random.Random(inputs.seed)
    mix = _blocks(rng, tuple(sorted(inputs.programs)))
    outcomes: List[Outcome] = []
    stats_before = storage_mod.stats()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        name = next(mix)
        split, image, oracle = inputs.programs[name]
        directory = os.path.join(scratch, f"session-{len(outcomes)}")
        traced, span = _alternate(tracer, len(outcomes))
        start = time.perf_counter()
        with span("durable.pair", request=f"durable:{len(outcomes)}"):
            with span("storage.open"):
                storage = SessionStorage(directory)
            session = Session(image, storage=storage)
            with span("session.run"):
                session.run()
            written = session.observables()
            storage.close()
            with span("storage.rehydrate"):
                restored = rehydrate_session(split, directory)
            with span("session.resume"):
                restored.run()
            restored.storage.close()
        done = time.perf_counter()
        correct = (
            storage.available
            and written == oracle
            and restored.observables() == oracle
        )
        shutil.rmtree(directory)
        outcomes.append(
            Outcome(name, start, start, done, True, correct=correct,
                    traced=traced)
        )
    stats_after = storage_mod.stats()
    return Pass(
        outcomes,
        window=sum(o.done - o.sent for o in outcomes),
        spans=tracer.spans if tracer else [],
        counters={
            key: stats_after[key] - stats_before[key]
            for key in ("boundaries", "fsyncs", "appends", "retries",
                        "degradations")
        },
    )


# -- serve-sim / serve-tcp ---------------------------------------------------


def serve_oracles(root: str, names: Tuple[str, ...]) -> Dict[str, Dict[str, Any]]:
    """Solo-session observables of the gateway's Table 1 programs.

    Each must also match the expected table kept beside this file; a
    drifted oracle is itself an output mismatch.
    """
    from repro import workloads
    from repro.runtime import RuntimeImage, Session
    from repro.runtime.session import NO_STORAGE
    from repro.splitter import split_source

    # The gateway serves each program at its module's default size.
    modules = {
        "list": workloads.listcompare,
        "ot": workloads.ot,
        "tax": workloads.tax,
        "work": workloads.work,
        "medical": workloads.medical,
    }
    expected = expected_table(root)
    oracles = {}
    for name in names:
        module = modules[name]
        split = split_source(module.source(), module.config()).split
        session = Session(RuntimeImage.for_split(split), storage=NO_STORAGE)
        session.run()
        observables = session.observables()
        want = expected[name]
        if (
            observables["messages"] != want["messages"]
            or observables["simulated_seconds"] != want["simulated_seconds"]
        ):
            raise OutputMismatch(
                f"{name}: oracle {observables['messages']} / "
                f"{observables['simulated_seconds']} s differs from the "
                f"expected table {want}"
            )
        oracles[name] = observables
    return oracles


class OutputMismatch(Exception):
    """The system produced an output that differs from its oracle."""


async def _connect(gateway: GatewayProcess, principals: List[str]) -> list:
    from repro.runtime.gateway import GatewayClient

    host, port = gateway.address
    return [
        await GatewayClient.connect(host, port, principal)
        for principal in principals
    ]


async def _close(clients: list) -> None:
    for client in clients:
        await client.close()


async def _warm(
    gateway: GatewayProcess,
    names: Tuple[str, ...],
    transport: str,
    oracles: Dict[str, Dict[str, Any]],
) -> float:
    """Answer every served workload once; returns the set-up time from
    spawning the gateway (includes its lazy split and pool build)."""
    (client,) = await _connect(gateway, ["perfbench-warm"])
    try:
        for name in names:
            reply = await client.run(name, transport=transport)
            if reply.get("t") != "result":
                raise RuntimeError(f"warm-up {name} over {transport}: {reply}")
            if reply["observables"] != oracles[name]:
                raise OutputMismatch(f"warm-up {name} over {transport}")
        return time.perf_counter() - gateway.spawned_at
    finally:
        await _close([client])


def _client_spans(outcomes: List[Outcome]) -> List[Dict[str, Any]]:
    """The load generator's side of each request, as spans sharing the
    gateway's request id."""
    spans = []
    for index, outcome in enumerate(outcomes):
        reply = outcome.reply or {}
        spans.append(
            {
                "id": f"client.{index}",
                "parent": None,
                "request": f"{reply.get('principal')}:{reply.get('id')}",
                "name": "loadgen.request",
                "start": outcome.due,
                "end": outcome.done,
                "sent": outcome.sent,
                "item": outcome.item,
                "wall_seconds": reply.get("wall_seconds"),
            }
        )
    return spans


def run_serve(
    root: str,
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    trace_dir: str,
    setup_samples: int,
) -> Pass:
    """One ``serve-sim`` or ``serve-tcp`` pass against a fresh gateway.

    Spawns the gateway ``setup_samples`` times to time its set-up; the
    last one serves the measured traffic.
    """
    transport = "sim" if workload == "serve-sim" else "tcp"
    names = SIM_MIX if transport == "sim" else TCP_MIX
    oracles = serve_oracles(root, names)
    problems: List[str] = []
    setups: List[float] = []
    trace_out = os.path.join(trace_dir, f"gateway-{os.getpid()}.jsonl")
    gateway: Optional[GatewayProcess] = None
    for sample in range(setup_samples):
        last = sample == setup_samples - 1
        gateway = GatewayProcess(root, trace_out if (traced and last) else None)
        try:
            setups.append(asyncio.run(_warm(gateway, names, transport, oracles)))
        except BaseException:
            problems.extend(gateway.stop())
            raise
        if not last:
            problems.extend(gateway.stop())
    assert gateway is not None
    rng = random.Random(seed)
    try:
        outcomes, window = asyncio.run(
            _drive(gateway, transport, names, rng, seconds)
        )
        peak = gateway.peak_rss_mb()
    finally:
        problems.extend(gateway.stop())
    for outcome in outcomes:
        if outcome.answered:
            observables = outcome.reply["observables"]
            outcome.correct = observables == oracles[outcome.item]
    late = generator_late(outcomes) if transport == "sim" else None
    if late is not None and late > LATE_LIMIT:
        problems.append(
            f"load generator ran {late * 1e3:.1f} ms late at p99 "
            f"(limit {LATE_LIMIT * 1e3:.0f} ms): schedule not kept"
        )
    spans: List[Dict[str, Any]] = []
    if traced:
        spans = read_spans(trace_out) + _client_spans(outcomes)
        os.remove(trace_out)
    return Pass(
        outcomes,
        window=window,
        spans=spans,
        problems=problems,
        peak_rss_mb=peak,
        setup_samples=setups,
        late=late,
    )


async def _drive(
    gateway: GatewayProcess,
    transport: str,
    names: Tuple[str, ...],
    rng: random.Random,
    seconds: float,
) -> Tuple[List[Outcome], float]:
    principals = [f"perfbench-{index}" for index in range(CONNECTIONS)]
    clients = await _connect(gateway, principals)
    principal = {id(client): name for client, name in zip(clients, principals)}

    async def submit(item: str, client) -> Dict[str, Any]:
        reply = await client.run(item, transport=transport)
        reply["principal"] = principal[id(client)]
        return reply

    try:
        start = time.perf_counter()
        if transport == "sim":
            offsets = poisson_schedule(rng, SIM_RATE, seconds)
            mix = _blocks(rng, names)
            items = [next(mix) for _ in offsets]
            outcomes = await open_loop(offsets, items, clients, submit)
        else:
            mixes = [_blocks(random.Random(rng.random()), names) for _ in clients]
            outcomes = await closed_loop(
                clients, lambda index: next(mixes[index]), submit, seconds
            )
        window = max(o.done for o in outcomes) - start
    finally:
        await _close(clients)
    return outcomes, window
