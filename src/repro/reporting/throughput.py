"""The many-session throughput harness (``repro bench --throughput``).

The paper's deployment model is *run many times*: a split program is
published once, then executed per request by mutually distrusting
principals.  This harness attaches a number to that axis.  For each
Table 1 workload (request-sized variants — the fault sweep sets the
precedent of shrinking loop bounds so a "request" is milliseconds, not
seconds) plus a seeded progen mix it measures:

* **naive** — the per-request path with no sharing: every request runs
  the full pipeline (``split_source``: parse, typecheck, split,
  validate → a cold :class:`RuntimeImage` → one run).  All per-program
  work (splitting, fragment compilation, key derivation, ACL
  precomputation, host construction) is paid per request.
* **pooled** — the session engine: one shared
  :class:`~repro.runtime.session.RuntimeImage`, a recycled
  :class:`~repro.runtime.session.SessionPool`, and a
  :class:`~repro.runtime.session.MultiSessionDriver` interleaving many
  concurrent sessions.  Reported as requests/sec with p50/p99/p999
  per-session wall-clock latency.

Every pooled session's observables — message counts, simulated time,
per-host ICS depths — are asserted **bit-identical** to a solo
single-run oracle, so the speedup can never come from behavioural
drift.  A mixed-image phase interleaves all five request workloads in
one driver (a multi-program gateway), two scaling sweeps (host count
with inert extra hosts, principal count with a generated aggregation
program) attach numbers to the many-users axis, and a ``--jobs``
fan-out runs session shards over a persistent
:class:`repro.parallel.WorkerPool` (workers fork once, inheriting the
warm images, and serve every scaling point).  Results land in the
bench JSON schema so ``bench --compare`` gates throughput regressions
like any other stage.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from .. import parallel, progen
from ..runtime import DistributedExecutor
from ..runtime.session import MultiSessionDriver, RuntimeImage
from ..splitter import split_source
from ..trust import HostDescriptor, TrustConfiguration
from ..workloads import listcompare, medical, ot, tax, work

#: Sessions driven per workload by default / by ``--quick``.
DEFAULT_SESSIONS = 2000
QUICK_SESSIONS = 200

#: Seeds in the progen mix (each contributes sessions/len(seeds) runs).
PROGEN_MIX_SEEDS = tuple(range(10))

#: In-flight sessions interleaved by the driver.
CONCURRENCY = 64

#: Extra inert hosts for the host-count sweep (3 real OT hosts + k).
HOST_SWEEP_EXTRAS = (0, 2, 6, 14)

#: Data-owner counts for the principal-count sweep (plus the client).
PRINCIPAL_SWEEP_OWNERS = (2, 4, 8, 16)


def request_workloads() -> Dict[str, Tuple[str, TrustConfiguration]]:
    """Request-sized variants of the Table 1 workloads.

    Loop bounds are shrunk so one session is request-shaped (sub-
    millisecond to a few milliseconds): the throughput story is about
    per-request overheads, which the full-size benchmark workloads — up
    to 100-iteration loops — would drown in loop-body execution.
    """
    return {
        "List": (listcompare.source(4), listcompare.config()),
        "OT": (ot.source(rounds=1), ot.config()),
        "Tax": (tax.source(records=3), tax.config()),
        "Work": (work.source(rounds=2, inner=2), work.config()),
        "Medical": (medical.source(patients=3), medical.config()),
    }


def aggregation_source(owners: int) -> str:
    """A generated aggregation program with ``owners`` data owners.

    Each principal ``Ij`` contributes a secret pinned to its own host;
    the client (who owns the data's confidentiality) aggregates.  The
    Tax shape generalized to N parties — the principal-count axis the
    ROADMAP's secure-aggregation direction will stress."""
    fields = "\n".join(
        f"  int{{Client: I{j}; ?:I{j}}} s{j} = {3 + j};"
        for j in range(1, owners + 1)
    )
    body = "\n".join(
        f"    acc = acc + s{j} * 3 % 17;" for j in range(1, owners + 1)
    )
    return (
        "class Agg {\n"
        f"{fields}\n"
        "  int{Client:} total;\n\n"
        "  void main{?:Client}() {\n"
        "    int{Client:} acc = 0;\n"
        f"{body}\n"
        "    total = acc;\n"
        "  }\n"
        "}\n"
    )


def aggregation_config(owners: int) -> TrustConfiguration:
    hosts = [HostDescriptor.of("ClientHost", "{Client:}", "{?:Client}")]
    for j in range(1, owners + 1):
        hosts.append(
            HostDescriptor.of(
                f"H{j}", f"{{Client: I{j}; I{j}:}}", f"{{?:Client, I{j}}}"
            )
        )
    trust = TrustConfiguration(hosts)
    for j in range(1, owners + 1):
        trust.pin_field("Agg", f"s{j}", f"H{j}")
    return trust


def ot_config_with_inert_hosts(extra: int) -> TrustConfiguration:
    """The OT trust configuration plus ``extra`` hosts no data or code
    can be placed on (fresh principals, unrelated trust) — so placement
    stays bit-identical while the runtime carries a larger host set."""
    trust = ot.config()
    for j in range(1, extra + 1):
        trust.add_host(
            HostDescriptor.of(f"X{j}", f"{{Ext{j}:}}", f"{{?:Ext{j}}}")
        )
    return trust


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list (q in 0..1)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[rank]


def _latency_summary(latencies: List[float]) -> Dict[str, float]:
    ordered = sorted(latencies)
    count = len(ordered)
    return {
        "p50": round(percentile(ordered, 0.50), 9),
        "p99": round(percentile(ordered, 0.99), 9),
        "p999": round(percentile(ordered, 0.999), 9),
        "mean": round(sum(ordered) / count, 9) if count else 0.0,
    }


def _oracle(split) -> Dict[str, Any]:
    """The single-run oracle: one fresh executor over the shared image.

    Every pooled session must reproduce exactly these observables."""
    executor = DistributedExecutor(split)
    executor.run()
    return executor.observables()


class InvariantViolation(AssertionError):
    """A pooled session diverged from the single-run oracle."""


def _checked_observer(oracle: Dict[str, Any], label: str):
    def observer(session) -> None:
        got = session.observables()
        if got != oracle:
            raise InvariantViolation(
                f"{label}: pooled session diverged from the single-run "
                f"oracle:\n  expected {oracle}\n  got      {got}"
            )
    return observer


def _drive_pooled(
    split, sessions: int, oracle: Dict[str, Any], label: str
) -> Tuple[List[float], float]:
    """Run ``sessions`` pooled sessions; returns (latencies, wall)."""
    image = RuntimeImage.for_split(split)
    driver = MultiSessionDriver(
        image, concurrency=min(CONCURRENCY, sessions)
    )
    start = time.perf_counter()
    records = driver.run_many(
        sessions, observer=_checked_observer(oracle, label)
    )
    wall = time.perf_counter() - start
    return [record["latency"] for record in records], wall


def _drive_naive(
    source: str, config, runs: int, oracle: Dict[str, Any], label: str
) -> float:
    """The per-run-reconstruction baseline: each request runs the full
    pipeline and builds a fresh image over the new split.  Returns the
    wall-clock for ``runs`` requests."""
    check = _checked_observer(oracle, f"{label} (naive)")
    start = time.perf_counter()
    for _ in range(runs):
        result = split_source(source, config)
        executor = DistributedExecutor(result.split)
        executor.run()
        check(executor)
    return time.perf_counter() - start


def _rate(count: int, wall: float) -> float:
    return round(count / wall, 3) if wall > 0 else 0.0


def _measure_workload(
    name: str, source: str, config, sessions: int, naive_runs: int
) -> Tuple[Dict[str, Any], Any]:
    """Measure one workload; returns (record, split) — the split is
    kept so later phases (jobs scaling) reuse its warm image."""
    result = split_source(source, config)
    oracle = _oracle(result.split)
    naive_wall = _drive_naive(source, config, naive_runs, oracle, name)
    latencies, pooled_wall = _drive_pooled(
        result.split, sessions, oracle, name
    )
    pooled_rate = _rate(sessions, pooled_wall)
    naive_rate = _rate(naive_runs, naive_wall)
    return {
        "sessions": sessions,
        "naive_sessions": naive_runs,
        "requests_per_sec": pooled_rate,
        "sessions_per_sec": pooled_rate,
        "naive_sessions_per_sec": naive_rate,
        "speedup_vs_naive": (
            round(pooled_rate / naive_rate, 3) if naive_rate else 0.0
        ),
        "latency": _latency_summary(latencies),
        "pooled_wall_seconds": round(pooled_wall, 6),
        "naive_wall_seconds": round(naive_wall, 6),
        "oracle": oracle,
    }, result.split


# -- --jobs fan-out ----------------------------------------------------------
#
# Workers inherit the warm RuntimeImages (and their compiled closures
# and derived keys) through the fork's memory copy: the parent
# builds every image before fanning out, each worker drives its shard of
# sessions over the inherited image, and only plain floats cross the
# pickle boundary.


def _shard_task(item: Tuple[str, int]) -> int:
    name, shard = item
    state = parallel.state()
    split = state["splits"][name]
    oracle = state["oracles"][name]
    latencies, _ = _drive_pooled(split, shard, oracle, f"{name} (shard)")
    return len(latencies)


def _scaling_point(
    splits: Dict[str, Any],
    oracles: Dict[str, Dict[str, Any]],
    sessions: int,
    jobs: int,
    pool: Optional[parallel.WorkerPool] = None,
) -> Dict[str, Any]:
    """Sessions/sec over all request workloads at one ``--jobs`` value.

    ``pool`` is the persistent worker pool shared by every scaling
    point (the workers and their inherited warm images outlive a single
    point); with ``jobs <= 1`` or no pool the shards run serially.
    """
    items: List[Tuple[str, int]] = []
    for name in splits:
        shard, remainder = divmod(sessions, max(1, jobs))
        for index in range(max(1, jobs)):
            size = shard + (1 if index < remainder else 0)
            if size:
                items.append((name, size))
    start = time.perf_counter()
    if jobs > 1 and pool is not None:
        counts = pool.map(_shard_task, items, chunksize=1)
    else:
        # Serial path: same per-shard work, without the fork state.
        counts = [
            len(
                _drive_pooled(
                    splits[name], shard, oracles[name], f"{name} (shard)"
                )[0]
            )
            for name, shard in items
        ]
    wall = time.perf_counter() - start
    total = sum(counts)
    return {
        "jobs": jobs,
        "sessions": total,
        "sessions_per_sec": _rate(total, wall),
        "wall_seconds": round(wall, 6),
    }


# -- mixed image set ---------------------------------------------------------


def _drive_mixed(
    splits: Dict[str, Any],
    oracles: Dict[str, Dict[str, Any]],
    sessions: int,
) -> Dict[str, Any]:
    """All request workloads interleaved in ONE driver — a gateway
    serving a heterogeneous program mix.  Launches rotate across the
    images; every completed session is still checked bit-identical
    against *its own* program's solo oracle."""
    images = {name: RuntimeImage.for_split(split) for name, split in splits.items()}
    oracle_by_image = {id(image): (name, oracles[name]) for name, image in images.items()}

    def observer(session) -> None:
        name, oracle = oracle_by_image[id(session.image)]
        got = session.observables()
        if got != oracle:
            raise InvariantViolation(
                f"mixed[{name}]: pooled session diverged from the "
                f"single-run oracle:\n  expected {oracle}\n  got      {got}"
            )

    driver = MultiSessionDriver(
        list(images.values()), concurrency=min(CONCURRENCY, sessions)
    )
    start = time.perf_counter()
    records = driver.run_many(sessions, observer=observer)
    wall = time.perf_counter() - start
    return {
        "programs": len(images),
        "sessions": len(records),
        "sessions_per_sec": _rate(len(records), wall),
        "latency": _latency_summary([r["latency"] for r in records]),
        "wall_seconds": round(wall, 6),
    }


def run_throughput(
    sessions: int = DEFAULT_SESSIONS, jobs: int = 1, quiet: bool = False
) -> Dict[str, Any]:
    """The full throughput suite; returns the report section."""

    def note(text: str) -> None:
        if not quiet:
            print(f"throughput: {text}", file=sys.stderr)

    naive_runs = max(25, sessions // 20)
    report: Dict[str, Any] = {
        "sessions": sessions,
        "naive_sessions": naive_runs,
        "jobs": jobs,
        "concurrency": min(CONCURRENCY, sessions),
    }

    workloads: Dict[str, Dict[str, Any]] = {}
    splits: Dict[str, Any] = {}
    oracles: Dict[str, Dict[str, Any]] = {}
    for name, (source, config) in request_workloads().items():
        note(f"{name} ({sessions} pooled / {naive_runs} naive) ...")
        workloads[name], splits[name] = _measure_workload(
            name, source, config, sessions, naive_runs
        )
        oracles[name] = workloads[name]["oracle"]
    report["workloads"] = workloads

    # Progen mix: round-robin over the seed set, one oracle per seed.
    note(f"progen mix ({len(PROGEN_MIX_SEEDS)} seeds) ...")
    config = progen.config()
    mix_latencies: List[float] = []
    mix_wall = 0.0
    mix_naive_wall = 0.0
    mix_sessions = 0
    mix_naive = 0
    per_seed = max(1, sessions // len(PROGEN_MIX_SEEDS))
    naive_per_seed = max(1, naive_runs // len(PROGEN_MIX_SEEDS))
    for seed in PROGEN_MIX_SEEDS:
        source = progen.generate_program(seed)
        result = split_source(source, config)
        oracle = _oracle(result.split)
        mix_naive_wall += _drive_naive(
            source, config, naive_per_seed, oracle, f"progen[{seed}]"
        )
        latencies, wall = _drive_pooled(
            result.split, per_seed, oracle, f"progen[{seed}]"
        )
        mix_latencies.extend(latencies)
        mix_wall += wall
        mix_sessions += per_seed
        mix_naive += naive_per_seed
    mix_rate = _rate(mix_sessions, mix_wall)
    mix_naive_rate = _rate(mix_naive, mix_naive_wall)
    report["progen"] = {
        "seeds": len(PROGEN_MIX_SEEDS),
        "sessions": mix_sessions,
        "naive_sessions": mix_naive,
        "requests_per_sec": mix_rate,
        "sessions_per_sec": mix_rate,
        "naive_sessions_per_sec": mix_naive_rate,
        "speedup_vs_naive": (
            round(mix_rate / mix_naive_rate, 3) if mix_naive_rate else 0.0
        ),
        "latency": _latency_summary(mix_latencies),
    }

    # Aggregate: one headline number over everything driven above.
    pooled_sessions = sessions * len(workloads) + mix_sessions
    pooled_wall = (
        sum(w["pooled_wall_seconds"] for w in workloads.values()) + mix_wall
    )
    naive_sessions = naive_runs * len(workloads) + mix_naive
    naive_wall = (
        sum(w["naive_wall_seconds"] for w in workloads.values())
        + mix_naive_wall
    )
    pooled_rate = _rate(pooled_sessions, pooled_wall)
    naive_rate = _rate(naive_sessions, naive_wall)
    report["aggregate"] = {
        "sessions": pooled_sessions,
        "sessions_per_sec": pooled_rate,
        "naive_sessions": naive_sessions,
        "naive_sessions_per_sec": naive_rate,
        "speedup_vs_naive": (
            round(pooled_rate / naive_rate, 3) if naive_rate else 0.0
        ),
    }

    # Mixed image set: the five request workloads interleaved in one
    # driver (a multi-program gateway), each session still pinned to
    # its own program's solo oracle.
    note("mixed image set ...")
    report["mixed"] = _drive_mixed(splits, oracles, sessions)

    # Host-count sweep: OT plus inert extra hosts.  Placement must not
    # move (the extras are ineligible for everything), so each point is
    # pinned to the 3-host oracle's message counts.
    note("host-count sweep ...")
    sweep_sessions = max(50, sessions // 10)
    host_points: List[Dict[str, Any]] = []
    base_messages: Optional[Dict[str, int]] = None
    for extra in HOST_SWEEP_EXTRAS:
        result = split_source(
            ot.source(rounds=1), ot_config_with_inert_hosts(extra)
        )
        oracle = _oracle(result.split)
        if base_messages is None:
            base_messages = oracle["messages"]
        elif oracle["messages"] != base_messages:
            raise InvariantViolation(
                f"host sweep: inert hosts moved placement at +{extra}: "
                f"{base_messages} -> {oracle['messages']}"
            )
        _, wall = _drive_pooled(
            result.split, sweep_sessions, oracle, f"hosts+{extra}"
        )
        host_points.append(
            {
                "hosts": 3 + extra,
                "sessions": sweep_sessions,
                "sessions_per_sec": _rate(sweep_sessions, wall),
            }
        )

    # Principal-count sweep: the generated N-owner aggregation program.
    note("principal-count sweep ...")
    principal_points: List[Dict[str, Any]] = []
    for owners in PRINCIPAL_SWEEP_OWNERS:
        result = split_source(
            aggregation_source(owners), aggregation_config(owners)
        )
        oracle = _oracle(result.split)
        _, wall = _drive_pooled(
            result.split, sweep_sessions, oracle, f"principals={owners + 1}"
        )
        principal_points.append(
            {
                "principals": owners + 1,
                "hosts": owners + 1,
                "messages": oracle["messages"]["total_messages"],
                "sessions": sweep_sessions,
                "sessions_per_sec": _rate(sweep_sessions, wall),
            }
        )
    report["sweeps"] = {"hosts": host_points, "principals": principal_points}

    # Sessions/sec scaling over --jobs (each point re-drives every
    # request workload, sharded over that many forked workers).  Full
    # session counts per point: the fork's fixed cost (pool spin-up,
    # worker teardown) needs real work to amortize against, or the
    # scaling numbers measure multiprocessing, not the engine.
    scaling_sessions = sessions
    points = sorted({1, jobs})
    note(f"jobs scaling {points} ...")
    # One persistent worker pool serves every parallel scaling point:
    # the workers fork once — inheriting the warm splits, images, and
    # oracles — and stay up across points instead of re-forking per
    # phase.
    pool: Optional[parallel.WorkerPool] = None
    if jobs > 1 and parallel.fork_available():
        pool = parallel.WorkerPool(
            jobs, shared={"splits": splits, "oracles": oracles}
        )
    try:
        report["jobs_scaling"] = [
            _scaling_point(splits, oracles, scaling_sessions, point, pool=pool)
            for point in points
        ]
    finally:
        if pool is not None:
            pool.close()

    # The invariant surface --compare pins bit-identical: the per-
    # workload single-run oracles (message counts, simulated time, ICS
    # depths) plus the principal-sweep message counts.  Session counts
    # and wall-clock rates deliberately stay out.
    report["invariants"] = {
        "workloads": {name: oracles[name] for name in sorted(oracles)},
        "principal_sweep_messages": {
            str(point["principals"]): point["messages"]
            for point in principal_points
        },
    }
    return report
