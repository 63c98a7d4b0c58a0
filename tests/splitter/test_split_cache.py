"""Differential battery for the whole-pipeline split cache.

The cache may only ever change *when* the splitter runs, never what the
partitioned program does.  Every test here pins that equivalence one way
or another: a rehydrated split must be observably identical to a fresh
compile (field values, message counts and trace, simulated time, ICS
depths), a changed trust input must miss, and a damaged artifact must be
verified away silently — recompile with a recorded miss, never an
exception, never a wrong split.  The cache key and the Section 8 program
hash both read ``Program.source``, so the string and checked-program
entry points must agree on both.
"""

import random

import pytest

from repro import parallel, progen
from repro.labels import ActsForHierarchy, Principal
from repro.lang import check_program, parse_program, pretty_program
from repro.lang.cache import digest as source_digest
from repro.runtime.executor import run_split_program
from repro.splitter import cache
from repro.splitter.partition import (
    _split_uncached,
    split_program,
    split_source,
)
from repro.splitter.serialize import (
    canonical_bytes,
    decode_split,
    encode_split,
    from_canonical_bytes,
)
from repro.trust import TrustConfiguration, example_hosts
from repro.workloads import listcompare, medical, ot, tax, work

from tests.programs import OT_SOURCE, config_abt

fork_only = pytest.mark.skipif(
    not parallel.fork_available(),
    reason="no fork start method on this platform",
)

#: All five Table 1 workloads (the bench only exercises four; the
#: battery covers medical too).
WORKLOADS = {
    "listcompare": listcompare,
    "medical": medical,
    "ot": ot,
    "tax": tax,
    "work": work,
}

PROGEN_SEEDS = 50


@pytest.fixture(autouse=True)
def _clean_cache(monkeypatch):
    # This battery tests the cache machinery itself, so it runs with no
    # ambient artifact directory.
    monkeypatch.delenv(cache.ENV_DIR, raising=False)
    cache.clear()
    yield
    cache.clear()


def observe(split):
    """Every observable the differential battery compares."""
    outcome = run_split_program(split)
    return {
        "fields": {
            key: outcome.field_value(*key) for key in sorted(split.fields)
        },
        "counts": dict(outcome.counts),
        "elapsed": outcome.elapsed,
        "ics": {
            name: host.stack.depth
            for name, host in sorted(outcome.hosts.items())
        },
        "trace": [
            (m.kind, m.src, m.dst) for m in outcome.network.message_log
        ],
        "audits": list(outcome.audits),
    }


def round_trip(split, config):
    """serialize → canonical bytes → parse → rehydrate."""
    payload = canonical_bytes(encode_split(split))
    return decode_split(from_canonical_bytes(payload), config)


# ---------------------------------------------------------------------------
# Round-trip property: rehydrated ≡ fresh
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_round_trip_observably_identical(name):
    module = WORKLOADS[name]
    config = module.config()
    fresh = split_source(module.source(), config).split
    rehydrated = round_trip(fresh, config)
    assert rehydrated is not fresh
    assert observe(rehydrated) == observe(fresh)
    # Structure survives too, not just behaviour.
    assert set(rehydrated.fragments) == set(fresh.fragments)
    assert rehydrated.main_entry == fresh.main_entry
    assert {k: p.host for k, p in rehydrated.fields.items()} == {
        k: p.host for k, p in fresh.fields.items()
    }
    assert rehydrated.digest == fresh.digest


def test_progen_corpus_round_trip_observably_identical():
    config = progen.config()
    for seed in range(PROGEN_SEEDS):
        fresh = split_source(progen.generate_program(seed), config).split
        rehydrated = round_trip(fresh, config)
        assert observe(rehydrated) == observe(fresh), f"seed {seed}"


def test_canonical_encoding_is_deterministic():
    config = config_abt()
    split = split_source(OT_SOURCE, config).split
    once = canonical_bytes(encode_split(split))
    again = canonical_bytes(encode_split(round_trip(split, config)))
    assert once == again


# ---------------------------------------------------------------------------
# Memory tier
# ---------------------------------------------------------------------------


def test_memory_hit_serves_fresh_identical_split():
    config = config_abt()
    first = split_source(OT_SOURCE, config)
    assert not first.cached
    second = split_source(OT_SOURCE, config)
    assert second.cached
    assert second.split is not first.split
    assert observe(second.split) == observe(first.split)
    stats = cache.stats()["split.memory"]
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_cached_intermediates_recompute_lazily_and_match():
    config = config_abt()
    first = split_source(OT_SOURCE, config)
    second = split_source(OT_SOURCE, config)
    assert second.cached
    assert second.assignment.fields == first.assignment.fields
    assert set(second.checked.fields) == set(first.checked.fields)


def test_mutating_a_hit_cannot_poison_later_hits():
    # The attack/fault tests mutate their splits; each hit must be a
    # private rehydration, not a shared object.
    config = config_abt()
    baseline = observe(split_source(OT_SOURCE, config).split)
    victim = split_source(OT_SOURCE, config).split
    victim.fragments[victim.main_entry].ops.clear()
    assert observe(split_source(OT_SOURCE, config).split) == baseline


def test_pipeline_does_not_mutate_cached_ast():
    # The split key reads Program.source, and a cache hit's lazily
    # recomputed intermediates re-run the pipeline on the same checked
    # program; neither splitting nor running may write into the AST.
    config = config_abt()
    program = parse_program(OT_SOURCE)
    before = pretty_program(program)
    result = split_program(check_program(program, config.hierarchy), config)
    run_split_program(result.split)
    assert program.source == OT_SOURCE
    assert pretty_program(program) == before


# ---------------------------------------------------------------------------
# Section 8 digest: the program text, on every entry point
# ---------------------------------------------------------------------------


def _split_checked(source, config):
    """Split through the staged path: parse, check, then split."""
    checked = check_program(parse_program(source), config.hierarchy)
    return split_program(checked, config)


def test_checked_path_digest_equals_string_path_digest():
    config = config_abt()
    staged = _split_checked(OT_SOURCE, config)
    assert not staged.cached
    fresh = _split_uncached(OT_SOURCE, config)
    assert staged.split.digest == fresh.split.digest


def test_checked_path_digest_covers_program_text():
    # OT with one and two rounds has the same classes but different
    # program text; the hosts' program hash must tell them apart.
    config = ot.config()
    one = _split_checked(ot.source(rounds=1), config)
    two = _split_checked(ot.source(rounds=2), config)
    assert one.split.digest != two.split.digest


def test_string_hit_after_checked_fill_has_string_path_digest():
    config = config_abt()
    _split_checked(OT_SOURCE, config)
    served = split_source(OT_SOURCE, config)
    assert served.cached
    fresh = _split_uncached(OT_SOURCE, config)
    assert served.split.digest == fresh.split.digest


# ---------------------------------------------------------------------------
# Invalidation: any changed trust input must miss
# ---------------------------------------------------------------------------


def _config_with_own_hierarchy():
    hosts = example_hosts()
    return TrustConfiguration(
        [hosts["A"], hosts["B"], hosts["T"]],
        hierarchy=ActsForHierarchy(),
    )


def test_acts_for_edge_invalidates():
    config = _config_with_own_hierarchy()
    digest = source_digest(OT_SOURCE)
    assert not split_source(OT_SOURCE, config).cached
    before = cache.split_key(digest, config)
    config.hierarchy.add(Principal("Alice"), Principal("Bob"))
    after = cache.split_key(digest, config)
    assert before != after
    assert not split_source(OT_SOURCE, config).cached


def test_host_trust_change_invalidates():
    from repro.trust import HostDescriptor

    hosts = example_hosts()
    trusted = TrustConfiguration([hosts["A"], hosts["B"], hosts["T"]])
    # Same host names, but T's integrity label is strengthened: the
    # trust assumptions differ, so the cache key must differ.
    stronger = TrustConfiguration([
        hosts["A"],
        hosts["B"],
        HostDescriptor.of("T", "{Alice:; Bob:}", "{?:Alice, Bob}"),
    ])
    digest = source_digest(OT_SOURCE)
    assert cache.split_key(digest, trusted) != cache.split_key(
        digest, stronger
    )
    assert not split_source(OT_SOURCE, trusted).cached
    assert not split_source(OT_SOURCE, stronger).cached


def test_preference_pin_and_link_cost_invalidate():
    config = config_abt()
    digest = source_digest(OT_SOURCE)
    keys = [cache.split_key(digest, config)]
    config.set_preference("Bob", "B", 0.25)
    keys.append(cache.split_key(digest, config))
    config.pin_field("OTExample", "request", "B")
    keys.append(cache.split_key(digest, config))
    config.set_link_cost("A", "T", 2.5)
    keys.append(cache.split_key(digest, config))
    assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# Disk tier: durability and tamper fail-closed
# ---------------------------------------------------------------------------


def _warm_disk(tmp_path, monkeypatch, config):
    monkeypatch.setenv(cache.ENV_DIR, str(tmp_path))
    first = split_source(OT_SOURCE, config)
    assert not first.cached
    artifacts = list(tmp_path.glob("*.rsplit"))
    assert len(artifacts) == 1
    return observe(first.split), artifacts[0]


def test_disk_hit_across_cleared_memory(tmp_path, monkeypatch):
    config = config_abt()
    baseline, _ = _warm_disk(tmp_path, monkeypatch, config)
    cache.clear()  # a "new process": memory gone, artifacts remain
    warm = split_source(OT_SOURCE, config)
    assert warm.cached
    assert observe(warm.split) == baseline
    stats = cache.stats()
    assert stats["split.disk"]["hits"] == 1
    # ... and the disk hit was promoted into memory.
    assert split_source(OT_SOURCE, config).cached
    assert cache.stats()["split.memory"]["hits"] == 1


@pytest.mark.parametrize(
    "tamper",
    ["truncate", "flip_byte", "stale_version"],
)
def test_damaged_artifact_recompiles_with_recorded_miss(
    tmp_path, monkeypatch, tamper
):
    config = config_abt()
    baseline, artifact = _warm_disk(tmp_path, monkeypatch, config)
    raw = artifact.read_bytes()
    if tamper == "truncate":
        artifact.write_bytes(raw[: len(raw) // 2])
    elif tamper == "flip_byte":
        artifact.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0xFF]))
    else:
        artifact.write_bytes(
            raw.replace(b"repro-split-artifact v", b"repro-split-artifact v0", 1)
        )
    cache.clear()
    result = split_source(OT_SOURCE, config)  # must not raise
    assert not result.cached
    assert observe(result.split) == baseline
    stats = cache.stats()["split.disk"]
    assert stats["hits"] == 0 and stats["misses"] == 1


def test_artifact_under_wrong_config_key_is_rejected(tmp_path, monkeypatch):
    config = config_abt()
    other = config_abt()
    other.set_link_cost("A", "T", 2.5)
    monkeypatch.setenv(cache.ENV_DIR, str(tmp_path))
    split_source(OT_SOURCE, config)
    digest = source_digest(OT_SOURCE)
    right_path = cache.artifact_path(
        cache.split_key(digest, config), str(tmp_path)
    )
    wrong_path = cache.artifact_path(
        cache.split_key(digest, other), str(tmp_path)
    )
    with open(right_path, "rb") as src, open(wrong_path, "wb") as dst:
        dst.write(src.read())
    cache.clear()
    # The copied artifact passes magic and digest checks, but its
    # embedded key names the wrong trust configuration: verified away,
    # recompiled.
    result = split_source(OT_SOURCE, other)
    assert not result.cached
    assert cache.stats()["split.disk"]["misses"] == 1


# ---------------------------------------------------------------------------
# Concurrency: racing writers, atomic publish
# ---------------------------------------------------------------------------


def _race_worker(worker_id):
    state = parallel.state()
    result = split_source(state["source"], state["config"])
    return (worker_id, result.cached, observe(result.split))


@fork_only
def test_forked_workers_race_same_key_without_corruption(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(cache.ENV_DIR, str(tmp_path))
    config = config_abt()
    # The parent does NOT split first: both children miss the inherited
    # (empty) memory tier and race to publish the same artifact.
    results = parallel.fork_map(
        _race_worker,
        [0, 1],
        jobs=2,
        shared={"source": OT_SOURCE, "config": config},
    )
    assert results is not None
    observations = {obs for _, _, obs in map(_freeze_result, results)}
    assert len(observations) == 1
    artifacts = list(tmp_path.glob("*.rsplit"))
    assert len(artifacts) == 1
    assert not list(tmp_path.glob("*.tmp-*"))
    # Whatever writer won, the surviving artifact is valid and serves
    # the same observables.
    cache.clear()
    warm = split_source(OT_SOURCE, config)
    assert warm.cached
    assert _freeze(observe(warm.split)) in observations


def _freeze(observation):
    return (
        tuple(sorted(observation["fields"].items())),
        tuple(sorted(observation["counts"].items())),
        observation["elapsed"],
        tuple(sorted(observation["ics"].items())),
        tuple(observation["trace"]),
        tuple(observation["audits"]),
    )


def _freeze_result(result):
    worker_id, cached, observation = result
    return (worker_id, cached, _freeze(observation))


def test_stale_tmp_litter_is_swept_once_per_process(tmp_path, monkeypatch):
    """Temp files abandoned by a writer that died between open and
    os.replace are reclaimed when the disk tier opens; a fresh temp
    file (a live writer mid-publish) is left alone."""
    import os
    import time

    directory = tmp_path / "artifacts"
    directory.mkdir()
    stale = directory / "deadbeef.rsplit.tmp-12345-0"
    stale.write_bytes(b"half-written artifact")
    old = time.time() - 2 * cache._STALE_TMP_SECONDS
    os.utime(stale, (old, old))
    live = directory / "cafef00d.rsplit.tmp-12345-1"
    live.write_bytes(b"publish in progress")

    monkeypatch.setenv(cache.ENV_DIR, str(directory))
    cache._SWEPT_DIRS.discard(str(directory))
    config = config_abt()
    cache.clear()
    result = split_source(OT_SOURCE, config)  # opens the disk tier
    assert not result.cached
    assert not stale.exists(), "stale temp litter survived the sweep"
    assert live.exists(), "sweep raced a live writer's temp file"
    # One sweep per directory per process: recreating the litter and
    # hitting the tier again must not re-scan.
    stale.write_bytes(b"again")
    os.utime(stale, (old, old))
    assert split_source(OT_SOURCE, config).cached
    assert stale.exists()


def test_artifact_publish_is_atomic_and_durable(tmp_path, monkeypatch):
    """The publish path leaves no temp file behind and the installed
    artifact round-trips — the fsync-then-rename discipline's
    observable half."""
    monkeypatch.setenv(cache.ENV_DIR, str(tmp_path))
    config = config_abt()
    cache.clear()
    split_source(OT_SOURCE, config)
    names = [p.name for p in tmp_path.iterdir()]
    assert any(name.endswith(".rsplit") for name in names)
    assert not any(".tmp-" in name for name in names)
    cache.clear()
    assert split_source(OT_SOURCE, config).cached
