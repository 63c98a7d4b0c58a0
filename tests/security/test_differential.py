"""Differential test harness: single-host oracle vs distributed executor.

Every random program from the shared seeded generator runs through both
:mod:`repro.runtime.singlehost` and the distributed executor — first on
reliable channels, then under seeded fault schedules.  The contract:

* fault-free, the two executions agree on every field, bit for bit;
* under faults, each schedule either reproduces the oracle's fields
  exactly (with every message-label/assurance check passing and an
  empty audit log) or fails closed with ``DeliveryTimeoutError`` —
  never a wrong answer, never a leak.

All randomness is seed-derived; the assertion messages carry the seeds.
"""

import random

import pytest

from repro.runtime import (
    DeliveryTimeoutError,
    FaultInjector,
    run_single_host,
    run_split_program,
)
from repro.runtime.faultsweep import assurance_problems, random_policy
from repro.splitter import split_source

from repro.progen import P_FIELDS, S_FIELDS, config, generate_program

PROGRAM_SEEDS = list(range(10))
FAULT_SCHEDULES_PER_PROGRAM = 4


def oracle_fields(source):
    oracle = run_single_host(source)
    return {
        field: oracle.fields.get(("R", field, None), 0)
        for field in P_FIELDS + S_FIELDS
    }


@pytest.mark.parametrize("seed", PROGRAM_SEEDS)
def test_fault_free_differential(seed):
    source = generate_program(seed)
    expected = oracle_fields(source)
    split = split_source(source, config()).split
    outcome = run_split_program(split)
    for field, want in expected.items():
        got = outcome.field_value("R", field)
        assert got == want, (
            f"R.{field}={got!r}, oracle {want!r} (seed={seed})\n{source}"
        )


@pytest.mark.parametrize("seed", PROGRAM_SEEDS[:6])
def test_faulted_differential(seed):
    source = generate_program(seed)
    trust = config()
    expected = oracle_fields(source)
    split = split_source(source, trust).split
    completed = timeouts = 0
    for schedule in range(FAULT_SCHEDULES_PER_PROGRAM):
        fault_seed = 1000 * seed + schedule
        faults = FaultInjector(
            random_policy(random.Random(fault_seed)), seed=fault_seed
        )
        try:
            outcome = run_split_program(
                split, faults=faults,
                token_rng=random.Random(fault_seed ^ 0x5EED),
            )
        except DeliveryTimeoutError:
            timeouts += 1  # fail-closed is an acceptable outcome
            continue
        completed += 1
        tag = f"(program seed={seed}, fault seed={fault_seed})"
        for field, want in expected.items():
            got = outcome.field_value("R", field)
            assert got == want, f"R.{field}={got!r}, oracle {want!r} {tag}\n{source}"
        assert assurance_problems(split, outcome) == [], f"{tag}\n{source}"
        assert outcome.audits == [], f"{tag}\n{source}"
        for host in outcome.hosts.values():
            assert host.stack.depth == 0, f"unconsumed capability {tag}"
    assert completed + timeouts == FAULT_SCHEDULES_PER_PROGRAM
    assert completed > 0, f"every schedule timed out for seed={seed}"


@pytest.mark.parametrize("seed", PROGRAM_SEEDS[:3])
def test_faulted_runs_are_seed_reproducible(seed):
    source = generate_program(seed)
    split = split_source(source, config()).split

    def one_run():
        faults = FaultInjector(
            random_policy(random.Random(seed)), seed=seed
        )
        try:
            outcome = run_split_program(
                split, faults=faults, token_rng=random.Random(seed)
            )
        except DeliveryTimeoutError:
            return ("timeout",)
        return (
            dict(outcome.network.fault_counts),
            outcome.counts,
            outcome.elapsed,
        )

    assert one_run() == one_run()
