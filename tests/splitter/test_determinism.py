"""Determinism of the optimizer and the parallel sweep drivers.

The splitter is a pure function of (program, trust configuration):
repeated runs must produce identical placements — statement
uids are allocated from a global counter, so statement hosts are
compared by structural (method, walk-order) position rather than uid.

The ``--jobs`` drivers must be invisible: a parallel bench or fault
sweep aggregates per-item results in submission order, so every report
field except wall-clock is identical to a serial run.
"""

import pytest

from repro import parallel
from repro.progen import config as progen_config
from repro.progen import generate_program
from repro.reporting.bench import run_bench
from repro.runtime.executor import run_split_program
from repro.runtime.faultsweep import crash_point_sweep, sweep
from repro.splitter import ir, split_source

from tests.programs import OT_SOURCE, config_abt
from tests.splitter.heuristic import heuristic_split

fork_only = pytest.mark.skipif(
    not parallel.fork_available(),
    reason="no fork start method on this platform",
)


def _placement(result):
    """An (uid-free) structural snapshot of a complete assignment."""
    return (
        sorted(result.assignment.fields.items()),
        {
            mkey: [
                result.assignment.statements[stmt.info.uid]
                for stmt in ir.walk_stmts(method.body)
            ]
            for mkey, method in result.program.methods.items()
        },
    )


@pytest.mark.parametrize(
    "split",
    [heuristic_split, split_source],
    ids=["heuristic", "auto"],
)
def test_assignment_identical_across_repeated_runs(split):
    cases = [
        (generate_program(7), progen_config),
        (OT_SOURCE, config_abt),
    ]
    for source, config_factory in cases:
        snapshots = [
            _placement(split(source, config_factory())) for _ in range(3)
        ]
        assert snapshots[0] == snapshots[1] == snapshots[2]


@fork_only
def test_fault_sweep_identical_across_jobs():
    result = split_source(generate_program(11), progen_config())
    reports = {
        jobs: sweep(result.split, schedules=6, jobs=jobs)
        for jobs in (1, 3)
    }
    serial, forked = reports[1], reports[3]
    assert [
        (o.seed, o.status, o.detail, o.fault_counts)
        for o in serial.schedules
    ] == [
        (o.seed, o.status, o.detail, o.fault_counts)
        for o in forked.schedules
    ]
    assert serial.failures == forked.failures
    assert serial.reference == forked.reference


@fork_only
def test_crash_point_sweep_identical_across_jobs():
    result = split_source(generate_program(11), progen_config())
    reports = {
        jobs: crash_point_sweep(result.split, per_point=1, jobs=jobs)
        for jobs in (1, 3)
    }
    serial, forked = reports[1], reports[3]
    assert [
        (p.host, p.kind, p.occurrence, p.status, p.detail)
        for p in serial.points
    ] == [
        (p.host, p.kind, p.occurrence, p.status, p.detail)
        for p in forked.points
    ]
    assert serial.failures == forked.failures


@fork_only
def test_bench_invariants_identical_across_jobs():
    reports = {
        jobs: run_bench(seeds=4, quiet=True, jobs=jobs)
        for jobs in (1, 2)
    }
    assert reports[1]["invariants"] == reports[2]["invariants"]
    assert (
        reports[1]["progen"]["messages"]
        == reports[2]["progen"]["messages"]
    )
