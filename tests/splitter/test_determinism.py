"""Determinism of the optimizer.

The splitter is a pure function of (program, trust configuration):
repeated runs must produce identical placements — statement
uids are allocated from a global counter, so statement hosts are
compared by structural (method, walk-order) position rather than uid.
"""

import pytest

from repro.progen import config as progen_config
from repro.progen import generate_program
from repro.splitter import ir, split_source

from tests.programs import OT_SOURCE, config_abt
from tests.splitter.heuristic import heuristic_split


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
