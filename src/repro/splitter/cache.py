"""The splitter has no memo.

Every :func:`~repro.splitter.partition.split_program` call runs the
whole pipeline and validates the result.
"""

from __future__ import annotations

from typing import Dict


def stats() -> Dict[str, Dict[str, float]]:
    """Always empty; kept because the benchmark harness reads it."""
    return {}
