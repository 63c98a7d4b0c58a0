"""The frontend has no memo.

``tokenize``, ``parse_program`` and ``check_program`` run the lexer,
parser and typechecker on every call, and the splitter runs the whole
pipeline on every call too (:mod:`repro.splitter.partition`).
"""

from __future__ import annotations

from typing import Dict


def stats() -> Dict[str, Dict[str, float]]:
    """Always empty; kept because the benchmark harness reads it."""
    return {}
