"""The content address of a program's source text.

There is no frontend memo: ``tokenize``, ``parse_program`` and
``check_program`` run the lexer, parser and typechecker on every call.
The whole pipeline is memoized one level up, in the split cache
(:mod:`repro.splitter.cache`), which keys on :func:`digest` of the text
the parsed :class:`~repro.lang.ast.Program` carries in its ``source``
slot.  The same digest is the Section 8 program hash every split
embeds.
"""

from __future__ import annotations

import hashlib
from typing import Dict


def digest(source: str) -> str:
    """The content address of ``source``: its SHA-256 hex digest."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def stats() -> Dict[str, Dict[str, float]]:
    """Always empty; kept because the benchmark harness reads it."""
    return {}
