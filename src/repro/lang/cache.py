"""Content-addressed frontend cache: source text → tokens, AST, checked.

The bench sweeps, fault sweeps, crash-point sweeps, and the Table 1
report all rebuild the same workload sources over and over — every
rebuild used to pay the full lex + parse + typecheck cost even though
the source text was byte-identical.  This module memoizes all three
frontend artifacts behind one key, ``sha256(source)``:

* ``tokens`` — the immutable token tuple produced by the lexer;
* ``ast`` — the :class:`~repro.lang.ast.Program` produced by the parser;
* ``checked`` — the :class:`~repro.lang.typecheck.CheckedProgram`,
  additionally keyed by the acts-for hierarchy's ``cache_key`` (a
  process-unique serial plus a mutation counter), so a result computed
  under an older hierarchy state can never be returned for a newer one.

Soundness invariants (see docs/architecture.md, "Frontend cache"):

* cached artifacts are treated as immutable by every consumer — the
  lexer returns tuples, and neither the typechecker nor the splitter
  writes into AST nodes (``tests/lang/test_frontend_cache.py`` pins
  this with a mutation-safety test);
* the AST table holds strong references, so the ``id(program)`` values
  used by the reverse map (and by ``CheckedProgram``'s per-node tables,
  which are keyed by AST node ids) are never recycled.

The cache has no off switch: ``tests/lang/test_frontend_cache.py``
holds every cached artifact equal to a direct ``Lexer`` / ``Parser`` /
``TypeChecker`` run.

Hit/miss counters feed the ``python -m repro bench`` cache report
alongside the label-lattice counters (``labels/cache.py``).  The tables
are populated in the parent process before ``parallel.fork_map`` forks
its workers, so sweep workers inherit a warm cache by memory copy.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple

def digest(source: str) -> str:
    """The content address of ``source``: its SHA-256 hex digest."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class _Table:
    """One memo table with hit/miss counters."""

    __slots__ = ("name", "table", "hits", "misses")

    def __init__(self, name: str) -> None:
        self.name = name
        self.table: Dict = {}
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        self.table.clear()
        self.hits = 0
        self.misses = 0


_TOKENS = _Table("frontend.tokens")
_AST = _Table("frontend.ast")
_CHECKED = _Table("frontend.checked")
_TABLES = (_TOKENS, _AST, _CHECKED)

#: Reverse map ``id(program) -> digest`` for ASTs held in ``_AST``, so
#: ``check_program`` can key its memo even though it receives the AST
#: object rather than the source text.  Safe because ``_AST`` keeps the
#: programs immortal: a live id can never be recycled.
_AST_DIGEST: Dict[int, str] = {}


# -- tokens -------------------------------------------------------------------


def lookup_tokens(key: str) -> Optional[tuple]:
    hit = _TOKENS.table.get(key)
    if hit is not None:
        _TOKENS.hits += 1
        return hit
    _TOKENS.misses += 1
    return None


def store_tokens(key: str, tokens: tuple) -> None:
    _TOKENS.table[key] = tokens


# -- ASTs ---------------------------------------------------------------------


def lookup_ast(key: str):
    hit = _AST.table.get(key)
    if hit is not None:
        _AST.hits += 1
        return hit
    _AST.misses += 1
    return None


def store_ast(key: str, program) -> None:
    _AST.table[key] = program
    _AST_DIGEST[id(program)] = key


def ast_digest(program) -> Optional[str]:
    """The digest under which ``program`` was cached, if any."""
    return _AST_DIGEST.get(id(program))


# -- checked programs ---------------------------------------------------------


def lookup_checked(key: str, hierarchy_key: Tuple[int, int]):
    hit = _CHECKED.table.get((key, hierarchy_key))
    if hit is not None:
        _CHECKED.hits += 1
        return hit
    _CHECKED.misses += 1
    return None


def store_checked(key: str, hierarchy_key: Tuple[int, int], checked) -> None:
    _CHECKED.table[(key, hierarchy_key)] = checked


# -- introspection ------------------------------------------------------------


def stats() -> Dict[str, Dict[str, float]]:
    """Hit/miss counters for the three frontend tables, in the same
    shape as :func:`repro.labels.cache.stats` so the bench report can
    merge them into one cache section."""
    report = {}
    for table in _TABLES:
        total = table.hits + table.misses
        report[table.name] = {
            "hits": table.hits,
            "misses": table.misses,
            "entries": len(table.table),
            "hit_rate": round(table.hits / total, 4) if total else 0.0,
        }
    return report


def reset_stats() -> None:
    """Zero the counters without discarding cached artifacts."""
    for table in _TABLES:
        table.hits = 0
        table.misses = 0


def clear() -> None:
    """Drop every cached artifact (tests and long-lived embedders)."""
    for table in _TABLES:
        table.clear()
    _AST_DIGEST.clear()
