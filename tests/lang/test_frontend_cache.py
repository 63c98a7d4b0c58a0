"""Correctness of the content-addressed frontend cache (lang/cache.py).

Pins the cache contract the tentpole relies on:

* a repeated parse of byte-identical source returns the *same* token
  tuple / AST / checked-program objects (hit = identity);
* cached artifacts are bit-identical to a direct ``Lexer`` / ``Parser``
  / ``TypeChecker`` run on the same source;
* cached ASTs survive a full split + execute pipeline unmutated, so
  sharing them across runs is safe;
* typecheck results are keyed by the acts-for hierarchy's version
  stamp, so mutating the hierarchy can never serve a stale result.
"""

import pytest

from repro import progen
from repro.labels import ActsForHierarchy, Principal
from repro.lang import cache as frontend_cache
from repro.lang import check_program, parse_program, pretty_program, tokenize
from repro.lang.lexer import Lexer
from repro.lang.parser import Parser
from repro.lang.typecheck import TypeChecker
from repro.runtime import run_split_program
from repro.splitter import split_source
from repro.trust import TrustConfiguration

from tests.programs import OT_SOURCE, config_abt

SOURCE = progen.generate_program(4242)


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts and ends with an empty frontend cache so object
    identity assertions cannot leak across tests."""
    frontend_cache.clear()
    yield
    frontend_cache.clear()


def _snapshot(tokens, program, checked):
    """Cache-independent observables of the frontend's output."""
    return (
        [(t.kind, t.text, t.pos.line, t.pos.column) for t in tokens],
        pretty_program(program),
        sorted(
            (key, repr(info.label), repr(info.loc_label), info.init_value)
            for key, info in checked.fields.items()
        ),
        sorted((key, repr(label)) for key, label in checked.var_labels.items()),
        sorted(checked.var_types.items()),
        # Per-node tables are keyed by AST node ids, which differ between
        # two parses; compare their contents as multisets.
        sorted(map(repr, checked.expr_labels.values())),
        sorted(map(repr, checked.stmt_pc.values())),
    )


class TestCacheHits:
    def test_token_tuple_identity_on_hit(self):
        first = tokenize(SOURCE)
        second = tokenize(SOURCE)
        assert first is second
        assert isinstance(first, tuple)

    def test_ast_identity_on_hit(self):
        assert parse_program(SOURCE) is parse_program(SOURCE)

    def test_checked_identity_on_hit_same_hierarchy(self):
        config = progen.config()
        program = parse_program(SOURCE)
        first = check_program(program, config.hierarchy)
        second = check_program(program, config.hierarchy)
        assert first is second

    def test_stats_count_hits_and_misses(self):
        frontend_cache.reset_stats()
        parse_program(SOURCE)
        parse_program(SOURCE)
        stats = frontend_cache.stats()
        assert stats["frontend.ast"]["misses"] == 1
        assert stats["frontend.ast"]["hits"] == 1
        assert stats["frontend.ast"]["entries"] == 1

    def test_distinct_sources_do_not_collide(self):
        other = progen.generate_program(4243)
        assert parse_program(SOURCE) is not parse_program(other)
        assert frontend_cache.digest(SOURCE) != frontend_cache.digest(other)


class TestEscapeHatch:
    def test_disabled_cache_output_bit_identical(self):
        hierarchy = progen.config().hierarchy
        program = parse_program(SOURCE)
        cached = _snapshot(
            tokenize(SOURCE), program, check_program(program, hierarchy)
        )
        reference = Parser(SOURCE).parse_program()
        direct = _snapshot(
            Lexer(SOURCE).scan(),
            reference,
            TypeChecker(reference, hierarchy).check(),
        )
        assert cached == direct


class TestMutationSafety:
    def test_pipeline_does_not_mutate_cached_ast(self):
        program = parse_program(OT_SOURCE)
        before = pretty_program(program)
        result = split_source(OT_SOURCE, config_abt())
        run_split_program(result.split)
        assert parse_program(OT_SOURCE) is program
        assert pretty_program(program) == before

    def test_shared_checked_program_gives_identical_runs(self):
        def observables():
            result = split_source(OT_SOURCE, config_abt())
            outcome = run_split_program(result.split)
            return (
                sorted(
                    (key, placement.host)
                    for key, placement in result.split.fields.items()
                ),
                outcome.counts,
                round(outcome.elapsed, 9),
            )

        # The second call hits the token/AST caches (the checked result
        # is keyed per hierarchy instance, and config_abt() builds a
        # fresh one); a third call with a reused config also shares the
        # CheckedProgram.  All runs must be bit-identical.
        first = observables()
        second = observables()
        assert first == second
        config = config_abt()
        results = [split_source(OT_SOURCE, config) for _ in range(2)]
        assert results[0].checked is results[1].checked


class TestHierarchyKeying:
    def test_hierarchy_mutation_invalidates(self):
        hierarchy = ActsForHierarchy()
        program = parse_program(SOURCE)
        first = check_program(program, hierarchy)
        assert check_program(program, hierarchy) is first
        hierarchy.add(Principal("Alice"), Principal("Bob"))
        second = check_program(program, hierarchy)
        assert first is not second

    def test_distinct_hierarchy_instances_do_not_share(self):
        program = parse_program(SOURCE)
        first = check_program(program, ActsForHierarchy())
        second = check_program(program, ActsForHierarchy())
        assert first is not second

    def test_default_hierarchy_is_shared_instance(self):
        # TrustConfiguration defaults to the EMPTY_HIERARCHY singleton,
        # so two default configs legitimately share one checked result.
        program = parse_program(SOURCE)
        first = check_program(program, progen.config().hierarchy)
        second = check_program(program, progen.config().hierarchy)
        assert first is second
