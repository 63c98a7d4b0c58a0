"""The splitter driver: every ``split_program`` call runs the pipeline.

There is no split memo, so no split can reach a host without passing
``validate_split``, and no split is ever read back from disk.  The
Section 8 program hash reads ``Program.source``, so the string and
checked-program entry points must agree on it.
"""

from repro.lang import check_program, parse_program, pretty_program
from repro.runtime import run_split_program
from repro.splitter import partition
from repro.splitter.partition import split_program, split_source
from repro.workloads import ot

from tests.programs import OT_SOURCE, config_abt


def observe(split):
    """Field values, message counts, simulated time and message trace."""
    outcome = run_split_program(split)
    return {
        "fields": {
            key: outcome.field_value(*key) for key in sorted(split.fields)
        },
        "counts": dict(outcome.counts),
        "elapsed": outcome.elapsed,
        "trace": [
            (m.kind, m.src, m.dst) for m in outcome.network.message_log
        ],
    }


def test_old_split_cache_dir_is_neither_written_nor_read(
    tmp_path, monkeypatch
):
    # A disk tier here once served any artifact whose plain SHA-256
    # matched, without validate_split, so a forged artifact with
    # emptied fragments ran OT to wrong values.
    monkeypatch.setenv("REPRO_SPLIT_CACHE_DIR", str(tmp_path))
    for _ in range(2):
        outcome = run_split_program(split_source(OT_SOURCE, config_abt()).split)
        assert outcome.field_value("OTExample", "m1") == 100
        assert outcome.field_value("OTExample", "m2") == 200
        assert outcome.field_value("OTExample", "isAccessed") is True
    assert list(tmp_path.iterdir()) == []


def test_every_split_is_validated(monkeypatch):
    validated = []
    real = partition.validate_split
    monkeypatch.setattr(
        partition, "validate_split",
        lambda split: validated.append(split) or real(split),
    )
    config = config_abt()
    for _ in range(2):
        split_source(OT_SOURCE, config)
    assert len(validated) == 2


def test_mutating_a_hit_cannot_poison_later_hits():
    # The attack/fault tests mutate their splits; two splits of one
    # source must be independent objects.
    config = config_abt()
    baseline = observe(split_source(OT_SOURCE, config).split)
    victim = split_source(OT_SOURCE, config).split
    victim.fragments[victim.main_entry].ops.clear()
    later = split_source(OT_SOURCE, config).split
    assert later is not victim
    assert later.fragments is not victim.fragments
    assert observe(later) == baseline


def test_pipeline_does_not_mutate_cached_ast():
    # The Section 8 hash reads Program.source; neither splitting nor
    # running may write into the AST the caller passed in.
    config = config_abt()
    program = parse_program(OT_SOURCE)
    before = pretty_program(program)
    result = split_program(check_program(program, config.hierarchy), config)
    run_split_program(result.split)
    assert program.source == OT_SOURCE
    assert pretty_program(program) == before


def _split_checked(source, config):
    """Split through the staged path: parse, check, then split."""
    checked = check_program(parse_program(source), config.hierarchy)
    return split_program(checked, config)


def test_checked_path_digest_equals_string_path_digest():
    config = config_abt()
    staged = _split_checked(OT_SOURCE, config)
    fresh = split_source(OT_SOURCE, config)
    assert staged.split.digest == fresh.split.digest


def test_checked_path_digest_covers_program_text():
    # OT with one and two rounds has the same classes but different
    # program text; the hosts' program hash must tell them apart.
    config = ot.config()
    one = _split_checked(ot.source(rounds=1), config)
    two = _split_checked(ot.source(rounds=2), config)
    assert one.split.digest != two.split.digest
