"""Microbenchmarks of the splitter pipeline itself: type checking, host
selection, translation, and the dynamic checks of Figure 6.  These are
not paper numbers; they characterize this implementation."""

import pytest

from repro.lang import check_source
from repro.runtime import FrameID, RuntimeImage, Session
from repro.runtime.network import Message
from repro.splitter import (
    compute_candidates,
    lower_program,
    split_source,
)
from repro.splitter.optimizer import assign_hosts
from repro.workloads import ot, tax


@pytest.fixture(scope="module")
def ot_source():
    return ot.source()


@pytest.fixture(scope="module")
def ot_config():
    return ot.config()


class TestFrontEnd:
    def test_typecheck_ot(self, benchmark, ot_source):
        checked = benchmark(lambda: check_source(ot_source))
        assert checked.method_info("OTBench", "transfer")

    def test_lower_ot(self, benchmark, ot_source):
        checked = check_source(ot_source)
        program = benchmark(lambda: lower_program(checked))
        assert program.main_key == ("OTBench", "main")


class TestSplitterStages:
    def test_candidates(self, benchmark, ot_source, ot_config):
        checked = check_source(ot_source)
        program = lower_program(checked)
        sets = benchmark(
            lambda: compute_candidates(checked, program, ot_config)
        )
        assert sets.fields

    def test_host_assignment(self, benchmark, ot_source, ot_config):
        checked = check_source(ot_source)
        program = lower_program(checked)
        sets = compute_candidates(checked, program, ot_config)
        assignment = benchmark(
            lambda: assign_hosts(checked, program, ot_config, sets)
        )
        assert assignment.fields[("OTBench", "m1")] == "A"

    def test_full_split_ot(self, benchmark, ot_source, ot_config):
        result = benchmark(lambda: split_source(ot_source, ot_config))
        assert result.split.main_entry

    def test_full_split_tax(self, benchmark):
        result = benchmark(lambda: split_source(tax.source(), tax.config()))
        assert result.split.main_entry


class TestDynamicChecks:
    def test_access_control_check_throughput(self, benchmark, ot_source,
                                             ot_config):
        """How fast a host validates (and denies) an illegal getField —
        the per-request cost the paper bounds at 6%."""
        split = split_source(ot_source, ot_config).split
        session = Session(RuntimeImage.for_split(split))
        host_a = session.hosts["A"]
        message = Message(
            "getField",
            "B",
            "A",
            {"cls": "OTBench", "field": "m1", "oid": None,
             "digest": split.digest},
        )
        benchmark(lambda: host_a.handle(message))

    def test_token_mint_and_verify(self, benchmark, ot_source, ot_config):
        split = split_source(ot_source, ot_config).split
        session = Session(RuntimeImage.for_split(split))
        host_a = session.hosts["A"]
        frame = FrameID(("OTBench", "main"))

        def mint_verify():
            token = host_a.factory.mint(frame, "entry")
            return host_a.factory.verify(token)

        assert benchmark(mint_verify)
