"""Tests for running a split as one session: lifecycle, determinism,
and its failure modes."""

import pytest

from repro.runtime import (
    RuntimeImage,
    Session,
    SimNetwork,
    TrustedHost,
    run_split_program,
)
from repro.splitter import split_source
from repro.trust import KeyRegistry

from tests.programs import OT_SOURCE, SIMPLE_SOURCE, config_abt, single_host_config


class TestLifecycle:
    def test_run_returns_result(self):
        result = split_source(SIMPLE_SOURCE, single_host_config())
        outcome = Session(RuntimeImage.for_split(result.split)).run()
        assert outcome.field_value("Simple", "total") == 285

    def test_two_executors_are_independent(self):
        result = split_source(OT_SOURCE, config_abt())
        first = Session(RuntimeImage.for_split(result.split)).run()
        second = Session(RuntimeImage.for_split(result.split)).run()
        assert first.counts == second.counts
        assert first.main_var("r") == second.main_var("r") == 100

    def test_deterministic_message_profile(self):
        result = split_source(OT_SOURCE, config_abt())
        profiles = [
            run_split_program(result.split).counts for _ in range(3)
        ]
        assert profiles[0] == profiles[1] == profiles[2]

    def test_split_is_deterministic(self):
        a = split_source(OT_SOURCE, config_abt())
        b = split_source(OT_SOURCE, config_abt())
        assert set(a.split.fragments) == set(b.split.fragments)
        assert {
            k: p.host for k, p in a.split.fields.items()
        } == {k: p.host for k, p in b.split.fields.items()}

    def test_root_capability_on_main_host(self):
        result = split_source(OT_SOURCE, config_abt())
        session = Session(RuntimeImage.for_split(result.split))
        outcome = session.run()
        # After a complete run every local stack is empty again: all
        # capabilities were consumed (the global ICS is balanced).
        for host in session.hosts.values():
            assert host.stack.depth == 0

    def test_result_accessors(self):
        result = split_source(OT_SOURCE, config_abt())
        outcome = run_split_program(result.split)
        assert outcome.elapsed > 0
        assert outcome.counts["total_messages"] > 0
        assert outcome.audits == []
        with pytest.raises(KeyError):
            outcome.field_value("OTExample", "nothing")
        assert outcome.field_value("OTExample", "nothing", default=7) == 7
        with pytest.raises(KeyError):
            outcome.main_var("no_such_var")
        assert outcome.main_var("no_such_var", default=None) is None

    def test_frames_are_distributed(self):
        result = split_source(OT_SOURCE, config_abt())
        session = Session(RuntimeImage.for_split(result.split))
        session.run()
        hosts_with_frames = [
            name
            for name, host in session.hosts.items()
            if host.frames
        ]
        assert len(hosts_with_frames) >= 2

    def test_host_is_built_only_from_an_image(self):
        """A host's entry tables, ACLs, field defaults and forward checks
        come from the shared image; there is no standalone build."""
        result = split_source(OT_SOURCE, config_abt())
        with pytest.raises(TypeError):
            TrustedHost("A", result.split, SimNetwork(), KeyRegistry())


class TestFailureModes:
    def test_stall_detected(self):
        """If no control message is pending and the program has not
        halted, the session reports a stall instead of hanging."""
        from repro.splitter import TermJump

        result = split_source(OT_SOURCE, config_abt())
        session = Session(RuntimeImage.for_split(result.split))
        # Sabotage: empty the main entry's plan so control goes nowhere.
        main_fragment = result.split.fragments[result.split.main_entry]
        saved = main_fragment.terminator
        try:
            main_fragment.terminator = TermJump([])
            with pytest.raises(Exception):
                session.run()
        finally:
            main_fragment.terminator = saved

    def test_divide_by_zero_surfaces(self):
        source = """
        class Z {
          int{?:Alice} out;
          void main{?:Alice}() {
            int{?:Alice} zero = 0;
            out = 1 / zero;
          }
        }
        """
        result = split_source(source, single_host_config())
        with pytest.raises(ZeroDivisionError):
            run_split_program(result.split)

    def test_step_budget_bounds_infinite_loops(self):
        source = """
        class Loop {
          void main{?:Alice}() {
            boolean{?:Alice} t = true;
            while (t) { t = true; }
          }
        }
        """
        result = split_source(source, single_host_config())
        session = Session(RuntimeImage.for_split(result.split))
        # Single-host infinite loop never yields control messages; bound
        # the run externally.
        host = session.hosts["H"]
        original = host.network.charge_ops
        calls = {"n": 0}

        def counting(n):
            calls["n"] += 1
            if calls["n"] > 100000:
                raise RuntimeError("runaway loop detected by test")
            return original(n)

        host.network.charge_ops = counting
        with pytest.raises(RuntimeError):
            session.run()
