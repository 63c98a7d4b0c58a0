"""Bench harness plumbing: baseline schema detection and the profiler.

The perf numbers themselves are gated in CI against checked-in
``BENCH_PR*.json`` baselines; these tests pin the harness *mechanics* —
that envelope detection is structural (an envelope missing optional
sections is still an envelope, anything else is rejected), and that
the ``--profile`` attribution is exhaustive and leaves the runtime
unpatched afterwards.
"""

import pytest

from repro.reporting.bench import _reference_run
from repro.reporting.profile import Profiler, profile_execution
from repro.runtime.host import TrustedHost
from repro.runtime.tokens import TokenFactory


def _run_sections():
    """The smallest dict that reads as a bench run."""
    return {
        "workloads": {"OT": {"seconds": {"total": 1.0}}},
        "progen": {"seconds": {"total": 1.0}},
        "progen_seeds": 50,
    }


class TestReferenceRun:
    def test_envelope_is_detected(self, capsys):
        envelope = {
            "baseline": None,
            "current": _run_sections(),
            "jobs": 1,
        }
        assert _reference_run(envelope, "x.json") is envelope["current"]
        assert capsys.readouterr().err == ""

    def test_envelope_missing_optional_sections_does_not_warn(self, capsys):
        # The regression: detection keyed on optional keys used to
        # misread an envelope without a durability/throughput block.
        run = _run_sections()  # no durability, cache, throughput ...
        envelope = {"baseline": None, "current": run}  # no jobs either
        assert _reference_run(envelope, "x.json") is run
        assert capsys.readouterr().err == ""

    def test_flat_report_is_an_error(self, capsys):
        # Run sections at the top level, with no envelope, are rejected
        # rather than read as the reference run.
        with pytest.raises(ValueError, match="not a bench report"):
            _reference_run(_run_sections(), "x.json")
        assert capsys.readouterr().err == ""

    def test_unrecognized_file_is_an_error(self):
        with pytest.raises(ValueError, match="not a bench report"):
            _reference_run({"something": "else"}, "x.json")

    def test_envelope_with_null_current_is_an_error(self):
        # A truncated write must fail loudly, not silently gate against
        # the envelope's top level.
        with pytest.raises(ValueError, match="not a bench report"):
            _reference_run({"baseline": None, "current": None}, "x.json")


class TestProfiler:
    def test_breakdown_is_exhaustive_and_unpatches(self):
        before_handle = TrustedHost.__dict__["handle"]
        before_verify = TokenFactory.__dict__["verify"]
        report = profile_execution(seeds=2, quiet=True)
        # Attribution is exact by construction: exclusive category
        # seconds plus 'other' re-sum to the measured wall clock.
        total = sum(report["seconds"].values()) + report["other_seconds"]
        assert total == pytest.approx(report["wall_seconds"], abs=1e-9)
        assert report["messages"] > 0
        assert report["calls"]["dispatch"] == report["messages"]
        assert report["calls"]["token"] > 0
        assert report["per_message_seconds"] > 0
        # The wrappers are gone: the hot path pays nothing afterwards.
        assert TrustedHost.__dict__["handle"] is before_handle
        assert TokenFactory.__dict__["verify"] is before_verify

    def test_uninstall_restores_on_error(self):
        before = TrustedHost.__dict__["handle"]
        profiler = Profiler(sample=False)
        with pytest.raises(RuntimeError):
            with profiler:
                raise RuntimeError("boom")
        assert TrustedHost.__dict__["handle"] is before

    def test_nested_calls_record_exclusive_time(self):
        # Two nested wrapped calls: the parent's category must not
        # double-count the child's elapsed time.
        profiler = Profiler(sample=False)

        class Victim:
            def outer(self):
                return self.inner()

            def inner(self):
                return 42

        profiler._patch(Victim, "outer", "dispatch")
        profiler._patch(Victim, "inner", "token")
        try:
            assert Victim().outer() == 42
        finally:
            profiler.uninstall()
        assert profiler.calls == {
            "dispatch": 1, "execute": 0, "token": 1,
            "label": 0, "trace": 0, "store": 0,
        }
        assert profiler.seconds["dispatch"] >= 0.0
        assert profiler.seconds["token"] >= 0.0
