"""Differential tests: compiled fragment bodies ≡ the reference interpreter.

``TrustedHost.run_chain`` runs every fragment as compiled closures
(``repro.runtime.compiler``).  The tree-walking interpreter in
``tests/runtime/interpreter.py`` is installed in its place for the oracle
run.  Both must produce bit-identical observable behaviour: message
counts, simulated network time, audits, frame variables, and field
stores.
"""

import pytest

from repro import progen
from repro.runtime import RuntimeImage, Session
from repro.runtime.compiler import compile_split
from repro.splitter import split_source
from repro.workloads import listcompare, medical, ot, tax, work

from tests.programs import OT_SOURCE, SIMPLE_SOURCE, config_abt, single_host_config
from tests.runtime import interpreter


def observables(outcome):
    """Everything a run exposes, in comparable form.

    Object/array ids and frame serials come from process-global
    counters, so two runs of the same program never share raw ids;
    renumber them in order of first appearance (execution order is
    deterministic, so matching runs renumber identically).
    """
    from repro.runtime.values import ArrayRef, ObjectRef

    remap = {}

    def oid_of(raw):
        if raw not in remap:
            remap[raw] = len(remap)
        return remap[raw]

    def norm(value):
        if isinstance(value, ObjectRef):
            return ("obj", value.cls, oid_of(value.oid))
        if isinstance(value, ArrayRef):
            return ("arr", oid_of(value.oid), value.length, value.host)
        return value

    fields = {
        name: {
            (cls, field, None if oid is None else oid_of(oid)): norm(value)
            for (cls, field, oid), value in host.field_store.items()
        }
        for name, host in outcome.hosts.items()
    }
    frames = {
        name: [
            (
                fid.method_key,
                {var: norm(value) for var, value in frame.items()},
            )
            for fid, frame in sorted(
                host.frames.items(), key=lambda kv: kv[0].fid
            )
        ]
        for name, host in outcome.hosts.items()
    }
    return {
        "counts": outcome.counts,
        "elapsed": outcome.elapsed,
        "audits": list(outcome.audits),
        "fields": fields,
        "frames": frames,
    }


def run_both(source, config, monkeypatch):
    """One split, executed compiled and by the reference interpreter."""
    result = split_source(source, config)
    compiled = Session(RuntimeImage.for_split(result.split)).run()
    with monkeypatch.context() as patch:
        interpreter.install(patch)
        interpreted = Session(RuntimeImage.for_split(result.split)).run()
    return observables(compiled), observables(interpreted)


class TestWorkloads:
    @pytest.mark.parametrize(
        "source,config",
        [
            (SIMPLE_SOURCE, single_host_config()),
            (OT_SOURCE, config_abt()),
            (listcompare.source(8), listcompare.config()),
            (ot.source(rounds=2), ot.config()),
            (tax.source(), tax.config()),
            (work.source(rounds=12), work.config()),
            (medical.source(), medical.config()),
        ],
        ids=["simple", "ot-test", "list", "ot", "tax", "work", "medical"],
    )
    def test_workload_identical(self, source, config, monkeypatch):
        compiled, interpreted = run_both(source, config, monkeypatch)
        assert compiled == interpreted


class TestGeneratedPrograms:
    @pytest.mark.parametrize("seed", range(0, 40, 2))
    def test_progen_identical(self, seed, monkeypatch):
        source = progen.generate_program(seed)
        compiled, interpreted = run_both(
            source, progen.config(), monkeypatch
        )
        assert compiled == interpreted

    def test_oracle_run_compiles_nothing(self, monkeypatch):
        """Guard the guard: the interpreted run must not touch the
        compiled-fragment cache, or the differential above compares
        compiled against compiled."""
        result = split_source(OT_SOURCE, config_abt())
        interpreter.install(monkeypatch)
        Session(RuntimeImage.for_split(result.split)).run()
        assert compile_split(result.split) == {}

    def test_production_compiles_every_executed_entry(self, monkeypatch):
        """After one production run the compiled cache holds exactly the
        fragments the reference interpreter executes: run-once
        (straight-line) fragments included, nothing compiled eagerly."""
        executed = set()
        run_terminator = interpreter.run_terminator

        def recording(host, fragment, state):
            executed.add(fragment.entry)
            return run_terminator(host, fragment, state)

        with monkeypatch.context() as patch:
            interpreter.install(patch)
            patch.setattr(interpreter, "run_terminator", recording)
            oracle = split_source(medical.source(), medical.config())
            Session(RuntimeImage.for_split(oracle.split)).run()
        result = split_source(medical.source(), medical.config())
        assert compile_split(result.split) == {}
        Session(RuntimeImage.for_split(result.split)).run()
        assert executed
        assert set(compile_split(result.split)) == executed
