"""Property-based end-to-end testing on randomly generated programs.

The shared seeded generator (``repro.progen``) produces
label-correct-by-construction mini-Jif programs over a two-level
lattice (P = public, Alice-trusted; S = Alice-secret), with
assignments, arithmetic, nested ifs and bounded loops.  Hypothesis
drives the *seed* only — ``generate_program(seed)`` is deterministic —
so a falsifying example is a single integer that reproduces the exact
failing program; every assertion message carries it too.

For every generated program we assert the pipeline's two central
properties:

* **transparency** — the partitioned execution computes exactly the
  field values of the single-host reference interpreter;
* **security** — no message ever carries data to a host whose
  confidentiality clearance cannot hold it.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import run_single_host, run_split_program
from repro.splitter import split_source

from repro.progen import P_FIELDS, S_FIELDS, config, generate_program

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_split_execution_equals_oracle(seed):
    source = generate_program(seed)
    result = split_source(source, config())
    outcome = run_split_program(result.split)
    oracle = run_single_host(source)
    for cls, field in [("R", f) for f in P_FIELDS + S_FIELDS]:
        assert outcome.field_value(cls, field) == oracle.fields.get(
            (cls, field, None), 0
        ), f"seed={seed}\n{source}"


@given(seeds)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_no_flow_violates_clearance(seed):
    source = generate_program(seed)
    trust = config()
    result = split_source(source, trust)
    for opt_level in (0, 1, 2):
        outcome = run_split_program(result.split, opt_level=opt_level)
        for label, host in outcome.network.flow_log:
            descriptor = trust.host(host)
            assert label.conf.flows_to(descriptor.conf), (
                f"{label} leaked to {host} (seed={seed})\n{source}"
            )
        assert outcome.audits == [], f"seed={seed}\n{source}"


@given(seeds)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_secret_fields_never_placed_off_alice_hosts(seed):
    source = generate_program(seed)
    result = split_source(source, config())
    for (cls, field), placement in result.split.fields.items():
        if field.startswith("fs"):
            assert placement.host in ("A", "T"), f"seed={seed}\n{source}"
