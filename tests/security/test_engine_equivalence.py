"""Property test: placement never changes what a program *computes* —
only where it runs.

For seeded random programs under seeded random trust configurations
(preferences and link costs perturbed around progen's A/B/T setup),
both the production split (exact min-cut where it applies, else the
chain-DP heuristic) and the heuristic-only oracle split must

* produce a split the validator accepts (the pipeline runs
  ``validate_split`` as its last stage, so success *is* acceptance), and
* execute to exactly the single-host oracle's field values.

The two may legitimately disagree on placement (equal-cost optima), so
message counts are *not* compared — observable results are.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.progen import generate_program
from repro.runtime import run_single_host, run_split_program
from repro.splitter import split_source
from repro.trust import HostDescriptor, TrustConfiguration

from tests.splitter.heuristic import heuristic_split

SPLITTERS = {"heuristic": heuristic_split, "production": split_source}

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_trust_config(seed: int) -> TrustConfiguration:
    """Progen's A/B/T hosts with seeded random preferences and link
    costs — enough variation to exercise both placement paths (cheap links
    flip reduce_hosts' domination test, preferences move fields)."""
    rng = random.Random(seed ^ 0xC0FFEE)
    config = TrustConfiguration(
        [
            HostDescriptor.of("A", "{Alice:}", "{?:Alice}"),
            HostDescriptor.of("B", "{Bob:}", "{?:Bob}"),
            HostDescriptor.of("T", "{Alice:; Bob:}", "{?:Alice}"),
        ]
    )
    if rng.random() < 0.5:
        config.set_preference(
            "Alice", "A", rng.choice([0.25, 0.5, 0.75])
        )
    if rng.random() < 0.5:
        config.set_preference("Bob", "B", rng.choice([0.5, 0.75]))
    for pair in (("A", "B"), ("A", "T"), ("B", "T")):
        if rng.random() < 0.5:
            config.set_link_cost(*pair, rng.choice([1.0, 2.0, 3.0]))
    return config


@given(seeds)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_engines_agree_with_oracle_and_each_other(seed):
    source = generate_program(seed)
    oracle = run_single_host(source)
    results = {}
    for name, split in SPLITTERS.items():
        result = split(source, random_trust_config(seed))
        outcome = run_split_program(result.split)
        results[name] = {
            key: outcome.field_value(*key) for key in result.split.fields
        }
        for (cls, field), value in results[name].items():
            expected = oracle.fields.get((cls, field, None), 0)
            assert value == expected, (
                f"seed={seed} split={name}: {cls}.{field} = {value!r}, "
                f"oracle {expected!r}\n{source}"
            )
    assert results["heuristic"] == results["production"], (
        f"seed={seed}: placements disagree on observable results\n{source}"
    )
