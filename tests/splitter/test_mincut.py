"""The exact min-cut placement engine (Section 6, exact path).

Three layers are pinned here:

* the :class:`PlacementModel` objective is *the same function* the
  heuristic optimizer minimises (term-for-term parity with
  ``Optimizer._total_cost``), so the two engines compete on one cost;
* ``solve_two_host`` is exact — verified by brute force over random
  small instances, and differentially against the heuristic over the
  progen corpus (the cut may never cost more);
* progen's A/B/T configuration reduces to a two-host instance, so
  production placement takes the exact path there.
"""

import itertools
import random

import pytest

from repro.progen import config as progen_config
from repro.progen import generate_program
from repro.splitter import split_source
from repro.splitter.mincut import (
    PlacementModel,
    reduce_hosts,
    solve_two_host,
)
from repro.splitter.optimizer import Optimizer

from tests.programs import (
    OT_SOURCE,
    PINGPONG_SOURCE,
    SIMPLE_SOURCE,
    config_abt,
)
from tests.splitter.heuristic import heuristic_split


def _build_model(result, config):
    return PlacementModel.build(
        result.checked, result.program, config, result.candidates
    )


# -- cost-model parity -------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [OT_SOURCE, PINGPONG_SOURCE, SIMPLE_SOURCE],
    ids=["ot", "pingpong", "simple"],
)
def test_model_cost_matches_optimizer_total_cost(source):
    config = config_abt()
    result = heuristic_split(source, config)
    model = _build_model(result, config)
    optimizer = Optimizer(
        result.checked, result.program, config, result.candidates
    )
    optimizer.assignment = result.assignment
    assert model.cost(
        model.assignment_hosts(result.assignment)
    ) == pytest.approx(optimizer._total_cost())


def test_model_cost_parity_over_progen_corpus():
    for seed in range(10):
        config = progen_config()
        result = heuristic_split(generate_program(seed), config)
        model = _build_model(result, config)
        optimizer = Optimizer(
            result.checked, result.program, config, result.candidates
        )
        optimizer.assignment = result.assignment
        assert model.cost(
            model.assignment_hosts(result.assignment)
        ) == pytest.approx(optimizer._total_cost()), f"seed={seed}"


# -- differential oracle: exact never costs more ----------------------------


def test_exact_engine_never_costs_more_than_heuristic():
    for seed in range(25):
        source = generate_program(seed)
        heuristic = heuristic_split(source, progen_config())
        exact = split_source(source, progen_config())
        # Each run's uids are fresh, so each cost is evaluated against
        # the model built from that run's own artifacts; the two models
        # describe the same program, so the costs are comparable.
        model_h = _build_model(heuristic, progen_config())
        cost_h = model_h.cost(
            model_h.assignment_hosts(heuristic.assignment)
        )
        model_e = _build_model(exact, progen_config())
        cost_e = model_e.cost(model_e.assignment_hosts(exact.assignment))
        assert cost_e <= cost_h + 1e-6, (
            f"seed={seed}: exact {cost_e} > heuristic {cost_h}"
        )


# -- exactness by brute force ------------------------------------------------


def _random_two_host_model(rng: random.Random, free_nodes: int):
    """A synthetic two-host instance with random weights; a few nodes
    are forced to stress the terminal (fixed-neighbor) capacities."""
    model = PlacementModel(progen_config())
    hosts = ("A", "B")
    model.link = {
        ("A", "A"): 0.0,
        ("B", "B"): 0.0,
        ("A", "B"): rng.choice([1.0, 2.0]),
        ("B", "A"): rng.choice([1.0, 2.0]),
    }
    # Undirected cost: the model's cut construction assumes symmetry.
    model.link["B", "A"] = model.link["A", "B"]
    total = free_nodes + 2
    for index in range(total):
        model.node_keys.append(("stmt", index))
        if index >= free_nodes:
            host = hosts[index - free_nodes]
            model.candidates.append((host,))
            model.forced[index] = host
            model.unary.append({})
        else:
            model.candidates.append(hosts)
            if rng.random() < 0.4:
                model.unary.append(
                    {h: rng.uniform(0.0, 5.0) for h in hosts}
                )
            else:
                model.unary.append({})
    for a in range(total):
        for b in range(a + 1, total):
            if rng.random() < 0.5:
                if a in model.forced and b in model.forced:
                    continue
                model.edges.append((a, b, rng.uniform(0.5, 4.0)))
    return model


def _brute_force_cost(model) -> float:
    free = [
        i for i in range(len(model.node_keys)) if i not in model.forced
    ]
    base = [model.forced.get(i, "") for i in range(len(model.node_keys))]
    best = None
    for combo in itertools.product(("A", "B"), repeat=len(free)):
        hosts = list(base)
        for node, host in zip(free, combo):
            hosts[node] = host
        cost = model.cost(hosts)
        if best is None or cost < best:
            best = cost
    return best


def test_two_host_cut_is_exact_by_brute_force():
    rng = random.Random(0xC07)
    for trial in range(40):
        model = _random_two_host_model(rng, free_nodes=8)
        hosts = solve_two_host(model, ["A", "B"])
        assert model.cost(hosts) == pytest.approx(
            _brute_force_cost(model)
        ), f"trial={trial}"


# -- the exact path applies to progen --------------------------------------


def test_progen_config_reduces_to_two_hosts():
    config = progen_config()
    result = split_source(generate_program(0), config)
    model = _build_model(result, config)
    union = reduce_hosts(model)
    assert len(union) <= 2, (
        "A/B/T progen instances must reduce (B is dominated), or the "
        f"benchmark sweep loses the exact path; got {union}"
    )
