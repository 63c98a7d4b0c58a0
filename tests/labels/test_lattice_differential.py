"""Differential tests: memoized lattice ops ≡ pristine reference.

The production operations (``repro.labels.labels``) are interned,
memoized, and algebraically fused; ``tests/labels/reference.py``
recomputes everything from set algebra on every call.  These tests hold
the two equal over seeded random labels and hierarchies, and check the
lattice laws the splitter's soundness rests on.
"""

import random

import pytest

from repro.labels import (
    ConfLabel,
    ConfPolicy,
    IntegLabel,
    Label,
    Principal,
    principals,
)
from repro.labels.cache import clear_all
from repro.labels.principals import ActsForHierarchy

from tests.labels import reference

POOL = principals("Alice", "Bob", "Carol", "Dave", "Eve")


def random_principal(rng):
    return POOL[rng.randrange(len(POOL))]


def random_conf(rng):
    roll = rng.random()
    if roll < 0.08:
        return ConfLabel.top()
    if roll < 0.2:
        return ConfLabel.public()
    policies = []
    for _ in range(rng.randrange(1, 4)):
        owner = random_principal(rng)
        readers = [
            random_principal(rng) for _ in range(rng.randrange(0, 3))
        ]
        policies.append(ConfPolicy(owner, readers))
    return ConfLabel(policies)


def random_integ(rng):
    roll = rng.random()
    if roll < 0.08:
        return IntegLabel.bottom()
    if roll < 0.2:
        return IntegLabel.untrusted()
    return IntegLabel(
        [random_principal(rng) for _ in range(rng.randrange(1, 4))]
    )


def random_label(rng):
    return Label(random_conf(rng), random_integ(rng))


def random_hierarchy(rng):
    """Anything from no delegation to a handful of random edges."""
    edges = []
    for _ in range(rng.randrange(0, 5)):
        actor = random_principal(rng)
        target = random_principal(rng)
        if actor is not target:
            edges.append((actor, target))
    return ActsForHierarchy(edges)


def triples(seed, count=120):
    rng = random.Random(seed)
    for _ in range(count):
        yield (
            random_label(rng),
            random_label(rng),
            random_label(rng),
            random_hierarchy(rng),
        )


class TestCachedEqualsReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_flows_to(self, seed):
        for a, b, _, h in triples(seed):
            assert a.flows_to(b, h) == reference.label_flows_to(a, b, h)
            assert a.conf.flows_to(b.conf, h) == reference.conf_flows_to(
                a.conf, b.conf, h
            )
            assert a.integ.flows_to(b.integ, h) == reference.integ_flows_to(
                a.integ, b.integ, h
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_join_meet(self, seed):
        for a, b, _, _h in triples(seed):
            assert a.join(b) == reference.label_join(a, b)
            assert a.meet(b) == reference.label_meet(a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_effective_readers(self, seed):
        rng = random.Random(seed)
        for _ in range(80):
            conf = random_conf(rng)
            h = random_hierarchy(rng)
            universe = frozenset(
                random_principal(rng) for _ in range(rng.randrange(0, 5))
            )
            assert conf.effective_readers(
                universe, h
            ) == reference.conf_effective_readers(conf, universe, h)

    @pytest.mark.parametrize("seed", range(4))
    def test_trusted_by_and_acts_for(self, seed):
        rng = random.Random(seed)
        for _ in range(80):
            integ = random_integ(rng)
            h = random_hierarchy(rng)
            p = random_principal(rng)
            q = random_principal(rng)
            assert integ.trusted_by(p, h) == reference.integ_trusted_by(
                integ, p, h
            )
            assert h.acts_for(p, q) == reference.acts_for(h, p, q)
            assert h.superiors_of(q) == reference.superiors_of(h, q)

    @pytest.mark.parametrize("seed", range(4))
    def test_join_all_meet_all_equal_pairwise_folds(self, seed):
        rng = random.Random(seed)
        from repro.labels import join_all, meet_all

        for _ in range(60):
            labels = [random_label(rng) for _ in range(rng.randrange(0, 6))]
            assert join_all(labels) == reference.join_all(labels)
            assert meet_all(labels) == reference.meet_all(labels)

    def test_cold_caches_agree_with_warm(self):
        """Dropping every memo table must not change any answer."""
        rng = random.Random(99)
        cases = [
            (random_label(rng), random_label(rng), random_hierarchy(rng))
            for _ in range(50)
        ]
        warm = [
            (a.flows_to(b, h), a.join(b), a.meet(b)) for a, b, h in cases
        ]
        clear_all()
        cold = [
            (a.flows_to(b, h), a.join(b), a.meet(b)) for a, b, h in cases
        ]
        assert warm == cold

    def test_hierarchy_mutation_invalidates(self):
        """A memoized ⊑ answer must not survive a new delegation."""
        alice, bob = Principal("Alice"), Principal("Bob")
        h = ActsForHierarchy()
        low = IntegLabel([bob])
        high = IntegLabel([alice])
        # Cache the pre-delegation answer.
        assert low.flows_to(high, h) == reference.integ_flows_to(low, high, h)
        assert not low.flows_to(high, h)
        h.add(bob, alice)  # Bob now acts for Alice.
        assert low.flows_to(high, h)
        assert low.flows_to(high, h) == reference.integ_flows_to(low, high, h)


class TestLatticeLaws:
    @pytest.mark.parametrize("seed", range(6))
    def test_commutativity(self, seed):
        for a, b, _, _h in triples(seed):
            assert a.join(b) == b.join(a)
            assert a.meet(b) == b.meet(a)

    @pytest.mark.parametrize("seed", range(6))
    def test_associativity(self, seed):
        for a, b, c, _h in triples(seed):
            assert a.join(b.join(c)) == a.join(b).join(c)
            assert a.meet(b.meet(c)) == a.meet(b).meet(c)

    @pytest.mark.parametrize("seed", range(6))
    def test_idempotence_and_absorption(self, seed):
        for a, b, _, _h in triples(seed):
            assert a.join(a) == a
            assert a.meet(a) == a
            assert a.join(a.meet(b)) == a
            assert a.meet(a.join(b)) == a

    @pytest.mark.parametrize("seed", range(6))
    def test_join_is_least_upper_bound(self, seed):
        for a, b, _, h in triples(seed):
            j = a.join(b)
            assert a.flows_to(j, h)
            assert b.flows_to(j, h)

    @pytest.mark.parametrize("seed", range(6))
    def test_meet_is_lower_bound(self, seed):
        for a, b, _, h in triples(seed):
            m = a.meet(b)
            assert m.flows_to(a, h)
            assert m.flows_to(b, h)

    @pytest.mark.parametrize("seed", range(6))
    def test_flows_to_monotone_under_join(self, seed):
        """a ⊑ b  ⇒  a ⊔ c ⊑ b ⊔ c — in the hierarchy-free order.

        Like Jif, join is syntactic (policy union / trust
        intersection), which is a least upper bound only relative to
        the empty acts-for hierarchy; a delegation can make two
        disjoint trust sets comparable while their intersection stays
        empty, so the law deliberately is not tested under random
        hierarchies.
        """
        h = ActsForHierarchy()
        for a, b, c, _h in triples(seed):
            if a.flows_to(b, h):
                assert a.join(c).flows_to(b.join(c), h)

    @pytest.mark.parametrize("seed", range(6))
    def test_flows_to_reflexive_transitive(self, seed):
        for a, b, c, h in triples(seed):
            assert a.flows_to(a, h)
            if a.flows_to(b, h) and b.flows_to(c, h):
                assert a.flows_to(c, h)

    def test_extremes(self):
        rng = random.Random(7)
        top = Label(ConfLabel.top(), IntegLabel.untrusted())
        bottom = Label.constant()
        for _ in range(40):
            a = random_label(rng)
            assert bottom.flows_to(a)
            assert a.flows_to(top)
