"""Pristine, uncached reference implementations of the lattice ops.

The production operations in :mod:`repro.labels.labels` and
:mod:`repro.labels.principals` are memoized (keyed by interned-object
identity and the hierarchy version stamp) and algebraically
restructured (:func:`~repro.labels.labels.join_all` and
:func:`~repro.labels.labels.meet_all` accumulate in a single pass).
This module recomputes every operation from first-principles set
algebra on every call — no memo tables, no identity shortcuts, no
single-pass fusion — so the differential tests in
``test_lattice_differential.py`` can hold the optimized operations
equal to the definitions.

These functions still *return* interned labels (construction is how the
model builds labels at all); what they never do is consult or populate
an operation cache.  Keep it this way: this module is the oracle, and an
oracle that shares the caches it is checking proves nothing.
"""

from __future__ import annotations

from functools import reduce
from typing import FrozenSet, Iterable, List

from repro.labels.labels import ConfLabel, ConfPolicy, IntegLabel, Label
from repro.labels.principals import ActsForHierarchy, Principal

# ----------------------------------------------------------------------
# Acts-for (reflexive transitive closure, recomputed per query)
# ----------------------------------------------------------------------


def acts_for(
    hierarchy: ActsForHierarchy, actor: Principal, target: Principal
) -> bool:
    """Uncached reachability over the delegation edges."""
    if actor == target:
        return True
    seen = {target}
    frontier = [target]
    while frontier:
        current = frontier.pop()
        for superior, inferior in hierarchy:
            if inferior == current and superior not in seen:
                if superior == actor:
                    return True
                seen.add(superior)
                frontier.append(superior)
    return False


def superiors_of(
    hierarchy: ActsForHierarchy, target: Principal
) -> FrozenSet[Principal]:
    """All principals acting for ``target`` (including itself), uncached."""
    result = {target}
    frontier = [target]
    while frontier:
        current = frontier.pop()
        for superior, inferior in hierarchy:
            if inferior == current and superior not in result:
                result.add(superior)
                frontier.append(superior)
    return frozenset(result)


# ----------------------------------------------------------------------
# Confidentiality
# ----------------------------------------------------------------------


def policy_effective_readers(
    policy: ConfPolicy, hierarchy: ActsForHierarchy
) -> FrozenSet[Principal]:
    base = policy.readers | {policy.owner}
    closed = set(base)
    for reader in base:
        closed |= superiors_of(hierarchy, reader)
    return frozenset(closed)


def policy_covers(
    mine: ConfPolicy, other: ConfPolicy, hierarchy: ActsForHierarchy
) -> bool:
    if not acts_for(hierarchy, mine.owner, other.owner):
        return False
    return policy_effective_readers(mine, hierarchy) <= policy_effective_readers(
        other, hierarchy
    )


def conf_flows_to(
    left: ConfLabel, right: ConfLabel, hierarchy: ActsForHierarchy
) -> bool:
    if right.is_top:
        return True
    if left.is_top:
        return False
    return all(
        any(policy_covers(theirs, mine, hierarchy) for theirs in right.policies)
        for mine in left.policies
    )


def conf_join(left: ConfLabel, right: ConfLabel) -> ConfLabel:
    if left.is_top or right.is_top:
        return ConfLabel.top()
    return ConfLabel(tuple(left.policies) + tuple(right.policies))


def conf_meet(left: ConfLabel, right: ConfLabel) -> ConfLabel:
    if left.is_top:
        return right
    if right.is_top:
        return left
    mine = {p.owner: p.readers for p in left.policies}
    theirs = {p.owner: p.readers for p in right.policies}
    shared = set(mine) & set(theirs)
    return ConfLabel(ConfPolicy(o, mine[o] | theirs[o]) for o in sorted(shared))


def conf_effective_readers(
    label: ConfLabel,
    universe: Iterable[Principal],
    hierarchy: ActsForHierarchy,
) -> FrozenSet[Principal]:
    if label.is_top:
        return frozenset()
    allowed = frozenset(universe)
    for policy in label.policies:
        allowed &= policy_effective_readers(policy, hierarchy)
    return allowed


# ----------------------------------------------------------------------
# Integrity
# ----------------------------------------------------------------------


def integ_trusted_by(
    label: IntegLabel, principal: Principal, hierarchy: ActsForHierarchy
) -> bool:
    if label.is_bottom:
        return True
    return any(
        acts_for(hierarchy, witness, principal) for witness in label.trust
    )


def integ_flows_to(
    left: IntegLabel, right: IntegLabel, hierarchy: ActsForHierarchy
) -> bool:
    if left.is_bottom:
        return True
    if right.is_bottom:
        return False
    return all(
        integ_trusted_by(left, principal, hierarchy)
        for principal in right.trust
    )


def integ_join(left: IntegLabel, right: IntegLabel) -> IntegLabel:
    if left.is_bottom:
        return right
    if right.is_bottom:
        return left
    return IntegLabel(left.trust & right.trust)


def integ_meet(left: IntegLabel, right: IntegLabel) -> IntegLabel:
    if left.is_bottom or right.is_bottom:
        return IntegLabel.bottom()
    return IntegLabel(left.trust | right.trust)


# ----------------------------------------------------------------------
# Full labels
# ----------------------------------------------------------------------


def label_flows_to(
    left: Label, right: Label, hierarchy: ActsForHierarchy
) -> bool:
    return conf_flows_to(left.conf, right.conf, hierarchy) and integ_flows_to(
        left.integ, right.integ, hierarchy
    )


def label_join(left: Label, right: Label) -> Label:
    return Label(
        conf_join(left.conf, right.conf), integ_join(left.integ, right.integ)
    )


def label_meet(left: Label, right: Label) -> Label:
    return Label(
        conf_meet(left.conf, right.conf), integ_meet(left.integ, right.integ)
    )


def join_all(labels: Iterable[Label]) -> Label:
    """Pairwise fold, the definition the single-pass version must match."""
    items: List[Label] = list(labels)
    if not items:
        return Label.constant()
    return reduce(label_join, items)


def meet_all(labels: Iterable[Label]) -> Label:
    """Pairwise fold with the ⊤ identity, dual to :func:`join_all`."""
    items: List[Label] = list(labels)
    if not items:
        return Label(ConfLabel.top(), IntegLabel.untrusted())
    return reduce(label_meet, items)
