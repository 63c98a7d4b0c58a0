"""Integration tests for the acts-for extension (Section 10: Jif's
``actsfor`` "presents no technical difficulties, and could readily be
included").  Delegation edges change what flows, placements and dynamic
checks are legal — uniformly, because every label comparison threads the
configured hierarchy."""

import pytest

from repro.labels import ActsForHierarchy, Principal, principals
from repro.lang import SecurityError, check_source
from repro.runtime import RuntimeImage, Session, run_split_program
from repro.splitter import SplitError, split_source
from repro.trust import (
    DelegationDeclaration,
    HostDescriptor,
    KeyRegistry,
    TrustConfiguration,
    TrustError,
    hierarchy_from_declarations,
)

MANAGER, EMPLOYEE = principals("Manager", "Employee")

#: Employee-owned data, manager needs to read it via delegation.
SOURCE = """
class Review {
  int{Employee:; ?:Employee} selfScore = 7;
  int{Manager:} finalScore;

  void main{?:Manager}() {
    int{Manager:} seen = selfScore;
    finalScore = seen + 1;
  }
}
"""


def delegating_hierarchy():
    return ActsForHierarchy([(MANAGER, EMPLOYEE)])


def hosts(hierarchy=None):
    return TrustConfiguration(
        [
            HostDescriptor.of("M", "{Manager:}", "{?:Manager}"),
            HostDescriptor.of("E", "{Employee:}", "{?:Employee}"),
        ],
        hierarchy=hierarchy,
    )


class TestCheckerWithDelegation:
    def test_flow_rejected_without_delegation(self):
        # {Employee:} data flowing into a {Manager:}-readable variable
        # drops Employee's policy — illegal without delegation.
        with pytest.raises(SecurityError):
            check_source(SOURCE)

    def test_flow_allowed_with_delegation(self):
        check_source(SOURCE, delegating_hierarchy())

    def test_integrity_delegation(self):
        # Manager's trust can witness Employee's requirement when the
        # manager acts for the employee.
        source = """
        class C {
          int{?:Employee} t;
          void main{?:Manager}() { t = 1; }
        }
        """
        with pytest.raises(SecurityError):
            check_source(source)
        check_source(source, delegating_hierarchy())


class TestSplitterWithDelegation:
    def test_split_and_run_with_delegation(self):
        hierarchy = delegating_hierarchy()
        config = hosts(hierarchy)
        result = split_source(SOURCE, config)
        outcome = run_split_program(result.split)
        assert outcome.field_value("Review", "finalScore") == 8

    def test_placement_uses_delegation(self):
        """With Manager ≽ Employee, M's machine may hold Employee data."""
        hierarchy = delegating_hierarchy()
        config = hosts(hierarchy)
        result = split_source(SOURCE, config)
        placement = result.split.fields[("Review", "selfScore")]
        # Employee-owned field is now also M-holdable; readers include M.
        assert "M" in placement.readers

    def test_without_delegation_placement_restricted(self):
        source = """
        class C {
          int{Employee:; ?:Employee} d = 1;
          void main{?:Employee}() { d = 2; }
        }
        """
        config = hosts()
        result = split_source(source, config)
        placement = result.split.fields[("C", "d")]
        assert "M" not in placement.readers

    def test_dynamic_acl_honors_delegation(self):
        hierarchy = delegating_hierarchy()
        config = hosts(hierarchy)
        result = split_source(SOURCE, config)
        session = Session(RuntimeImage.for_split(result.split))
        session.run()
        from repro.runtime import Adversary

        adversary = Adversary(session, "E")
        # E may still read Employee-owned data...
        report = adversary.try_get_field("Review", "selfScore")
        assert not report.rejected
        # ...but not Manager-owned results (delegation is one-way).
        assert adversary.try_get_field("Review", "finalScore").rejected

    def test_digest_covers_hierarchy(self):
        with_delegation = hosts(delegating_hierarchy())
        without = hosts()
        assert with_delegation.digest("p") != without.digest("p")


class TestSignedDelegations:
    def test_hierarchy_from_signed_declarations(self):
        registry = KeyRegistry()
        registry.register("Employee")
        decl = DelegationDeclaration(MANAGER, EMPLOYEE).sign(registry)
        hierarchy = hierarchy_from_declarations([decl], registry)
        assert hierarchy.acts_for(MANAGER, EMPLOYEE)
        assert not hierarchy.acts_for(EMPLOYEE, MANAGER)

    def test_forged_delegation_rejected(self):
        registry = KeyRegistry()
        registry.register("Employee")
        decl = DelegationDeclaration(MANAGER, EMPLOYEE)
        decl.signature = b"\x00" * 32
        with pytest.raises(TrustError):
            hierarchy_from_declarations([decl], registry)

    def test_only_inferior_can_grant(self):
        """The manager cannot sign itself into power: the signature must
        verify under the *inferior's* key."""
        registry = KeyRegistry()
        registry.register("Employee")
        registry.register("Manager")
        decl = DelegationDeclaration(MANAGER, EMPLOYEE)
        decl.signature = registry.sign("Manager", decl.message())
        with pytest.raises(TrustError):
            hierarchy_from_declarations([decl], registry)
