#!/usr/bin/env python
"""Quickstart: write a security-typed program, split it across mutually
untrusted hosts, run it, and watch a bad host get stonewalled.

Run:  python examples/quickstart.py
"""

from repro import (
    Adversary,
    HostDescriptor,
    RuntimeImage,
    Session,
    TrustConfiguration,
    split_source,
)

# A tiny two-principal program.  Alice owns a salary figure; Bob's
# machine computes a public bonus factor; Alice endorses Bob's number
# and keeps the result to herself.
SOURCE = """
class Payroll authority(Alice) {
  int{Alice:; ?:Alice} salary = 120000;
  int{?:Bob} bonusFactor = 3;
  int{Alice:; ?:Alice} adjusted;

  void main{?:Alice}() where authority(Alice) {
    int factor = bonusFactor;
    adjusted = salary + salary / 100 * endorse(factor, {?:Alice});
  }
}
"""


def main() -> None:
    # 1. Describe the hosts and who trusts them (Section 3.1).
    #    C_h bounds the confidentiality a host may see; I_h says whose
    #    integrity it carries.
    config = TrustConfiguration(
        [
            HostDescriptor.of("A", "{Alice:}", "{?:Alice}"),
            HostDescriptor.of("B", "{Bob:}", "{?:Bob}"),
        ]
    )

    # 2. Type-check and partition the program (Sections 4 and 6).
    result = split_source(SOURCE, config)
    split = result.split
    print("Field placement:")
    for placement in split.fields.values():
        print(f"  {placement.cls}.{placement.field}{placement.label}"
              f" -> host {placement.host}")
    print("\nFragments:")
    for fragment in split.fragments.values():
        print(f"  {fragment.entry}  (I_e = {{{fragment.integ}}})")

    # 3. Execute it over the simulated distributed runtime (Section 5).
    session = Session(RuntimeImage.for_split(split))
    outcome = session.run()
    print(f"\nadjusted = {outcome.field_value('Payroll', 'adjusted')}")
    print(f"messages exchanged: {outcome.counts['total_messages']}"
          f" (profile: {outcome.counts})")

    # 4. Let Bob's machine turn evil (Section 3.2's threat model).
    adversary = Adversary(session, "B")
    print("\nBob's machine attacks:")
    print(" ", adversary.try_get_field("Payroll", "salary"))
    print(" ", adversary.try_set_field("Payroll", "adjusted", 0))
    print(" ", adversary.try_forged_lgoto(split.main_entry))
    assert adversary.all_rejected()
    print("every attack rejected; Alice's policy held:",
          outcome.field_value("Payroll", "adjusted"))


if __name__ == "__main__":
    main()
