#!/usr/bin/env python
"""The Tax scenario (Section 7.1): an automated tax-preparation service.

The client's trading records live at the stockbroker; the bank holds the
account; a preparer computes the taxes on a third machine.  The client
owns every piece of data and uses reader sets to slice visibility:
the broker never sees the account, the bank never sees the trades, and
only the preparer is cleared for everything.  Two ``declassify``
expressions — authorized by the client — release exactly the derived
values each party needs.

Run:  python examples/tax_service.py
"""

from repro import Adversary, RuntimeImage, Session
from repro.splitter import split_source
from repro.workloads import tax


def main() -> None:
    records = 12
    print("Splitting the tax service over Broker / Bank / Prep...")
    result = split_source(tax.source(records), tax.config())
    split = result.split

    print("\nWhere the client's data lives:")
    for placement in split.fields.values():
        readers = ", ".join(sorted(placement.readers))
        print(f"  {placement.cls}.{placement.field}{placement.label}"
              f" on {placement.host}  (readable by: {readers})")

    print("\nPer-host code:")
    for host in split.hosts_used():
        fragments = split.fragments_on(host)
        print(f"  {host}: {len(fragments)} fragments")

    session = Session(RuntimeImage.for_split(split))
    outcome = session.run()
    trades = [3 + i * 5 % 97 for i in range(records)]
    print(f"\ntotal gains:    {outcome.field_value('TaxService', 'totalGains')}"
          f"  (expected {sum(trades)})")
    print(f"tax due:        {outcome.field_value('TaxService', 'taxDue')}")
    print(f"final balance:  "
          f"{outcome.field_value('TaxService', 'finalBalance')}")
    print(f"\nmessage profile: {outcome.counts}")
    print("note the Tax shape: an rgoto pipeline — control never needs a "
          "capability to climb back up, because the client trusts all "
          "three institutions' hosts.")

    # The broker goes rogue: it may see trades, never the bank's slice.
    adversary = Adversary(session, "Broker")
    print("\nBroker's machine misbehaves:")
    print(" ", adversary.try_get_field("TaxService", "account"))
    print(" ", adversary.try_get_field("TaxService", "taxDue"))
    print(" ", adversary.try_get_field("TaxService", "leviesCollected"))
    assert adversary.all_rejected()
    print("the broker is contained: a compromise of its host exposes at "
          "most the client's trading slice — the Section 3.2 assurance.")


if __name__ == "__main__":
    main()
