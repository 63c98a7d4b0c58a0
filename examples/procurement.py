#!/usr/bin/env python
"""Business-to-business procurement — the paper's introduction motivates
secure partitioning with exactly this: "an automated business-to-business
procurement system, in which profitable negotiation by the buyer and
supplier depends on keeping some data confidential."

The buyer's maximum price and the supplier's floor price are each
company-secret; a jointly (confidentiality-)trusted market host compares
them and only the *outcome* — deal or no deal, and the agreed midpoint
price when there is one — is declassified to both parties.

Run:  python examples/procurement.py
"""

from repro import Adversary, RuntimeImage, Session, split_source
from repro.trust import HostDescriptor, TrustConfiguration

SOURCE = """
class Procurement authority(Buyer, Supplier) {
  int{Buyer:; ?:Buyer} maxPrice = 900;
  int{Supplier:; ?:Supplier} floorPrice = 700;
  boolean{Buyer:; Supplier:} dealStruck;
  int{Buyer:; Supplier:} agreedPrice;

  void main{?:Buyer, Supplier}() where authority(Buyer, Supplier) {
    int{Buyer:; ?:Buyer} offer = maxPrice;
    int{Supplier:; ?:Supplier} floor = floorPrice;
    boolean deal = endorse(offer, {?:Buyer, Supplier})
        >= endorse(floor, {?:Buyer, Supplier});
    dealStruck = deal;
    if (deal) {
      agreedPrice = (offer + floor) / 2;
    }
    else {
      agreedPrice = 0;
    }
  }
}
"""


def hosts() -> TrustConfiguration:
    config = TrustConfiguration(
        [
            # Each company's own machine: its secrets, its integrity.
            HostDescriptor.of("BuyerHost", "{Buyer:}", "{?:Buyer}"),
            HostDescriptor.of("SupplierHost", "{Supplier:}", "{?:Supplier}"),
            # The market: both trust it with their data AND (unlike the
            # OT scenario's T) both trust its integrity — it is the
            # escrow everyone agreed on.
            HostDescriptor.of(
                "Market", "{Buyer:; Supplier:}", "{?:Buyer, Supplier}"
            ),
        ]
    )
    # Each company keeps its books on its own machine; only the values
    # needed for the comparison travel to the market.
    config.pin_field("Procurement", "maxPrice", "BuyerHost")
    config.pin_field("Procurement", "floorPrice", "SupplierHost")
    return config


def main() -> None:
    config = hosts()
    result = split_source(SOURCE, config)
    split = result.split

    print("Placement:")
    for placement in split.fields.values():
        print(f"  {placement.cls}.{placement.field}{placement.label} "
              f"-> {placement.host}")

    session = Session(RuntimeImage.for_split(split))
    outcome = session.run()
    print(f"\ndeal struck:  "
          f"{outcome.field_value('Procurement', 'dealStruck')}")
    print(f"agreed price: "
          f"{outcome.field_value('Procurement', 'agreedPrice')}"
          f"  (midpoint of 900 and 700)")
    print(f"messages: {outcome.counts['total_messages']}")

    print("\nThe supplier's machine fishes for the buyer's ceiling:")
    adversary = Adversary(session, "SupplierHost")
    print(" ", adversary.try_get_field("Procurement", "maxPrice"))
    print("\nThe buyer's machine fishes for the supplier's floor:")
    buyer = Adversary(session, "BuyerHost")
    print(" ", buyer.try_get_field("Procurement", "floorPrice"))
    assert adversary.all_rejected() and buyer.all_rejected()
    print("\nneither side learns the other's numbers — only the deal.")


if __name__ == "__main__":
    main()
