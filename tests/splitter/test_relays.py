"""Tests for relay insertion: adjacent fragments on mutually untrusting
hosts are bridged through a jointly trusted anchor, keeping the
capability stack discipline intact."""

import pytest

from repro.runtime import Adversary, RuntimeImage, Session, run_split_program
from repro.splitter import SplitError, split_source
from repro.trust import HostDescriptor, TrustConfiguration

#: Buyer statement directly followed by a Supplier statement: the direct
#: transfer is impossible (neither trusts the other), so a Market relay
#: must appear between them.
SOURCE = """
class Deal authority(Buyer, Supplier) {
  int{Buyer:; ?:Buyer} maxPrice = 900;
  int{Supplier:; ?:Supplier} floorPrice = 700;
  boolean{Buyer:; Supplier:} dealStruck;

  void main{?:Buyer, Supplier}() where authority(Buyer, Supplier) {
    int{Buyer:; ?:Buyer} offer = maxPrice;
    int{Supplier:; ?:Supplier} floor = floorPrice;
    dealStruck = endorse(offer, {?:Buyer, Supplier})
        >= endorse(floor, {?:Buyer, Supplier});
  }
}
"""


def config():
    trust = TrustConfiguration(
        [
            HostDescriptor.of("BuyerHost", "{Buyer:}", "{?:Buyer}"),
            HostDescriptor.of("SupplierHost", "{Supplier:}", "{?:Supplier}"),
            HostDescriptor.of(
                "Market", "{Buyer:; Supplier:}", "{?:Buyer, Supplier}"
            ),
        ]
    )
    trust.pin_field("Deal", "maxPrice", "BuyerHost")
    trust.pin_field("Deal", "floorPrice", "SupplierHost")
    return trust


@pytest.fixture(scope="module")
def split():
    return split_source(SOURCE, config()).split


class TestRelayStructure:
    def test_program_splits(self, split):
        assert set(split.hosts_used()) == {
            "BuyerHost", "SupplierHost", "Market",
        }

    def test_relay_fragment_on_market(self, split):
        """There is an empty Market fragment between the two companies'
        code (plus the prologue)."""
        market_relays = [
            f for f in split.fragments_on("Market") if not f.ops
        ]
        assert market_relays

    def test_companies_never_talk_directly(self, split):
        outcome = run_split_program(split)
        for message in outcome.network.message_log:
            assert not (
                message.src == "BuyerHost" and message.dst == "SupplierHost"
            )
            assert not (
                message.src == "SupplierHost" and message.dst == "BuyerHost"
            )

    def test_result_correct(self, split):
        outcome = run_split_program(split)
        assert outcome.field_value("Deal", "dealStruck") is True

    def test_neither_company_can_probe_the_other(self, split):
        session = Session(RuntimeImage.for_split(split))
        session.run()
        supplier = Adversary(session, "SupplierHost")
        assert supplier.try_get_field("Deal", "maxPrice").rejected
        buyer = Adversary(session, "BuyerHost")
        assert buyer.try_get_field("Deal", "floorPrice").rejected

    def test_no_deal_when_floor_exceeds_ceiling(self):
        source = SOURCE.replace("floorPrice = 700", "floorPrice = 1200")
        result = split_source(source, config())
        outcome = run_split_program(result.split)
        assert outcome.field_value("Deal", "dealStruck") is False


class TestNoAnchorAvailable:
    def test_without_market_rejected(self):
        """With only the two mutually untrusting machines there is no
        host to anchor capabilities — the split must fail."""
        trust = TrustConfiguration(
            [
                HostDescriptor.of("BuyerHost", "{Buyer:}", "{?:Buyer}"),
                HostDescriptor.of(
                    "SupplierHost", "{Supplier:}", "{?:Supplier}"
                ),
            ]
        )
        with pytest.raises(SplitError):
            split_source(SOURCE, trust)
