"""Tests for the RMI layer used by the hand-coded baselines."""

import pytest

from repro.runtime import CostModel, FaultInjector, FaultPolicy
from repro.runtime.network import Message
from repro.runtime.rmi import RMISystem


@pytest.fixture
def system():
    sys_ = RMISystem()
    counter = {"n": 0}

    def bump(by):
        counter["n"] += by
        return counter["n"]

    server = sys_.host("S")
    server.expose("bump", bump)
    server.expose("get", lambda: counter["n"])
    sys_.host("C")
    return sys_


class TestRMI:
    def test_call_returns_value(self, system):
        assert system.call("C", "S", "bump", 5) == 5
        assert system.call("C", "S", "get") == 5

    def test_each_call_costs_two_messages(self, system):
        system.call("C", "S", "bump", 1)
        system.call("C", "S", "get")
        assert system.total_messages == 4

    def test_local_call_is_free(self, system):
        system.call("S", "S", "bump", 1)
        assert system.total_messages == 0

    def test_clock_advances(self, system):
        before = system.elapsed
        system.call("C", "S", "bump", 1)
        assert system.elapsed > before

    def test_cost_model_respected(self):
        sys_ = RMISystem(CostModel(one_way_latency=1e-3))
        sys_.host("S").expose("ping", lambda: True)
        sys_.host("C")
        sys_.call("C", "S", "ping")
        assert sys_.elapsed >= 2e-3

    def test_method_decorator(self):
        sys_ = RMISystem()
        server = sys_.host("S")

        @server.method
        def hello(name):
            return f"hi {name}"

        sys_.host("C")
        assert sys_.call("C", "S", "hello", "x") == "hi x"

    def test_unknown_method_raises(self, system):
        with pytest.raises(KeyError):
            system.call("C", "S", "nothing")

    def test_remote_calls_charge_checks(self, system):
        system.call("C", "S", "get")
        assert system.network.check_time > 0

    def test_result_table_is_keyed_by_caller(self):
        """A cached result goes back only to the caller that asked: the
        same msg_id from another caller runs the method."""
        system = RMISystem(faults=FaultInjector(FaultPolicy(), seed=0))
        calls = []
        server = system.host("S")
        server.expose("bump", lambda: calls.append(1) or len(calls))
        system.host("C")
        system.host("D")

        def call(src):
            return system.network.request(
                Message("rmi", src, "S", {"method": "bump", "args": ()},
                        msg_id=5)
            )

        assert call("C") == 1
        assert call("C") == 1  # retransmission: answered from the table
        assert call("D") == 2
        assert len(calls) == 2
