"""The fault-injection network mode and the reliable-delivery runtime.

Covers the transport layer (drop, retry, backoff, duplicate, reorder,
jitter, crash/restart, fail-closed timeout), the receiver-side
idempotency that makes re-delivered requests harmless — in particular
that a re-delivered ``lgoto`` is never accepted twice — and the
bit-identity of the fault-free path with the seed baseline.
"""

import random

import pytest

from repro.runtime import (
    CostModel,
    DeliveryTimeoutError,
    FaultInjector,
    FaultPolicy,
    FrameID,
    Message,
    RetryPolicy,
    RuntimeImage,
    Session,
    SimNetwork,
    TokenFactory,
    run_split_program,
)
from repro.runtime.trace import traced_run
from repro.splitter import split_source
from repro.trust import KeyRegistry
from repro.workloads import ot, tax

from tests.programs import OT_SOURCE, config_abt


class ScriptedInjector(FaultInjector):
    """Drop decisions from a fixed script (then never drop again)."""

    def __init__(self, drops, policy=None):
        super().__init__(policy or FaultPolicy(), seed=0)
        self._drops = list(drops)

    def should_drop(self):
        return self._drops.pop(0) if self._drops else False


def echo_network(faults=None, retry=None, cost_model=None):
    network = SimNetwork(cost_model, faults=faults, retry=retry)
    calls = []

    def handler(message):
        calls.append(message)
        return ("echo", message.payload.get("x"))

    network.register("A", lambda m: ("echo", None))
    network.register("B", handler)
    return network, calls


class TestReliableDelivery:
    def test_drop_then_retry_succeeds(self):
        retry = RetryPolicy(base_timeout=1e-3)
        network, calls = echo_network(
            faults=ScriptedInjector([True]), retry=retry
        )
        result = network.request(Message("getField", "A", "B", {"x": 1}))
        assert result == ("echo", 1)
        assert len(calls) == 1
        # one lost transmission + one full round trip
        assert network.counts["messages"] == 3
        assert network.fault_counts["drop"] == 1
        assert network.fault_counts["retry"] == 1
        # the retransmission timer is on the clock
        assert network.clock == pytest.approx(
            2 * network.cost.one_way_latency + 1e-3 + 1e-3
        ) or network.clock > 2 * network.cost.one_way_latency

    def test_lost_reply_does_not_reexecute_with_dedup(self):
        # The request arrives (handler runs), the reply is lost; the
        # retransmission carries the same msg_id, so a deduplicating
        # receiver would answer from its table.  At the raw network
        # level the handler simply runs again — dedup lives above.
        network, calls = echo_network(faults=ScriptedInjector([False, True]))
        result = network.request(Message("getField", "A", "B", {"x": 2}))
        assert result == ("echo", 2)
        assert len(calls) == 2
        assert calls[0].msg_id == calls[1].msg_id is not None
        assert calls[0].seq == calls[1].seq

    def test_exhausted_retries_fail_closed(self):
        retry = RetryPolicy(base_timeout=1e-4, max_retries=4)
        network, calls = echo_network(
            faults=FaultInjector(FaultPolicy(drop_prob=1.0), seed=1),
            retry=retry,
        )
        with pytest.raises(DeliveryTimeoutError):
            network.request(Message("getField", "A", "B", {"x": 1}))
        assert calls == []
        assert network.fault_counts["retry"] == 4
        assert network.fault_counts["timeout"] == 1

    def test_control_message_timeout_fails_closed(self):
        retry = RetryPolicy(base_timeout=1e-4, max_retries=3)
        network, _ = echo_network(
            faults=FaultInjector(FaultPolicy(drop_prob=1.0), seed=2),
            retry=retry,
        )
        with pytest.raises(DeliveryTimeoutError):
            network.post(Message("rgoto", "A", "B", {"entry": "e1"}))
        assert network.pending_control == 0

    def test_duplicate_delivery_reaches_handler_twice(self):
        network, calls = echo_network(
            faults=FaultInjector(FaultPolicy(duplicate_prob=1.0), seed=3)
        )
        result = network.request(Message("getField", "A", "B", {"x": 5}))
        assert result == ("echo", 5)
        assert len(calls) == 2
        assert network.counts["messages"] == 3  # round trip + extra copy
        assert network.fault_counts["duplicate"] == 1

    def test_duplicate_control_message_enqueued_twice(self):
        network, _ = echo_network(
            faults=FaultInjector(FaultPolicy(duplicate_prob=1.0), seed=4)
        )
        network.post(Message("rgoto", "A", "B", {"entry": "e1"}))
        assert network.pending_control == 2
        first = network.pop_control()
        second = network.pop_control()
        assert first.msg_id == second.msg_id

    def test_reorder_shuffles_control_queue(self):
        network, _ = echo_network(
            faults=FaultInjector(FaultPolicy(reorder_prob=1.0), seed=5)
        )
        for index in range(4):
            network.post(Message("rgoto", "A", "B", {"entry": f"e{index}"}))
        assert network.fault_counts["reorder"] >= 1

    def test_jitter_advances_clock(self):
        model = CostModel(one_way_latency=1e-3)
        network, _ = echo_network(
            faults=FaultInjector(FaultPolicy(jitter_max=5e-3), seed=6),
            cost_model=model,
        )
        network.request(Message("getField", "A", "B", {"x": 1}))
        assert network.clock > 2e-3

    def test_crash_then_restart_recovers(self):
        retry = RetryPolicy(base_timeout=2e-3)
        faults = FaultInjector(
            FaultPolicy(crash_prob=1.0, max_crashes=1, crash_downtime=1e-3),
            seed=7,
        )
        network, calls = echo_network(faults=faults, retry=retry)
        result = network.request(Message("getField", "A", "B", {"x": 9}))
        assert result == ("echo", 9)
        assert len(calls) == 1
        assert network.fault_counts["crash"] == 1
        assert network.fault_counts["restart"] == 1
        kinds = [event[0] for event in network.fault_events]
        assert kinds.index("crash") < kinds.index("restart")

    def test_messages_to_down_host_are_dropped(self):
        faults = FaultInjector(FaultPolicy(), seed=8)
        network, calls = echo_network(
            faults=faults, retry=RetryPolicy(base_timeout=1e-3)
        )
        faults.down_until["B"] = 2.5e-3  # down until past the first retry
        result = network.request(Message("getField", "A", "B", {"x": 1}))
        assert result == ("echo", 1)
        assert network.fault_counts["drop"] >= 1
        assert network.fault_counts["restart"] == 1

    def test_stamping_is_per_channel(self):
        network, _ = echo_network(faults=FaultInjector(FaultPolicy(), seed=9))
        m1 = Message("getField", "A", "B", {"x": 1})
        m2 = Message("getField", "A", "B", {"x": 2})
        network.request(m1)
        network.request(m2)
        assert (m1.seq, m2.seq) == (1, 2)
        assert m1.msg_id != m2.msg_id

    def test_fault_free_messages_are_unstamped(self):
        network, _ = echo_network()
        message = Message("getField", "A", "B", {"x": 1})
        network.request(message)
        assert message.msg_id is None
        assert network.fault_events == []


class TestIdempotentHosts:
    def _session(self, **kwargs):
        result = split_source(OT_SOURCE, config_abt())
        return result.split, Session(RuntimeImage.for_split(result.split), **kwargs)

    def _find_remote_entry(self, split):
        """(server_host, client_host, entry) with client in the ACL."""
        for fragment in split.fragments.values():
            for invoker in split.entry_invokers(fragment.entry):
                if invoker != fragment.host:
                    return fragment.host, invoker, fragment.entry
        raise AssertionError("no remotely invokable entry in the split")

    def test_retransmitted_sync_mints_once(self):
        split, session = self._session()
        server, client, entry = self._find_remote_entry(split)
        host = session.hosts[server]
        frame = FrameID(split.fragments[entry].method_key)
        message = Message(
            "sync", client, server,
            {"entry": entry, "frame": frame, "token": None,
             "digest": split.digest},
            msg_id=1001,
        )
        depth_before = host.stack.depth
        token_first = host.handle(message)
        token_again = host.handle(message)  # retransmission, same msg_id
        assert token_first is token_again
        assert host.stack.depth == depth_before + 1  # one push, not two
        # A *new* request (fresh msg_id) is a genuine second sync.
        fresh = Message(
            "sync", client, server,
            {"entry": entry, "frame": frame, "token": token_first,
             "digest": split.digest},
            msg_id=1002,
        )
        token_new = host.handle(fresh)
        assert token_new is not token_first
        assert host.stack.depth == depth_before + 2

    def test_duplicated_lgoto_not_accepted_twice(self):
        """A re-delivered lgoto must consume its capability only once."""
        split, session = self._session()
        server, client, entry = self._find_remote_entry(split)
        host = session.hosts[server]
        frame = FrameID(split.fragments[entry].method_key)
        sync = Message(
            "sync", client, server,
            {"entry": entry, "frame": frame, "token": None,
             "digest": split.digest},
            msg_id=2001,
        )
        token = host.handle(sync)
        assert host.stack.depth == 1
        # Consume it once via a remote lgoto carrying an idempotency key.
        # (The root of this little stack is None, so a successful pop
        # raises HaltSignal — exactly like consuming t0.)
        from repro.runtime import HaltSignal

        lgoto = Message(
            "lgoto", client, server,
            {"token": token, "vars": {}, "digest": split.digest},
            msg_id=2002,
        )
        with pytest.raises(HaltSignal):
            host.handle(lgoto)
        assert host.stack.depth == 0
        audits_after_first = list(session.network.audit_log)
        # Replay the very same message (same msg_id): the halting pop
        # was never cached, so it falls through to the Figure 6 checks —
        # the one-shot discipline rejects it; the stack stays popped.
        host.handle(lgoto)
        assert host.stack.depth == 0
        assert any(
            "stale/replayed" in entry_
            for entry_ in session.network.audit_log[len(audits_after_first):]
        )
        # And a replay under a fresh msg_id is rejected the same way.
        replay = Message(
            "lgoto", client, server,
            {"token": token, "vars": {}, "digest": split.digest},
            msg_id=2003,
        )
        host.handle(replay)
        assert host.stack.depth == 0

    def test_duplicated_nonroot_lgoto_suppressed_by_msg_id(self):
        """With a cached (non-halting) result, the duplicate is a no-op."""
        split, session = self._session()
        server, client, entry = self._find_remote_entry(split)
        host = session.hosts[server]
        frame = FrameID(split.fragments[entry].method_key)
        # Two syncs: the second token's saved "previous" is the first,
        # so consuming the second does NOT halt and the result is cached.
        t1 = host.handle(Message(
            "sync", client, server,
            {"entry": entry, "frame": frame, "token": None,
             "digest": split.digest},
            msg_id=3001,
        ))
        t2 = host.handle(Message(
            "sync", client, server,
            {"entry": entry, "frame": frame, "token": t1,
             "digest": split.digest},
            msg_id=3002,
        ))
        assert host.stack.depth == 2
        lgoto = Message(
            "lgoto", client, server,
            {"token": t2, "vars": {}, "digest": split.digest},
            msg_id=3003,
        )
        host.handle(lgoto)
        depth_after = host.stack.depth
        audits_after = list(session.network.audit_log)
        host.handle(lgoto)  # duplicate: answered from the idempotency table
        assert host.stack.depth == depth_after
        assert session.network.audit_log == audits_after

    def test_full_run_with_every_message_duplicated(self):
        result = split_source(OT_SOURCE, config_abt())
        reference = run_split_program(result.split)
        faults = FaultInjector(FaultPolicy(duplicate_prob=1.0), seed=11)
        outcome = run_split_program(result.split, faults=faults)
        assert outcome.audits == []
        for key in result.split.fields:
            assert outcome.field_value(*key) == reference.field_value(*key)
        for host in outcome.hosts.values():
            assert host.stack.depth == 0  # every capability used once
        assert outcome.network.fault_counts["duplicate"] > 0


class TestTraceEvents:
    def test_fault_kinds_in_timeline(self):
        result = split_source(OT_SOURCE, config_abt())
        faults = FaultInjector(
            FaultPolicy(drop_prob=0.3, duplicate_prob=0.2,
                        crash_prob=0.05, max_crashes=2,
                        crash_downtime=1e-3),
            seed=13,
        )
        outcome, tracer = traced_run(result.split, faults=faults)
        kinds = set(tracer.kinds())
        assert "drop" in kinds
        assert "retry" in kinds
        drops = tracer.of_kind("drop")
        assert all(event.detail for event in drops)
        # the timeline interleaves messages and fault events
        assert "rgoto" in kinds and "lgoto" in kinds

    def test_crash_restart_traced(self):
        retry = RetryPolicy(base_timeout=2e-3)
        faults = FaultInjector(
            FaultPolicy(crash_prob=1.0, max_crashes=1, crash_downtime=1e-3),
            seed=17,
        )
        network = SimNetwork(faults=faults, retry=retry)
        events = []
        network.on_event(lambda kind, src, dst, detail: events.append(kind))
        network.register("A", lambda m: None)
        network.register("B", lambda m: "pong")
        assert network.request(Message("sync", "A", "B", {})) == "pong"
        assert events.count("crash") == 1
        assert events.count("restart") == 1


class TestTokenDeterminism:
    def test_seeded_factories_mint_reproducible_nonces(self):
        frame = FrameID(("C", "m"))
        f1 = TokenFactory("T", KeyRegistry(), rng=random.Random(42))
        f2 = TokenFactory("T", KeyRegistry(), rng=random.Random(42))
        t1 = f1.mint(frame, "e1")
        t2 = f2.mint(frame, "e1")
        assert t1.nonce == t2.nonce

    def test_unseeded_factories_stay_random(self):
        frame = FrameID(("C", "m"))
        factory = TokenFactory("T", KeyRegistry())
        assert factory.mint(frame, "e1").nonce != factory.mint(frame, "e1").nonce


class TestFaultFreeBaseline:
    """With faults disabled, Table 1 must be bit-identical to the seed."""

    def test_ot_counts_and_time_unperturbed(self):
        result = ot.run()
        assert result.counts == {
            "forward": 101, "getField": 0, "setField": 0, "sync": 100,
            "lgoto": 101, "rgoto": 401, "total_messages": 904,
            "eliminated": 301,
        }
        assert result.elapsed == pytest.approx(0.315205, abs=1e-6)
        assert result.execution.network.fault_events == []

    def test_tax_counts_and_time_unperturbed(self):
        result = tax.run()
        assert result.counts == {
            "forward": 0, "getField": 101, "setField": 0, "sync": 0,
            "lgoto": 1, "rgoto": 201, "total_messages": 404,
            "eliminated": 100,
        }
        assert result.elapsed == pytest.approx(0.132002, abs=1e-6)
        assert result.execution.network.fault_events == []
