"""The TCP backend end to end: real host processes, oracle equality.

``run_split_over_tcp`` forks one OS process per trusted host, connects
them over 127.0.0.1 sockets with length-prefixed framed messages, and
runs the split program for real.  The acceptance bar is bit-identical
observables — Table 1 message counts, the simulated cost-model clock,
ICS depths — against a solo in-process :class:`Session` over the same
split, for every Table 1 workload.
"""

import socket

import pytest

from repro.runtime.session import RuntimeImage, Session
from repro.runtime.transport.tcp import (
    MAX_FRAME,
    _LEN,
    recv_frame,
    run_split_over_tcp,
    send_frame,
)
from repro.splitter import split_source
from repro.workloads import listcompare, medical, ot, tax, work

from tests.programs import SIMPLE_SOURCE, single_host_config


def _oracle(split):
    session = Session(RuntimeImage.for_split(split))
    session.run()
    return session.observables()


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


class TestFraming:
    def _pipe(self):
        a, b = socket.socketpair()
        return a, b

    def test_roundtrip(self):
        a, b = self._pipe()
        frame = {"t": "req", "m": {"kind": "sync", "n": [1, 2, 3]}}
        send_frame(a, frame)
        assert recv_frame(b) == frame
        a.close(), b.close()

    def test_frames_preserve_boundaries_when_coalesced(self):
        a, b = self._pipe()
        for n in range(5):
            send_frame(a, {"n": n})
        got = [recv_frame(b) for _ in range(5)]
        assert got == [{"n": n} for n in range(5)]
        a.close(), b.close()

    def test_oversized_frame_rejected(self):
        a, b = self._pipe()
        a.sendall(_LEN.pack(MAX_FRAME + 1))
        with pytest.raises(ConnectionError, match="exceeds"):
            recv_frame(b)
        a.close(), b.close()

    def test_truncated_stream_raises_connection_error(self):
        a, b = self._pipe()
        a.sendall(_LEN.pack(100) + b"short")
        a.close()
        with pytest.raises(ConnectionError):
            recv_frame(b)
        b.close()


# ---------------------------------------------------------------------------
# whole programs over real processes
# ---------------------------------------------------------------------------


WORKLOADS = [
    ("work", work),
    ("tax", tax),
    ("medical", medical),
    ("ot", ot),
    ("list", listcompare),
]


class TestTcpOracleEquality:
    @pytest.mark.parametrize("name,module", WORKLOADS)
    def test_observables_bit_identical_to_sim(self, name, module):
        split = split_source(module.source(), module.config()).split
        expected = _oracle(split)
        result = run_split_over_tcp(split)
        assert result.observables() == expected, name

    def test_field_values_match_sim(self):
        split = split_source(tax.source(), tax.config()).split
        session = Session(RuntimeImage.for_split(split))
        outcome = session.run()
        result = run_split_over_tcp(split)
        for (cls, field) in split.fields:
            assert result.field_value(cls, field) == outcome.field_value(
                cls, field
            ), (cls, field)

    def test_audit_trail_survives_the_wire(self):
        split = split_source(medical.source(), medical.config()).split
        session = Session(RuntimeImage.for_split(split))
        outcome = session.run()
        result = run_split_over_tcp(split)
        # The sim logs audits globally in occurrence order; the TCP
        # result concatenates per-host reports — compare as multisets.
        # (Fault-free runs audit nothing; equality must still hold.)
        assert sorted(result.audits) == sorted(outcome.audits)


class TestHostProcessFailure:
    def test_failing_host_reports_one_structured_error_line(
        self, monkeypatch, capfd
    ):
        """A forked host that raises prints one line in the CLI error
        contract to stderr, not a traceback."""
        from repro.runtime.transport import tcp

        def broken_child_main(index, name, *args):
            raise ValueError("boom")

        monkeypatch.setattr(tcp, "_child_main", broken_child_main)
        split = split_source(SIMPLE_SOURCE, single_host_config()).split
        with pytest.raises(OSError):
            run_split_over_tcp(split, timeout=2.0)
        err = capfd.readouterr().err
        assert "Traceback" not in err
        lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert lines == [
            'error: {"error": "internal", "detail": "H: ValueError: boom"}'
        ]
