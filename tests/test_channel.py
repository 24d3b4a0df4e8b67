import json
import math
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hselab.channel as ch
from hselab.errors import CodecError, HandshakeError, ProtocolError, SessionError
from hselab.protocol import run_trial
from hselab.rates import ProtocolConfig
from hselab.hilbert import StateVector

WIRE_FIELDS = {
    "type", "trial_id", "slot", "amps", "a", "sifted",
    "c", "d", "basis_set_id", "protocol_version", "reason", "letters",
}


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture(scope="module")
def cfg23(sixstate):
    return ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=None)


class RecordingTransport:
    """Wraps a transport and keeps every line that passes through."""

    def __init__(self, inner):
        self.inner = inner
        self.sent = []
        self.received = []

    def send_line(self, line):
        self.sent.append(line)
        self.inner.send_line(line)

    def recv_line(self):
        line = self.inner.recv_line()
        if line is not None:
            self.received.append(line)
        return line

    def close(self):
        self.inner.close()


class TestCodec:
    @pytest.mark.parametrize(
        "msg",
        [
            ch.Hello(protocol_version=1, c=3, d=2, basis_set_id="sixstate"),
            ch.QuantumState(trial_id=4, slot=1, amps=((1 / math.sqrt(2), 0.0), (0.0, -1 / math.sqrt(2)))),
            ch.IndexAnnounce(trial_id=9, a=(0, 1)),
            ch.SiftReport(trial_id=9, sifted=True),
            ch.KeyCompare(trial_id_range=(0, 12), letters=(2, 0, 1)),
            ch.Bye(reason="done"),
        ],
    )
    def test_round_trip(self, msg):
        assert ch.decode(ch.encode(msg)) == msg

    def test_bye_wire_form(self):
        line = ch.encode(ch.Bye(reason="done"))
        obj = json.loads(line)
        assert obj == {"type": "bye", "reason": "done"}
        assert line.endswith(b"\n")

    def test_amplitudes_survive_bit_exactly(self):
        state = StateVector([1 / math.sqrt(2), 1 / math.sqrt(2)])
        msg = ch.quantum_state_message(3, 0, state)
        back = ch.state_from_message(ch.decode(ch.encode(msg)))
        assert back.amps.tolist() == state.amps.tolist()

    def test_field_names_are_the_documented_ones(self):
        msgs = [
            ch.Hello(1, 3, 2, "x"),
            ch.QuantumState(0, 0, ((1.0, 0.0), (0.0, 0.0))),
            ch.IndexAnnounce(0, (0, 1)),
            ch.SiftReport(0, False),
            ch.KeyCompare((0, 1), (0,)),
            ch.Bye("r"),
        ]
        for msg in msgs:
            assert set(json.loads(ch.encode(msg))) <= WIRE_FIELDS

    @pytest.mark.parametrize(
        "line",
        [
            b"",
            b"{",
            b'{"type": "warp"}',
            b"[1,2,3]",
            b'{"no_type": 1}',
            b'{"type": "sift_report", "trial_id": -1, "sifted": true}',
            b'{"type": "sift_report", "trial_id": 0, "sifted": 1}',
            b'{"type": "quantum_state", "trial_id": 0, "slot": 0, "amps": [[0.9, 0.0], [0.0, 0.0]]}',
            b'{"type": "quantum_state", "trial_id": 0, "slot": 0, "amps": [[1.0]]}',
            b'{"type": "index_announce", "trial_id": 0, "a": []}',
            b'{"type": "index_announce", "trial_id": 0, "a": [0.5]}',
            b'{"type": "hello", "protocol_version": 1, "c": 3, "d": 2}',
            b'{"type": "key_compare", "trial_id": 0, "letters": []}',
            b'\xff\xfe garbage',
        ],
    )
    def test_malformed_lines_raise_codec_error(self, line):
        with pytest.raises(CodecError):
            ch.decode(line)

    def test_truncated_line(self):
        whole = ch.encode(ch.IndexAnnounce(trial_id=3, a=(0, 1)))
        with pytest.raises(CodecError):
            ch.decode(whole[: len(whole) // 2])

    @given(st.binary(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_decode_total_over_arbitrary_bytes(self, blob):
        try:
            ch.decode(blob)
        except CodecError:
            pass

    @given(
        st.dictionaries(
            st.sampled_from(sorted(WIRE_FIELDS)),
            st.one_of(st.integers(), st.text(max_size=5), st.booleans(), st.none()),
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_decode_total_over_json_objects(self, obj):
        try:
            ch.decode(json.dumps(obj).encode())
        except CodecError:
            pass

    def test_line_number_reported(self):
        with pytest.raises(CodecError) as err:
            ch.decode(b"nope", line_no=17)
        assert err.value.line_no == 17


def run_pair(cfg, n_trials, seed, basis_set_id="sixstate", compare=True, record=False):
    """Run alice and bob over an in-process pair; returns (alice log, outcomes,
    recording transports if requested)."""
    alice_t, bob_t = ch.memory_transport_pair()
    if record:
        alice_t, bob_t = RecordingTransport(alice_t), RecordingTransport(bob_t)
    result = {}

    def alice():
        result["log"] = ch.run_session(
            "alice", alice_t, cfg, n_trials, seed, basis_set_id, compare=compare
        )

    worker = threading.Thread(target=alice)
    worker.start()
    outcomes = ch.run_session("bob", bob_t, cfg, n_trials, seed, basis_set_id, compare=compare)
    worker.join()
    return result["log"], outcomes, (alice_t, bob_t)


class TestInProcessSession:
    def test_outcomes_match_per_trial_runner(self, cfg23):
        log, outcomes, _ = run_pair(cfg23, 250, seed=42)
        assert outcomes == [run_trial(cfg23, t, 42) for t in range(250)]
        assert log.letters == tuple(o.x for o in outcomes)
        assert log.key == tuple(o.x for o in outcomes if o.sifted)

    def test_message_order_per_trial(self, cfg23):
        _, _, (alice_t, _) = run_pair(cfg23, 5, seed=1, record=True)
        kinds = [json.loads(line)["type"] for line in alice_t.sent]
        per_trial = ["quantum_state"] * 2 + ["index_announce"]
        expected = ["hello"] + per_trial * 5 + ["key_compare", "bye"]
        assert kinds == expected

    def test_no_basis_identity_on_the_wire(self, cfg23):
        _, outcomes, (alice_t, _) = run_pair(cfg23, 40, seed=7, record=True)
        for line in alice_t.sent:
            obj = json.loads(line)
            assert "x" not in obj and "basis" not in obj
            if obj["type"] != "key_compare":
                assert "letters" not in obj

    def test_without_comparison_letters_stay_private(self, cfg23):
        log, outcomes, (alice_t, _) = run_pair(cfg23, 40, seed=7, compare=False, record=True)
        assert all(json.loads(line)["type"] != "key_compare" for line in alice_t.sent)
        assert all(o.x == -1 for o in outcomes)
        # the sift verdicts still match the omniscient runner
        reference = [run_trial(cfg23, t, 7) for t in range(40)]
        assert [o.sifted for o in outcomes] == [r.sifted for r in reference]
        assert log.key == tuple(r.x for r in reference if r.sifted)

    def test_handshake_version_check(self, cfg23):
        alice_t, bob_t = ch.memory_transport_pair()
        alice_t.send_line(ch.encode(ch.Hello(2, 3, 2, "sixstate")))
        with pytest.raises(HandshakeError):
            ch.run_session("bob", bob_t, cfg23, 1, 1, "sixstate")

    def test_handshake_dimension_check(self, cfg23, qutrit4):
        cfg34 = ProtocolConfig(c=4, d=3, basis_set=qutrit4)
        alice_t, bob_t = ch.memory_transport_pair()
        errors = {}

        def alice():
            try:
                ch.run_session("alice", alice_t, cfg34, 1, 1, "qutrit4")
            except (HandshakeError, SessionError) as exc:
                errors["alice"] = exc

        worker = threading.Thread(target=alice)
        worker.start()
        with pytest.raises(HandshakeError):
            ch.run_session("bob", bob_t, cfg23, 1, 1, "sixstate")
        bob_t.close()
        worker.join()
        assert "alice" in errors

    def test_out_of_order_trial_rejected(self, cfg23, sixstate):
        alice_t, bob_t = ch.memory_transport_pair()
        alice_t.send_line(ch.encode(ch.Hello(1, 3, 2, "sixstate")))
        state = sixstate.bases[0].vectors[0]
        alice_t.send_line(ch.encode(ch.quantum_state_message(1, 0, state)))
        with pytest.raises(ProtocolError):
            ch.run_session("bob", bob_t, cfg23, 2, 1, "sixstate")

    def test_malformed_announcement_rejected(self, cfg23, sixstate):
        alice_t, bob_t = ch.memory_transport_pair()
        alice_t.send_line(ch.encode(ch.Hello(1, 3, 2, "sixstate")))
        state = sixstate.bases[0].vectors[0]
        alice_t.send_line(ch.encode(ch.quantum_state_message(0, 0, state)))
        alice_t.send_line(ch.encode(ch.quantum_state_message(0, 1, state)))
        alice_t.send_line(ch.encode(ch.IndexAnnounce(0, (0, 1, 1))))
        with pytest.raises(ProtocolError):
            ch.run_session("bob", bob_t, cfg23, 2, 1, "sixstate")

    def test_peer_disappearing_raises_session_error(self, cfg23):
        alice_t, bob_t = ch.memory_transport_pair()
        alice_t.send_line(ch.encode(ch.Hello(1, 3, 2, "sixstate")))
        alice_t.close()
        with pytest.raises(SessionError):
            ch.run_session("bob", bob_t, cfg23, 1, 1, "sixstate")

    def test_role_validated(self, cfg23):
        with pytest.raises(ValueError):
            ch.run_session("carol", None, cfg23, 1, 1)


class TestTcpSession:
    def test_loopback_matches_in_process(self, cfg23):
        port = free_port()
        server = {}

        def bob():
            server["outcomes"] = ch.serve_session(
                "127.0.0.1", port, "bob", cfg23, 1000, 42, basis_set_id="sixstate"
            )

        worker = threading.Thread(target=bob)
        worker.start()
        ready = ch.connect_session  # dial with retry while the server binds
        log = _dial_with_retry(ready, port, cfg23, 1000, 42)
        worker.join()
        assert server["outcomes"] == [run_trial(cfg23, t, 42) for t in range(1000)]
        assert log.trials == 1000

    def test_recv_after_close_is_eof(self):
        # a relay pump reads a side that the other pump has already closed
        left, right = socket.socketpair()
        transport = ch.TcpTransport(left)
        try:
            transport.close()
            assert transport.recv_line() is None
        finally:
            right.close()

    def test_connection_refused(self, cfg23):
        with pytest.raises(SessionError):
            ch.connect_session("127.0.0.1", free_port(), "alice", cfg23, 1, 1)


def _dial_with_retry(connect, port, cfg, n, seed, attempts=50):
    import time

    for _ in range(attempts):
        try:
            return connect("127.0.0.1", port, "alice", cfg, n, seed, basis_set_id="sixstate")
        except SessionError:
            time.sleep(0.05)
    raise AssertionError("server never came up")


class TestMitm:
    def run_with_interceptor(self, sixstate, cfg, n, seed):
        """alice -> (pair A) -> interceptor -> (pair B) -> bob, in-process."""
        alice_t, eve_a = ch.memory_transport_pair()
        eve_b, bob_t = ch.memory_transport_pair()
        eve_a, eve_b = RecordingTransport(eve_a), RecordingTransport(eve_b)
        results = {}

        def alice():
            results["log"] = ch.run_session("alice", alice_t, cfg, n, seed, "sixstate")

        def eavesdropper():
            results["mitm"] = ch.run_mitm_pumps(eve_a, eve_b, sixstate.bases[0], seed)

        threads = [threading.Thread(target=alice), threading.Thread(target=eavesdropper)]
        for t in threads:
            t.start()
        results["outcomes"] = ch.run_session("bob", bob_t, cfg, n, seed, "sixstate")
        # bob returning means the session is over; unblock the pumps
        alice_t.close()
        bob_t.close()
        for t in threads:
            t.join()
        return results, eve_a, eve_b

    def test_outcomes_match_in_process_attack(self, sixstate, cfg23):
        n, seed = 400, 42
        results, _, _ = self.run_with_interceptor(sixstate, cfg23, n, seed)
        attacked = ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=sixstate.bases[0])
        assert results["outcomes"] == [run_trial(attacked, t, seed) for t in range(n)]
        assert len(results["mitm"].records) == 2 * n

    def test_classical_messages_forwarded_byte_identically(self, sixstate, cfg23):
        results, eve_a, eve_b = self.run_with_interceptor(sixstate, cfg23, 60, 9)
        incoming = [l for l in eve_a.received if json.loads(l)["type"] != "quantum_state"]
        outgoing = [l for l in eve_b.sent if json.loads(l)["type"] != "quantum_state"]
        assert incoming == outgoing
        # and every quantum state was replaced by an eigenstate of hers
        resent = [
            ch.state_from_message(ch.decode(l))
            for l in eve_b.sent
            if json.loads(l)["type"] == "quantum_state"
        ]
        eigenstates = [tuple(v.amps.tolist()) for v in sixstate.bases[0].vectors]
        assert all(tuple(s.amps.tolist()) in eigenstates for s in resent)

    def test_error_rate_seen_by_bob(self, sixstate, cfg23):
        results, _, _ = self.run_with_interceptor(sixstate, cfg23, 5000, 3)
        outcomes = results["outcomes"]
        sifted = [o for o in outcomes if o.sifted]
        wrong = sum(o.bob_letter != o.x for o in sifted)
        p_hat = wrong / len(sifted)
        stderr = math.sqrt(p_hat * (1 - p_hat) / len(sifted))
        assert abs(p_hat - 4 / 7) <= 4 * stderr
