import collections
import functools
import hashlib
import json
import math
import re
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hselab.channel as ch
from conftest import free_port, make_random_basis
from hselab.bases import breidbart_basis, mu_basis_set
from hselab.errors import CodecError, DimensionError, HandshakeError, ProtocolError, SessionError
from hselab.protocol import run_trial
from hselab.rates import ProtocolConfig
from hselab.hilbert import StateVector

WIRE_FIELDS = {
    "type", "trial_id", "slot", "amps", "a", "sifted",
    "c", "d", "basis_set_id", "protocol_version", "reason", "letters",
}


@pytest.fixture(scope="module")
def cfg23(sixstate):
    return ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=None)


class RecordingTransport:
    """Wraps a transport and keeps every line that passes through, and the
    number of lines in each send_line call."""

    def __init__(self, inner):
        self.inner = inner
        self.sent = []
        self.send_calls = []
        self.received = []

    def send_line(self, data):
        lines = data.splitlines(keepends=True)
        self.sent.extend(lines)
        self.send_calls.append(len(lines))
        self.inner.send_line(data)

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
        back = ch.decode(ch.encode(ch.QuantumState(3, 0, state.pairs())))
        assert back.amps == state.pairs()

    @pytest.mark.parametrize(
        "amps",
        [
            ((1 / math.sqrt(2), 0.0), (0.0, -1 / math.sqrt(2))),
            ((-0.0, 5e-324), (1e-17, -1.0)),
            ((0.6, -0.0), (-0.0, 0.8), (1e-17, 5e-324)),
        ],
    )
    def test_state_line_is_the_json_dump(self, amps):
        msg = ch.QuantumState(trial_id=12, slot=3, amps=amps)
        obj = {"type": "quantum_state", "trial_id": 12, "slot": 3, "amps": [list(p) for p in amps]}
        assert ch.encode(msg) == json.dumps(obj, separators=(",", ":")).encode() + b"\n"

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
            b'{"type": "quantum_state", "trial_id": 0, "slot": 0, "amps": [[NaN, 0], [0, 0]]}',
            b'{"type": "quantum_state", "trial_id": 0, "slot": 0, "amps": [[1, 0], [0, -Infinity]]}',
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

    def test_amplitude_too_large_for_a_float(self):
        line = b'{"type": "quantum_state", "trial_id": 0, "slot": 0, "amps": [[1%s, 0], [0, 0]]}' % (b"0" * 400)
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

    def test_integer_too_long_to_convert(self):
        # json.loads raises a plain ValueError past int()'s digit limit
        amps = b"[[1.0,0.0],[0.0,0.0]]"
        known = ch.KnownStates(4)
        known.decode(ch._state_line(0, 0, amps))
        assert len(known) == 1
        line = b'{"type":"quantum_state","trial_id":%s,"slot":0,"amps":%s}\n' % (b"7" * 5000, amps)
        for decode in (ch.decode, known.decode):
            with pytest.raises(CodecError):
                decode(line)


@functools.cache
def honest_amps(d, c):
    """The `amps` bytes of the c*d states of the MU set for (d, c)."""
    return [ch._amps_json(v.pairs()) for basis in mu_basis_set(d, c).bases for v in basis.vectors]


# each takes an honest state line and the amps of another state
MUTATIONS = {
    "none": lambda line, other: line,
    "no newline": lambda line, other: line[:-1],
    "leading zero in trial_id": lambda line, other: line.replace(b'"trial_id":', b'"trial_id":0', 1),
    "leading zero in slot": lambda line, other: line.replace(b'"slot":', b'"slot":0', 1),
    "negative trial_id": lambda line, other: line.replace(b'"trial_id":', b'"trial_id":-', 1),
    "crlf": lambda line, other: line[:-1] + b"\r\n",
    "spaces": lambda line, other: line.replace(b'":', b'": '),
    "duplicated amps key": lambda line, other: line[:-2] + b',"amps":' + other + b"}\n",
    "extra keys after amps": lambda line, other: line[:-2] + b',"trial_id":7,"x":[1]}\n',
    "nan": lambda line, other: re.sub(rb'"amps":\[\[[^,]*', b'"amps":[[NaN', line),
    "integer amplitudes": lambda line, other: line.replace(b"0.0", b"0"),
}


@st.composite
def state_lines(draw):
    """(c*d, lines): state lines of one (d, c), honest or mutated, some with
    amplitudes from outside the set and trial ids past 18 digits."""
    d, c = draw(st.sampled_from([(2, 3), (3, 4), (5, 6)]))
    honest = honest_amps(d, c)
    lines = []
    for _ in range(draw(st.integers(1, 24))):
        if draw(st.booleans()):
            amps = draw(st.sampled_from(honest))
        else:  # unknown amplitudes
            stranger = make_random_basis(d, draw(st.integers(0, 50))).vectors[draw(st.integers(0, d - 1))]
            amps = ch._amps_json(stranger.pairs())
        line = ch._state_line(draw(st.integers(0, 10**20)), draw(st.integers(0, c)), amps)
        mutate = MUTATIONS[draw(st.sampled_from(sorted(MUTATIONS)))]
        lines.append(mutate(line, draw(st.sampled_from(honest))))
    return c * d, lines


def decoded(decode, line):
    """What a decoder makes of a line: the message's repr, which tells
    -0.0 from 0.0 and 1 from 1.0, or the CodecError's text."""
    try:
        return repr(decode(line))
    except CodecError as exc:
        return f"CodecError: {exc}"


class TestKnownStates:
    @given(state_lines())
    @settings(max_examples=200, deadline=None)
    def test_same_result_as_decode(self, case):
        capacity, lines = case
        known = ch.KnownStates(capacity)
        for line in lines + lines:  # the second pass meets the keys the first stored
            assert decoded(known.decode, line) == decoded(ch.decode, line)
        assert len(known) <= capacity

    def test_a_tail_after_amps_never_enters_the_table(self, sixstate):
        amps = ch._amps_json(sixstate.bases[1].vectors[0].pairs())
        tail = b',"trial_id":7,"x":[1]}\n'
        known = ch.KnownStates(6)
        for trial_id in (3, 5):
            assert known.decode(ch._state_line(trial_id, 0, amps)[:-2] + tail).trial_id == 7
        assert len(known) == 0
        honest = ch._state_line(5, 0, amps)
        assert known.decode(honest) == ch.decode(honest)
        assert len(known) == 1
        # the stored key is the amps alone, so the tail still takes the slow path
        assert known.decode(ch._state_line(3, 0, amps)[:-2] + tail).trial_id == 7

    def test_table_holds_at_most_c_times_d(self, qutrit4):
        c, d = 4, 3
        known = ch.KnownStates(c * d)
        strangers = [v for seed in range(30) for v in make_random_basis(d, seed).vectors]
        assert len({v.pairs() for v in strangers}) == 90
        for trial_id, state in enumerate(strangers):
            known.decode(ch.encode(ch.QuantumState(trial_id, 0, state.pairs())))
        assert len(known) == c * d
        for basis in qutrit4.bases:
            for state in basis.vectors:
                line = ch.encode(ch.QuantumState(99, 1, state.pairs()))
                assert known.decode(line) == ch.decode(line)
        assert len(known) == c * d


def json_line(obj) -> bytes:
    """The oracle for every template: the compact json.dumps of the object."""
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


TRIAL_IDS = st.one_of(
    st.integers(0, 10**18),
    st.sampled_from([0, 9, 10, 10**17, 10**18 - 1, 10**18]),
)


class TestTemplates:
    @given(TRIAL_IDS, st.lists(st.integers(0, 10**18), min_size=1, max_size=10).map(tuple))
    @settings(max_examples=300, deadline=None)
    def test_announce_line_is_the_json_dump(self, trial_id, a):
        oracle = json_line({"type": "index_announce", "trial_id": trial_id, "a": list(a)})
        assert ch._announce_line(trial_id, a) == oracle
        assert ch.encode(ch.IndexAnnounce(trial_id, a)) == oracle

    @given(TRIAL_IDS, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_sift_line_is_the_json_dump(self, trial_id, sifted):
        oracle = json_line({"type": "sift_report", "trial_id": trial_id, "sifted": sifted})
        assert ch._sift_line(trial_id, sifted) == oracle
        assert ch.encode(ch.SiftReport(trial_id, sifted)) == oracle


# each takes an honest announce or sift line
CLASSICAL_MUTATIONS = {
    "none": lambda line: line,
    "no newline": lambda line: line[:-1],
    "crlf": lambda line: line[:-1] + b"\r\n",
    "spaces": lambda line: line.replace(b'":', b'": ').replace(b",", b", "),
    "leading zero in trial_id": lambda line: line.replace(b'"trial_id":', b'"trial_id":0', 1),
    "leading zero in an index": lambda line: line.replace(b'"a":[', b'"a":[0', 1),
    "negative trial_id": lambda line: line.replace(b'"trial_id":', b'"trial_id":-', 1),
    "negative index": lambda line: line.replace(b'"a":[', b'"a":[-', 1),
    "19-digit trial_id": lambda line: re.sub(rb'"trial_id":[0-9]+', b'"trial_id":1' + b"0" * 18, line),
    "19-digit index": lambda line: line.replace(b'"a":[', b'"a":[1' + b"0" * 18 + b",", 1),
    "true as an index": lambda line: line.replace(b'"a":[', b'"a":[true,', 1),
    "empty a": lambda line: re.sub(rb'"a":\[[^\]]*\]', b'"a":[]', line),
    "sifted as 1": lambda line: line.replace(b"true", b"1").replace(b"false", b"1"),
    "float trial_id": lambda line: re.sub(rb'("trial_id":[0-9]+)', rb"\1.0", line),
    "extra key": lambda line: line[:-2] + b',"x":1}\n',
    "duplicated trial_id": lambda line: line[:-2] + b',"trial_id":7}\n',
    "duplicated type": lambda line: line[:-2] + b',"type":"bye"}\n',
}


@st.composite
def classical_lines(draw):
    """Announce and sift lines, honest or mutated, with trial ids and
    indices around the 18-digit limit of the reader."""
    numbers = st.one_of(TRIAL_IDS, st.integers(0, 10**20))
    if draw(st.booleans()):
        a = tuple(draw(st.lists(numbers, min_size=1, max_size=10)))
        line = ch._announce_line(draw(numbers), a)
    else:
        line = ch._sift_line(draw(numbers), draw(st.booleans()))
    return CLASSICAL_MUTATIONS[draw(st.sampled_from(sorted(CLASSICAL_MUTATIONS)))](line)


class TestFastReader:
    @given(st.lists(classical_lines(), min_size=1, max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_same_result_as_decode(self, lines):
        known = ch.KnownStates(6)
        for line in lines:
            assert decoded(known.decode, line) == decoded(ch.decode, line)
        assert len(known) == 0

    @pytest.mark.parametrize(
        "line",
        [
            b'{"type":"index_announce","trial_id":3,"a":[0,2,1]}\n',
            b'{"type":"index_announce","trial_id":999999999999999999,"a":[0]}',
            b'{"type":"sift_report","trial_id":0,"sifted":false}\n',
            b'{"type":"sift_report","trial_id":12,"sifted":true}',
        ],
    )
    def test_honest_lines_skip_decode(self, line, monkeypatch):
        expected = ch.decode(line)

        def no_decode(line, line_no=None):
            raise AssertionError(f"decode called on {line!r}")

        monkeypatch.setattr(ch, "decode", no_decode)
        assert ch.KnownStates(0).decode(line) == expected


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


NAN_STATE = b'{"type":"quantum_state","trial_id":0,"slot":0,"amps":[[NaN,0],[0,0]]}\n'


class TestInProcessSession:
    def test_outcomes_match_per_trial_runner(self, cfg23):
        log, outcomes, _ = run_pair(cfg23, 250, seed=42)
        assert outcomes == [run_trial(cfg23, t, 42) for t in range(250)]
        assert log.letters == tuple(o.x for o in outcomes)
        assert log.key == tuple(o.x for o in outcomes if o.sifted)

    def test_message_order_per_trial(self, cfg23):
        log, _, (alice_t, _) = run_pair(cfg23, 5, seed=1, record=True)
        kinds = [json.loads(line)["type"] for line in alice_t.sent]
        per_trial = ["quantum_state"] * 2 + ["index_announce"]
        expected = ["hello"] + per_trial * 5 + ["key_compare", "bye"]
        assert kinds == expected
        # one write per trial, and messages_sent still counts messages
        assert alice_t.send_calls == [1] + [3] * 5 + [1, 1]
        assert log.messages_sent == len(expected) - 1

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
        alice_t.send_line(ch.encode(ch.QuantumState(1, 0, state.pairs())))
        with pytest.raises(ProtocolError):
            ch.run_session("bob", bob_t, cfg23, 2, 1, "sixstate")

    def test_malformed_announcement_rejected(self, cfg23, sixstate):
        alice_t, bob_t = ch.memory_transport_pair()
        alice_t.send_line(ch.encode(ch.Hello(1, 3, 2, "sixstate")))
        state = sixstate.bases[0].vectors[0]
        alice_t.send_line(ch.encode(ch.QuantumState(0, 0, state.pairs())))
        alice_t.send_line(ch.encode(ch.QuantumState(0, 1, state.pairs())))
        alice_t.send_line(ch.encode(ch.IndexAnnounce(0, (0, 1, 1))))
        with pytest.raises(ProtocolError):
            ch.run_session("bob", bob_t, cfg23, 2, 1, "sixstate")

    def test_wrong_dimension_state_rejected(self, cfg23, qutrit4):
        alice_t, bob_t = ch.memory_transport_pair()
        alice_t.send_line(ch.encode(ch.Hello(1, 3, 2, "sixstate")))
        state = qutrit4.bases[0].vectors[0]
        alice_t.send_line(ch.encode(ch.QuantumState(0, 0, state.pairs())))
        with pytest.raises(ProtocolError):
            ch.run_session("bob", bob_t, cfg23, 1, 1, "sixstate")

    def test_key_compare_letter_out_of_range_rejected(self, cfg23, sixstate):
        alice_t, bob_t = ch.memory_transport_pair()
        alice_t.send_line(ch.encode(ch.Hello(1, 3, 2, "sixstate")))
        state = sixstate.bases[0].vectors[0]
        alice_t.send_line(ch.encode(ch.QuantumState(0, 0, state.pairs())))
        alice_t.send_line(ch.encode(ch.QuantumState(0, 1, state.pairs())))
        alice_t.send_line(ch.encode(ch.IndexAnnounce(0, (0, 0))))
        alice_t.send_line(ch.encode(ch.KeyCompare((0, 1), (99,))))
        with pytest.raises(ProtocolError):
            ch.run_session("bob", bob_t, cfg23, 1, 1, "sixstate")

    def test_non_finite_amplitude_is_a_codec_error(self, cfg23):
        alice_t, bob_t = ch.memory_transport_pair()
        alice_t.send_line(ch.encode(ch.Hello(1, 3, 2, "sixstate")))
        alice_t.send_line(NAN_STATE)
        with pytest.raises(CodecError):
            ch.run_session("bob", bob_t, cfg23, 1, 1, "sixstate")

    def test_peer_disappearing_raises_session_error(self, cfg23):
        alice_t, bob_t = ch.memory_transport_pair()
        alice_t.send_line(ch.encode(ch.Hello(1, 3, 2, "sixstate")))
        alice_t.close()
        with pytest.raises(SessionError):
            ch.run_session("bob", bob_t, cfg23, 1, 1, "sixstate")

    def test_role_validated(self, cfg23):
        with pytest.raises(ValueError):
            ch.run_session("carol", None, cfg23, 1, 1)


class TestMemoryTransport:
    def test_multi_line_write_arrives_line_by_line(self):
        left, right = ch.memory_transport_pair()
        left.send_line(b"a\nb\n")
        left.send_line(b"c\n")
        left.close()
        assert [right.recv_line() for _ in range(4)] == [b"a\n", b"b\n", b"c\n", None]

    def test_close_ends_a_local_read(self):
        left, right = ch.memory_transport_pair()
        right.close()
        assert right.recv_line() is None

    def test_recv_times_out_with_session_error(self, monkeypatch):
        monkeypatch.setattr(ch, "_RECV_TIMEOUT", 0.2)
        left, right = ch.memory_transport_pair()
        started = time.monotonic()
        with pytest.raises(SessionError):
            right.recv_line()
        assert time.monotonic() - started < 1.0

    def test_peer_close_wakes_a_blocked_reader(self):
        left, right = ch.memory_transport_pair()
        got = []
        reader = threading.Thread(target=lambda: got.append(right.recv_line()))
        reader.start()
        time.sleep(0.05)
        left.close()
        reader.join(1.0)
        assert not reader.is_alive()
        assert got == [None]

    def test_send_after_own_close_raises(self):
        left, _ = ch.memory_transport_pair()
        left.close()
        with pytest.raises(SessionError):
            left.send_line(b"x\n")


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

    def test_recv_timeout_is_read_when_the_transport_is_made(self, monkeypatch):
        monkeypatch.setattr(ch, "_RECV_TIMEOUT", 0.2)
        left, right = socket.socketpair()
        transport = ch.TcpTransport(left)
        try:
            started = time.monotonic()
            with pytest.raises(SessionError):
                transport.recv_line()
            assert time.monotonic() - started < 1.0
        finally:
            transport.close()
            right.close()

    def test_every_session_socket_sets_nodelay(self, cfg23, sixstate, monkeypatch):
        nodelay = []

        class Probe(ch.TcpTransport):
            def __init__(self, sock, *args, **kwargs):
                super().__init__(sock, *args, **kwargs)
                nodelay.append(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(ch, "TcpTransport", Probe)
        results = run_tcp_relay(cfg23, sixstate.bases[0], 20, 5)
        attacked = ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=sixstate.bases[0])
        assert results["bob"] == [run_trial(attacked, t, 5) for t in range(20)]
        assert len(results["relay"].records) == 2 * 20
        # bob's listener, alice's dial, and the relay's two ends
        assert len(nodelay) == 4 and all(nodelay)

    def test_connection_refused(self, cfg23):
        with pytest.raises(SessionError):
            ch.connect_session("127.0.0.1", free_port(), "alice", cfg23, 1, 1)


class TestLineCap:
    def test_line_at_the_cap_passes(self, monkeypatch):
        monkeypatch.setattr(ch, "_MAX_LINE", 64)
        left, right = socket.socketpair()
        transport = ch.TcpTransport(left)
        try:
            right.sendall(b"x" * 63 + b"\n")
            assert transport.recv_line() == b"x" * 63 + b"\n"
        finally:
            transport.close()
            right.close()

    def test_one_byte_over_raises_promptly(self, monkeypatch):
        monkeypatch.setattr(ch, "_MAX_LINE", 64)
        monkeypatch.setattr(ch, "_RECV_TIMEOUT", 5.0)
        left, right = socket.socketpair()
        transport = ch.TcpTransport(left)
        try:
            right.sendall(b"x" * 65)  # and no newline ever follows
            started = time.monotonic()
            with pytest.raises(CodecError):
                transport.recv_line()
            assert time.monotonic() - started < 1.0
        finally:
            transport.close()
            right.close()

    def test_relay_fails_on_an_overlong_line_and_both_endpoints_end(self, qutrit4, monkeypatch):
        cfg = ProtocolConfig(c=4, d=3, basis_set=qutrit4)
        # the hellos fit under the cap; every qutrit state line is longer
        hello = ch.encode(ch.Hello(ch.PROTOCOL_VERSION, 4, 3, "qutrit4"))
        monkeypatch.setattr(ch, "_MAX_LINE", len(hello))
        monkeypatch.setattr(ch, "_RECV_TIMEOUT", 5.0)
        alice_sock, eve_a_sock = socket.socketpair()
        eve_b_sock, bob_sock = socket.socketpair()
        errors = {}

        def endpoint(role, sock):
            transport = ch.TcpTransport(sock)
            try:
                ch.run_session(role, transport, cfg, 10, 2, "qutrit4")
            except Exception as exc:
                errors[role] = exc
            finally:
                transport.close()

        threads = [
            threading.Thread(target=endpoint, args=("alice", alice_sock)),
            threading.Thread(target=endpoint, args=("bob", bob_sock)),
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        eve_a, eve_b = ch.TcpTransport(eve_a_sock), ch.TcpTransport(eve_b_sock)
        try:
            with pytest.raises(SessionError) as err:
                ch.run_mitm_pumps(eve_a, eve_b, qutrit4.bases[0], 2)
        finally:
            eve_a.close()
            eve_b.close()
        for thread in threads:
            thread.join(5.0)
            assert not thread.is_alive()
        assert time.monotonic() - started < 2.0
        assert isinstance(err.value.__cause__, CodecError)
        assert isinstance(errors.get("alice"), SessionError)
        assert isinstance(errors.get("bob"), SessionError)


def _dial_with_retry(connect, port, cfg, n, seed, attempts=50):
    for _ in range(attempts):
        try:
            return connect("127.0.0.1", port, "alice", cfg, n, seed, basis_set_id="sixstate")
        except SessionError as exc:
            if not isinstance(exc.__cause__, ConnectionRefusedError):
                raise
            time.sleep(0.05)
    raise AssertionError("server never came up")


def run_tcp_relay(cfg, eve_basis, n, seed, timeout=10.0):
    """alice -> run_mitm -> bob over TCP loopback; returns each party's
    result or the exception it raised."""
    bob_port, relay_port = free_port(), free_port()
    ready = threading.Event()
    results = {}

    def party(name, fn):
        try:
            results[name] = fn()
        except Exception as exc:
            results[name] = exc

    bob = threading.Thread(
        target=party,
        args=("bob", lambda: ch.serve_session(
            "127.0.0.1", bob_port, "bob", cfg, n, seed, "sixstate", ready_event=ready
        )),
    )
    relay = threading.Thread(
        target=party,
        args=("relay", lambda: ch.run_mitm(
            ("127.0.0.1", relay_port), ("127.0.0.1", bob_port), eve_basis, seed
        )),
    )
    bob.start()
    assert ready.wait(timeout)
    relay.start()
    party("alice", lambda: _dial_with_retry(ch.connect_session, relay_port, cfg, n, seed))
    for thread in (bob, relay):
        thread.join(timeout)
        assert not thread.is_alive()
    return results


class TestMitm:
    def run_with_interceptor(self, sixstate, cfg, n, seed, eve_basis=None):
        """alice -> (pair A) -> interceptor -> (pair B) -> bob, in-process;
        Eve measures in sixstate's first basis unless told otherwise."""
        alice_t, eve_a = ch.memory_transport_pair()
        eve_b, bob_t = ch.memory_transport_pair()
        eve_a, eve_b = RecordingTransport(eve_a), RecordingTransport(eve_b)
        results = {}

        def alice():
            results["log"] = ch.run_session("alice", alice_t, cfg, n, seed, "sixstate")

        def eavesdropper():
            basis = sixstate.bases[0] if eve_basis is None else eve_basis
            results["mitm"] = ch.run_mitm_pumps(eve_a, eve_b, basis, seed)

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

    def test_breidbart_eve_matches_in_process_attack(self, sixstate, cfg23):
        # her eigenstates lie outside Bob's set, so his table learns them
        breidbart = breidbart_basis()
        honest = {v.pairs() for basis in sixstate.bases for v in basis.vectors}
        assert not honest & {v.pairs() for v in breidbart.vectors}
        n, seed = 300, 8
        results, _, _ = self.run_with_interceptor(sixstate, cfg23, n, seed, eve_basis=breidbart)
        attacked = ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=breidbart)
        assert results["outcomes"] == [run_trial(attacked, t, seed) for t in range(n)]
        assert len(results["mitm"].records) == 2 * n

    def test_non_finite_amplitude_passes_the_relay_to_bob(self, sixstate, cfg23):
        alice_t, eve_a = ch.memory_transport_pair()
        eve_b, bob_t = ch.memory_transport_pair()
        results = {}

        def eavesdropper():
            results["mitm"] = ch.run_mitm_pumps(eve_a, eve_b, sixstate.bases[0], 1)

        relay = threading.Thread(target=eavesdropper)
        relay.start()
        alice_t.send_line(ch.encode(ch.Hello(1, 3, 2, "sixstate")))
        alice_t.send_line(NAN_STATE)
        try:
            with pytest.raises(CodecError):
                ch.run_session("bob", bob_t, cfg23, 1, 1, "sixstate")
        finally:
            alice_t.close()
            bob_t.close()
            relay.join(5.0)
        assert not relay.is_alive()
        assert results["mitm"].records == []

    def test_classical_messages_forwarded_byte_identically(self, sixstate, cfg23):
        results, eve_a, eve_b = self.run_with_interceptor(sixstate, cfg23, 60, 9)
        incoming = [l for l in eve_a.received if json.loads(l)["type"] != "quantum_state"]
        outgoing = [l for l in eve_b.sent if json.loads(l)["type"] != "quantum_state"]
        assert incoming == outgoing
        # and every quantum state was replaced by an eigenstate of hers
        resent = [ch.decode(l).amps for l in eve_b.sent if json.loads(l)["type"] == "quantum_state"]
        eigenstates = {v.pairs() for v in sixstate.bases[0].vectors}
        assert resent and all(amps in eigenstates for amps in resent)

    def test_one_write_per_trial_towards_bob(self, sixstate, cfg23):
        results, _, eve_b = self.run_with_interceptor(sixstate, cfg23, 30, 4)
        assert eve_b.send_calls == [1] + [3] * 30 + [1, 1]
        assert len(results["mitm"].records) == 2 * 30

    def test_pump_failure_surfaces(self, cfg23, qutrit4, monkeypatch):
        # an Eve basis of the wrong dimension fails inside the relay
        monkeypatch.setattr(ch, "_RECV_TIMEOUT", 5.0)
        alice_t, eve_a = ch.memory_transport_pair()
        eve_b, bob_t = ch.memory_transport_pair()
        errors = {}

        def endpoint(role, transport):
            try:
                ch.run_session(role, transport, cfg23, 10, 2, "sixstate")
            except Exception as exc:
                errors[role] = exc

        threads = [
            threading.Thread(target=endpoint, args=("alice", alice_t)),
            threading.Thread(target=endpoint, args=("bob", bob_t)),
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        with pytest.raises(SessionError) as err:
            ch.run_mitm_pumps(eve_a, eve_b, qutrit4.bases[0], 2)
        for thread in threads:
            thread.join(5.0)
            assert not thread.is_alive()
        assert time.monotonic() - started < 2.0
        assert isinstance(err.value.__cause__, DimensionError)
        assert isinstance(errors.get("alice"), SessionError)
        assert isinstance(errors.get("bob"), SessionError)

    def test_pump_failure_surfaces_over_tcp(self, cfg23, qutrit4):
        started = time.monotonic()
        results = run_tcp_relay(cfg23, qutrit4.bases[0], 10, 2)
        assert time.monotonic() - started < 5.0
        assert isinstance(results["relay"], SessionError)
        assert isinstance(results["relay"].__cause__, DimensionError)
        assert isinstance(results["alice"], SessionError)
        assert isinstance(results["bob"], SessionError)

    def test_each_distinct_state_is_decoded_once_per_endpoint(self, monkeypatch):
        basis_set = mu_basis_set(7, 8)
        cfg = ProtocolConfig(c=8, d=7, basis_set=basis_set)
        eve = basis_set.bases[0]
        full_decodes = collections.Counter()
        decode = ch.decode

        def counting_decode(line, line_no=None):
            msg = decode(line, line_no)
            if isinstance(msg, ch.QuantumState):
                full_decodes[threading.current_thread().name, msg.amps] += 1
            return msg

        monkeypatch.setattr(ch, "decode", counting_decode)
        results, _, _ = self.run_with_interceptor(None, cfg, 200, 5, eve_basis=eve)
        attacked = ProtocolConfig(c=8, d=7, basis_set=basis_set, eve=eve)
        assert results["outcomes"] == [run_trial(attacked, t, 5) for t in range(200)]
        assert set(full_decodes.values()) == {1}
        per_endpoint = collections.Counter(name for name, _ in full_decodes)
        # Bob only meets the 7 states Eve resends; the relay meets Alice's 56
        assert per_endpoint.pop("MainThread") <= 7
        assert len(per_endpoint) == 1 and sum(per_endpoint.values()) <= 56

    def test_codec_calls_do_not_grow_with_trials(self, qutrit4, monkeypatch):
        """Past the first sight of each state, no per-trial line goes
        through encode or decode."""
        cfg = ProtocolConfig(c=4, d=3, basis_set=qutrit4)
        eve = qutrit4.bases[0]
        attacked = ProtocolConfig(c=4, d=3, basis_set=qutrit4, eve=eve)
        encode, decode = ch.encode, ch.decode
        calls = collections.Counter()

        def counting_encode(msg):
            calls["encode", type(msg).__name__] += 1
            return encode(msg)

        def counting_decode(line, line_no=None):
            msg = decode(line, line_no)
            calls["decode", type(msg).__name__] += 1
            return msg

        monkeypatch.setattr(ch, "encode", counting_encode)
        monkeypatch.setattr(ch, "decode", counting_decode)
        counts = {}
        for n in (20, 200):
            calls.clear()
            results, _, _ = self.run_with_interceptor(None, cfg, n, 2, eve_basis=eve)
            assert results["outcomes"] == [run_trial(attacked, t, 2) for t in range(n)]
            counts[n] = dict(calls)
        assert counts[20] == counts[200]
        # at seed 2 the relay has met all 12 of Alice's states by trial 20,
        # and Bob the 3 that Eve resends; each is decoded in full once
        assert counts[200][("decode", "QuantumState")] == 12 + 3
        assert ("decode", "IndexAnnounce") not in counts[200]
        assert ("decode", "SiftReport") not in counts[200]
        assert not {kind for op, kind in counts[200] if op == "encode"} & {"IndexAnnounce", "SiftReport"}

    def test_error_rate_seen_by_bob(self, sixstate, cfg23):
        results, _, _ = self.run_with_interceptor(sixstate, cfg23, 5000, 3)
        outcomes = results["outcomes"]
        sifted = [o for o in outcomes if o.sifted]
        wrong = sum(o.bob_letter != o.x for o in sifted)
        p_hat = wrong / len(sifted)
        stderr = math.sqrt(p_hat * (1 - p_hat) / len(sifted))
        assert abs(p_hat - 4 / 7) <= 4 * stderr


class BreakAnnouncement:
    """Alice's transport, with one index too many in the announcement of
    one trial, which Bob rejects."""

    def __init__(self, inner, trial_id):
        self.inner = inner
        self.marker = b'{"type":"index_announce","trial_id":%d,"a":[' % trial_id

    def send_line(self, data):
        self.inner.send_line(data.replace(self.marker, self.marker + b"0,"))

    def recv_line(self):
        return self.inner.recv_line()

    def close(self):
        self.inner.close()


class TestBobSaysWhy:
    """Bob names the error he stops on in a Bye, and Alice's SessionError
    carries his reason."""

    TRIAL = 3

    def run_alice(self, transport, cfg, errors):
        try:
            ch.run_session("alice", BreakAnnouncement(transport, self.TRIAL), cfg, 10, 6, "sixstate")
        except Exception as exc:
            errors["alice"] = exc

    def check(self, errors, started):
        assert time.monotonic() - started < 2.0
        assert isinstance(errors.get("bob"), ProtocolError)
        assert "malformed announcement" in str(errors["bob"])
        assert isinstance(errors.get("alice"), SessionError)
        assert f"trial {self.TRIAL}: ProtocolError: malformed announcement" in str(errors["alice"])

    def run_bob(self, transport, cfg, errors):
        try:
            ch.run_session("bob", transport, cfg, 10, 6, "sixstate")
        except Exception as exc:
            errors["bob"] = exc

    def test_over_memory(self, cfg23):
        alice_t, bob_t = ch.memory_transport_pair()
        errors = {}
        started = time.monotonic()
        alice = threading.Thread(target=self.run_alice, args=(alice_t, cfg23, errors))
        alice.start()
        self.run_bob(bob_t, cfg23, errors)
        alice.join(2.0)
        bob_t.close()
        alice.join(5.0)
        assert not alice.is_alive()
        self.check(errors, started)

    def test_over_tcp(self, cfg23):
        port = free_port()
        ready = threading.Event()
        errors = {}

        def bob():
            try:
                ch.serve_session("127.0.0.1", port, "bob", cfg23, 10, 6, "sixstate", ready_event=ready)
            except Exception as exc:
                errors["bob"] = exc

        started = time.monotonic()
        server = threading.Thread(target=bob)
        server.start()
        assert ready.wait(5.0)
        transport = ch.TcpTransport(socket.create_connection(("127.0.0.1", port)))
        try:
            self.run_alice(transport, cfg23, errors)
        finally:
            transport.close()
        server.join(5.0)
        assert not server.is_alive()
        self.check(errors, started)

    def test_through_the_relay(self, cfg23, sixstate):
        alice_t, eve_a = ch.memory_transport_pair()
        eve_b, bob_t = ch.memory_transport_pair()
        errors = {}
        started = time.monotonic()
        threads = [
            threading.Thread(target=self.run_alice, args=(alice_t, cfg23, errors)),
            threading.Thread(target=ch.run_mitm_pumps, args=(eve_a, eve_b, sixstate.bases[0], 6)),
        ]
        for thread in threads:
            thread.start()
        self.run_bob(bob_t, cfg23, errors)
        threads[0].join(2.0)
        alice_t.close()
        bob_t.close()
        for thread in threads:
            thread.join(5.0)
            assert not thread.is_alive()
        self.check(errors, started)


class ByteRecorder:
    """Feeds every byte a party writes into a running SHA-256."""

    def __init__(self, inner, sink):
        self.inner = inner
        self.sink = sink

    def send_line(self, data):
        self.sink.update(data)
        self.inner.send_line(data)

    def recv_line(self):
        return self.inner.recv_line()

    def close(self):
        self.inner.close()


def wire_digest(d, c, relay, n=200, seed=2024):
    """SHA-256 over the digests of what Alice, Bob and (if present) each
    relay pump wrote in one memory session on the MU set for (d, c)."""
    basis_set = mu_basis_set(d, c)
    cfg = ProtocolConfig(c=c, d=d, basis_set=basis_set)
    writers = ["alice", "bob"] + (["to_bob", "to_alice"] if relay else [])
    sinks = {name: hashlib.sha256() for name in writers}
    alice_t, far_end = ch.memory_transport_pair()
    bob_t = far_end
    threads = [
        threading.Thread(
            target=ch.run_session,
            args=("alice", ByteRecorder(alice_t, sinks["alice"]), cfg, n, seed, "mub"),
        )
    ]
    if relay:
        eve_b, bob_t = ch.memory_transport_pair()
        threads.append(
            threading.Thread(
                target=ch.run_mitm_pumps,
                args=(
                    ByteRecorder(far_end, sinks["to_alice"]),
                    ByteRecorder(eve_b, sinks["to_bob"]),
                    basis_set.bases[0],
                    seed,
                ),
            )
        )
    for thread in threads:
        thread.start()
    outcomes = ch.run_session("bob", ByteRecorder(bob_t, sinks["bob"]), cfg, n, seed, "mub")
    alice_t.close()
    bob_t.close()
    for thread in threads:
        thread.join(10.0)
        assert not thread.is_alive()
    attacked = ProtocolConfig(c=c, d=d, basis_set=basis_set, eve=basis_set.bases[0] if relay else None)
    assert outcomes == [run_trial(attacked, t, seed) for t in range(n)]
    return hashlib.sha256(b"".join(sinks[name].digest() for name in writers)).hexdigest()


class TestWireBytes:
    # Recorded before quantum_state lines were assembled from cached
    # fragments; any change to a byte on the wire changes these.
    PINS = {
        (2, 3, False): "c89c8126db2f2fd6ac64b82fba4653dcbcb4cec2a2b92a413126a91c87f0dc90",
        (2, 3, True): "b221a6b31fe402e223854db74c9d4d737d8172f8fe8f26bfcc4396b592ea16b7",
        (3, 4, False): "62ab1a92a921de74f202b4e7444c6c65bb41f58d7644651c94a61d5adb6d59fb",
        (3, 4, True): "935bd31b1e44909ed1d060c614976444c770b64d150a7765f2f4b424451d69b6",
        (5, 6, False): "18bcc0239feda8184a3af8182c969b29f82caec3f62ed40d6b688c91a070d3a5",
        (5, 6, True): "68f05ff7020132b772c42d86e82437dd7e077feb0cc30ffea33105e3ad4ce483",
        (7, 8, False): "3d320cf4c245b5801eb7cde9d1bce1664bfbe6bacac2d2c7b5b094c96e4ceae3",
        (7, 8, True): "cb28ec1732f6c179f45aae7fb779dea11499c8e937d88c51c01a882483f8bcd3",
    }

    @pytest.mark.parametrize("d,c,relay", sorted(PINS))
    def test_session_bytes_are_pinned(self, d, c, relay):
        assert wire_digest(d, c, relay) == self.PINS[(d, c, relay)]
