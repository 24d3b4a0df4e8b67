import collections
import functools
import gc
import hashlib
import inspect
import json
import math
import re
import socket
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hselab.bases as bases_module
import hselab.channel as ch
from conftest import free_port, make_random_basis, make_random_set
from hselab.bases import BasisSet, breidbart_basis, fourier_basis, mu_basis_set, save_basis_set
from hselab.errors import (
    CodecError,
    DimensionError,
    HandshakeError,
    HselabError,
    InvalidParameter,
    ProtocolError,
    SessionError,
)
from hselab.protocol import ALICE, BLOCK, EVE, EveInterceptor, alice_prepare, run_trial
from hselab.rates import ProtocolConfig
from hselab.hilbert import TAU_NORM, Basis, StateVector
from hselab.rng import RandomStream

# crosses two block boundaries and ends inside a third block
BLOCK_TRIALS = 2 * BLOCK + 5

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

    def test_integer_too_long_to_convert(self):
        # json.loads raises a plain ValueError past int()'s digit limit
        amps = b"[[1.0,0.0],[0.0,0.0]]"
        known = ch.KnownStates(4)
        known.read(ch._state_line(0, 0, amps))
        assert len(known) == 1
        line = b'{"type":"quantum_state","trial_id":%s,"slot":0,"amps":%s}\n' % (b"7" * 5000, amps)
        for decode in (ch.decode, known.read):
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


def read_by_decode(line):
    """The oracle for `KnownStates.read`: the message `decode` gives, with
    a QuantumState as its (trial_id, slot, amps)."""
    msg = ch.decode(line)
    if isinstance(msg, ch.QuantumState):
        return msg.trial_id, msg.slot, msg.amps
    return msg


class TestKnownStates:
    @given(state_lines())
    @settings(max_examples=200, deadline=None)
    def test_same_result_as_decode(self, case):
        capacity, lines = case
        known = ch.KnownStates(capacity)
        for line in lines + lines:  # the second pass meets the keys the first stored
            assert decoded(known.read, line) == decoded(read_by_decode, line)
        assert len(known) <= capacity

    def test_a_tail_after_amps_never_enters_the_table(self, sixstate):
        amps = ch._amps_json(sixstate.bases[1].vectors[0].pairs())
        tail = b',"trial_id":7,"x":[1]}\n'
        known = ch.KnownStates(6)
        for trial_id in (3, 5):
            assert known.read(ch._state_line(trial_id, 0, amps)[:-2] + tail)[0] == 7
        assert len(known) == 0
        honest = ch._state_line(5, 0, amps)
        assert known.read(honest) == read_by_decode(honest)
        assert len(known) == 1
        # the stored key is the amps alone, so the tail still takes the slow path
        assert known.read(ch._state_line(3, 0, amps)[:-2] + tail)[0] == 7

    def test_table_holds_at_most_c_times_d(self, qutrit4):
        c, d = 4, 3
        known = ch.KnownStates(c * d)
        strangers = [v for seed in range(30) for v in make_random_basis(d, seed).vectors]
        assert len({v.pairs() for v in strangers}) == 90
        for trial_id, state in enumerate(strangers):
            known.read(ch.encode(ch.QuantumState(trial_id, 0, state.pairs())))
        assert len(known) == c * d
        for basis in qutrit4.bases:
            for state in basis.vectors:
                line = ch.encode(ch.QuantumState(99, 1, state.pairs()))
                assert known.read(line) == read_by_decode(line)
        assert len(known) == c * d

    def test_a_dropped_sets_renders_are_freed(self):
        family = make_random_set(3, 4, seed=12)
        states = [v for basis in family.bases for v in basis.vectors]
        known = ch.KnownStates(12, states)
        assert [ch._RENDERED[v] for v in states] == [ch._amps_json(v.pairs()) for v in states]
        assert all(known.read(ch._state_line(0, 0, ch._RENDERED[v]))[2] is v.pairs() for v in states)
        rendered, alive = len(ch._RENDERED), [weakref.ref(v) for v in states]
        del family, states, known
        gc.collect()
        assert not any(ref() for ref in alive)
        assert len(ch._RENDERED) <= rendered - 12


class TestSeededKnownStates:
    """Bob's reader starts with the c*d states of his set."""

    @pytest.mark.parametrize("d,c", [(2, 3), (3, 4), (7, 8), (13, 14)])
    def test_seeded_entries_are_what_decode_gives(self, d, c, monkeypatch):
        self.assert_seeded_entries_decode_as_given(mu_basis_set(d, c), monkeypatch)

    def test_seeded_entries_of_random_and_signed_zero_sets(self, monkeypatch):
        minus = BasisSet([Basis("minus", -np.eye(2, dtype=complex)), fourier_basis(2)])
        for basis_set in (make_random_set(5, 3, 4), minus):
            self.assert_seeded_entries_decode_as_given(basis_set, monkeypatch)

    @staticmethod
    def assert_seeded_entries_decode_as_given(basis_set, monkeypatch):
        """Each of the set's state lines reads, without `decode`, as the
        fields of the message `decode` gives, and the set takes no learned
        room."""
        states = [v for basis in basis_set.bases for v in basis.vectors]
        lines = [ch._state_line(t, t % 7, ch._amps_json(v.pairs())) for t, v in enumerate(states)]
        expected = [decoded(read_by_decode, line) for line in lines]
        known = ch.KnownStates(0, states)
        with monkeypatch.context() as patch:
            patch.setattr(ch, "decode", None)
            assert [decoded(known.read, line) for line in lines] == expected
            assert [known.read(line)[2] for line in lines] == [v.pairs() for v in states]
        assert len(known) == 0

    def test_seeded_entries_leave_the_room_for_learned_ones(self, sixstate):
        known = ch.KnownStates(2, [v for basis in sixstate.bases for v in basis.vectors])
        strangers = [make_random_basis(2, 60 + k).vectors[0] for k in range(3)]
        for state in strangers:
            line = ch.encode(ch.QuantumState(1, 0, state.pairs()))
            assert known.read(line) == read_by_decode(line)
        assert len(known) == 2


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
            assert decoded(known.read, line) == decoded(read_by_decode, line)
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

        def no_decode(line):
            raise AssertionError(f"decode called on {line!r}")

        monkeypatch.setattr(ch, "decode", no_decode)
        assert ch.KnownStates(0).read(line) == expected


def run_pair(cfg, n_trials, seed, basis_set_id="sixstate", compare=True, record=False):
    """Run alice and bob over an in-process pair; returns (alice log, outcomes,
    recording transports if requested)."""
    alice_t, bob_t = ch.memory_transport_pair()
    if record:
        alice_t, bob_t = RecordingTransport(alice_t), RecordingTransport(bob_t)
    result = {}

    def alice():
        result["log"] = ch.run_session("alice", alice_t, cfg, n_trials, seed, basis_set_id, compare=compare)

    worker = threading.Thread(target=alice)
    worker.start()
    outcomes = ch.run_session("bob", bob_t, cfg, n_trials, seed, basis_set_id, compare=compare)
    worker.join()
    return result["log"], outcomes, (alice_t, bob_t)


def honest_replies(cfg, set_id, n_trials, seed):
    """Bob's lines to Alice up to her closing read: his Hello and the sift
    report of each trial, as run_trial gives it."""
    sifts = [ch.SiftReport(t, run_trial(cfg, t, seed).sifted) for t in range(n_trials)]
    return [ch.encode(msg) for msg in [ch.Hello(1, cfg.c, cfg.d, set_id), *sifts]]


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

    def test_handshake_basis_set_check_on_both_ends(self, cfg23):
        alice_t, bob_t = ch.memory_transport_pair()
        errors = {}

        def alice():
            try:
                ch.run_session("alice", alice_t, cfg23, 1, 1, "sixstate")
            except HandshakeError as exc:
                errors["alice"] = str(exc)

        worker = threading.Thread(target=alice)
        worker.start()
        with pytest.raises(HandshakeError, match="^basis set mismatch: 'sixstate' != 'custom'$"):
            ch.run_session("bob", bob_t, cfg23, 1, 1, "custom")
        worker.join()
        alice_t.close()
        bob_t.close()
        assert errors == {"alice": "basis set mismatch: 'custom' != 'sixstate'"}

    def test_a_first_line_other_than_hello_fails_the_handshake(self, cfg23):
        alice_t, bob_t = ch.memory_transport_pair()
        alice_t.send_line(ch.encode(ch.SiftReport(0, True)))
        with pytest.raises(HandshakeError, match="^expected hello, got SiftReport$"):
            ch.run_session("bob", bob_t, cfg23, 1, 1, "sixstate")

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

    @pytest.mark.parametrize("role", ["alice", "bob"])
    def test_negative_trial_count_rejected_before_the_handshake(self, cfg23, role):
        ours, theirs = ch.memory_transport_pair()
        with pytest.raises(InvalidParameter, match="-1"):
            ch.run_session(role, ours, cfg23, -1, 1, "sixstate")
        ours.close()
        assert theirs.recv_line() is None

    def test_zero_trials_is_an_empty_session(self, cfg23):
        log, outcomes, _ = run_pair(cfg23, 0, seed=1)
        assert outcomes == [] and (log.trials, log.key) == (0, ())

    def test_error_bye_at_the_close_is_a_session_error(self, cfg23):
        # Bob refuses the key comparison after the last sift report
        reason = "ProtocolError: key comparison range (0, 2) does not match session"
        alice_t, bob_t = ch.memory_transport_pair()
        for line in [*honest_replies(cfg23, "sixstate", 2, 1), ch.encode(ch.Bye(reason))]:
            bob_t.send_line(line)
        with pytest.raises(SessionError, match=re.escape(f"at the close: {reason}")):
            ch.run_session("alice", alice_t, cfg23, 2, 1, "sixstate")

    @pytest.mark.parametrize(
        "trial_id, reply, got",
        [
            (0, ch.IndexAnnounce(0, (1, 0)), "IndexAnnounce(trial_id=0, a=(1, 0))"),
            (1, ch.IndexAnnounce(1, (0, 0)), "IndexAnnounce(trial_id=1, a=(0, 0))"),
            (1, ch.SiftReport(0, True), "SiftReport(trial_id=0, sifted=True)"),
            (0, ch.QuantumState(0, 0, ((1.0, 0.0), (0.0, 0.0))), "(0, 0, ((1.0, 0.0), (0.0, 0.0)))"),
        ],
    )
    def test_a_reply_other_than_the_sift_report_is_named(self, cfg23, trial_id, reply, got):
        # Bob's honest replies up to the trial, then `reply` in place of its sift report
        alice_t, bob_t = ch.memory_transport_pair()
        for line in [*honest_replies(cfg23, "sixstate", trial_id, 1), ch.encode(reply)]:
            bob_t.send_line(line)
        with pytest.raises(ProtocolError) as err:
            ch.run_session("alice", alice_t, cfg23, 3, 1, "sixstate")
        assert str(err.value) == f"expected sift report for trial {trial_id}, got {got}"

    def test_role_validated(self, cfg23):
        with pytest.raises(ValueError):
            ch.run_session("carol", None, cfg23, 1, 1)

    @pytest.mark.parametrize("runner", ["run_session", "serve_session", "connect_session"])
    def test_options_after_the_set_id_are_keyword_only(self, runner):
        # a positional argument after basis_set_id is a TypeError, never compare
        params = inspect.signature(getattr(ch, runner)).parameters
        after = list(params)[list(params).index("basis_set_id") + 1 :]
        assert after and all(params[name].kind is inspect.Parameter.KEYWORD_ONLY for name in after)

    def test_state_past_the_last_slot_rejected(self, cfg23, sixstate):
        # c states in one trial: Bob stops with ProtocolError and tells Alice why
        alice_t, bob_t = ch.memory_transport_pair()
        alice_t.send_line(ch.encode(ch.Hello(1, 3, 2, "sixstate")))
        state = sixstate.bases[0].vectors[0]
        for slot in range(3):
            alice_t.send_line(ch.encode(ch.QuantumState(0, slot, state.pairs())))
        with pytest.raises(ProtocolError, match="more than 2 states in trial 0"):
            ch.run_session("bob", bob_t, cfg23, 1, 1, "sixstate")
        assert isinstance(ch.decode(alice_t.recv_line()), ch.Hello)
        bye = ch.decode(alice_t.recv_line())
        assert isinstance(bye, ch.Bye) and bye.reason.startswith("ProtocolError: more than 2 states")

    def test_sessions_across_blocks_match_per_trial_runner(self, qutrit4):
        cfg = ProtocolConfig(c=4, d=3, basis_set=qutrit4)
        log, outcomes, _ = run_pair(cfg, BLOCK_TRIALS, seed=31, basis_set_id="qutrit4")
        assert outcomes == [run_trial(cfg, t, 31) for t in range(BLOCK_TRIALS)]
        assert log.letters == tuple(o.x for o in outcomes)


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

    def test_eof_is_sticky(self, monkeypatch):
        monkeypatch.setattr(ch, "_RECV_TIMEOUT", 0.3)
        left, right = ch.memory_transport_pair()
        left.close()
        started = time.monotonic()
        assert [right.recv_line(), right.recv_line()] == [None, None]
        assert time.monotonic() - started < 0.1

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

    def test_close_wakes_a_reader_blocked_on_the_same_transport(self):
        # a relay pump closes the side that the other pump is reading
        left, right = socket.socketpair()
        transport = ch.TcpTransport(left)
        got = []
        reader = threading.Thread(target=lambda: got.append(transport.recv_line()))
        try:
            reader.start()
            time.sleep(0.05)
            started = time.monotonic()
            transport.close()
            reader.join(1.0)
            assert not reader.is_alive()
            assert time.monotonic() - started < 1.0
            assert got == [None]
        finally:
            transport.close()
            right.close()

    def test_send_to_a_peer_that_never_reads_times_out(self, monkeypatch):
        monkeypatch.setattr(ch, "_RECV_TIMEOUT", 0.3)
        left, right = socket.socketpair()
        transport = ch.TcpTransport(left)
        try:
            started = time.monotonic()
            with pytest.raises(SessionError, match="^send failed: timed out$"):
                transport.send_line(b"x" * 64 * 2**20)
            assert time.monotonic() - started < 2.0
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

    def test_an_overlong_line_in_small_pieces_raises_promptly(self, monkeypatch):
        monkeypatch.setattr(ch, "_MAX_LINE", 2**20)
        left, right = socket.socketpair()
        transport = ch.TcpTransport(left)
        blob = b"x" * (2**20 + 1)  # and no newline ever follows

        def write():
            for start in range(0, len(blob), 4096):
                right.sendall(blob[start : start + 4096])

        writer = threading.Thread(target=write)
        try:
            started = time.monotonic()
            writer.start()
            with pytest.raises(CodecError):
                transport.recv_line()
            assert time.monotonic() - started < 1.0
            writer.join(5.0)
            assert not writer.is_alive()
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


class TestTcpFraming:
    @given(
        st.lists(st.binary(max_size=300).map(lambda b: b.replace(b"\n", b"") + b"\n"), max_size=20),
        st.lists(st.integers(0, 6100), max_size=12),
        st.sampled_from([1, 7, 64, 2**16]),
    )
    @settings(max_examples=50, deadline=None)
    def test_lines_come_back_one_per_call_however_the_bytes_are_cut(self, lines, cuts, chunk):
        """A raw peer writes the lines in pieces cut at arbitrary points,
        inside lines too; the reader may read fewer bytes at a time than a
        piece holds.  Each line comes back whole, then None at every call."""
        stream = b"".join(lines)
        bounds = sorted({0, len(stream), *(cut for cut in cuts if cut < len(stream))})
        left, right = socket.socketpair()
        with pytest.MonkeyPatch.context() as patch:
            # a reader that waits for bytes never written fails in 1 s, not 60
            patch.setattr(ch, "_RECV_TIMEOUT", 1.0)
            transport = ch.TcpTransport(left)
        got = []
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ch, "_RECV_CHUNK", chunk)
                for lo, hi in zip(bounds, bounds[1:]):
                    right.sendall(stream[lo:hi])
                    # read each line the written bytes complete, and no further
                    while len(got) < stream.count(b"\n", 0, hi):
                        got.append(transport.recv_line())
                right.shutdown(socket.SHUT_WR)
                tail = [transport.recv_line() for _ in range(3)]
        finally:
            transport.close()
            right.close()
        assert got == lines
        assert tail == [None, None, None]


def _dial_with_retry(connect, port, cfg, n, seed, basis_set_id="sixstate", attempts=50, pause=0.05):
    for _ in range(attempts):
        try:
            return connect("127.0.0.1", port, "alice", cfg, n, seed, basis_set_id=basis_set_id)
        except SessionError as exc:
            if not isinstance(exc.__cause__, ConnectionRefusedError):
                raise
            time.sleep(pause)
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


def scalar_interceptions(eve_basis, seed, fraction, trials):
    """The records the scalar EveInterceptor makes over `trials`, a list of
    (trial_id, states) in the order they reach the relay."""
    records = []
    for trial_id, states in trials:
        eve = EveInterceptor(eve_basis, RandomStream(seed, EVE, trial_id), fraction)
        for slot, state in enumerate(states):
            outcome = eve.maybe_intercept(state)
            if outcome is not None:
                records.append(ch.InterceptionRecord(trial_id, slot, outcome))
    return records


def sent_states(cfg, n, seed):
    """Alice's (trial_id, states) for trials 0..n-1, as run_trial prepares them."""
    trials = []
    for t in range(n):
        rng = RandomStream(seed, ALICE, t)
        x = rng.randint(cfg.c)
        trials.append((t, alice_prepare(x, cfg, rng)[0]))
    return trials


class TestMitm:
    def run_with_interceptor(self, basis_set, cfg, n, seed, eve_basis=None, intercept_fraction=1.0):
        """alice -> (pair A) -> interceptor -> (pair B) -> bob, in-process;
        Eve measures in basis_set's first basis unless told otherwise."""
        alice_t, eve_a = ch.memory_transport_pair()
        eve_b, bob_t = ch.memory_transport_pair()
        eve_a, eve_b = RecordingTransport(eve_a), RecordingTransport(eve_b)
        results = {}

        def alice():
            results["log"] = ch.run_session("alice", alice_t, cfg, n, seed, "sixstate")

        def eavesdropper():
            basis = basis_set.bases[0] if eve_basis is None else eve_basis
            results["mitm"] = ch.run_mitm_pumps(eve_a, eve_b, basis, seed, intercept_fraction)

        threads = [threading.Thread(target=alice), threading.Thread(target=eavesdropper)]
        for t in threads:
            t.start()
        results["outcomes"] = ch.run_session("bob", bob_t, cfg, n, seed, "sixstate")
        # bob returning means the session is over: let alice read his
        # relayed bye (closing her end first races that read), then
        # unblock the pumps
        threads[0].join(timeout=10)
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

    @pytest.mark.parametrize("fraction", [0.25, 0.5])
    @pytest.mark.parametrize("set_name", ["sixstate", "qutrit4"])
    def test_partial_interception_matches_in_process_attack(self, request, set_name, fraction):
        basis_set = request.getfixturevalue(set_name)
        cfg = ProtocolConfig(c=basis_set.c, d=basis_set.d, basis_set=basis_set)
        attacked = ProtocolConfig(
            c=cfg.c, d=cfg.d, basis_set=basis_set, eve=basis_set.bases[0], intercept_fraction=fraction
        )
        n, seed = 150, 23
        results, _, _ = self.run_with_interceptor(basis_set, cfg, n, seed, intercept_fraction=fraction)
        assert results["outcomes"] == [run_trial(attacked, t, seed) for t in range(n)]
        records = results["mitm"].records
        assert records == scalar_interceptions(attacked.eve, seed, fraction, sent_states(cfg, n, seed))
        # some states pass and some are intercepted
        assert 0 < len(records) < (cfg.c - 1) * n

    def test_relayed_sessions_across_blocks_match_in_process_attack(self, qutrit4):
        cfg = ProtocolConfig(c=4, d=3, basis_set=qutrit4)
        eve = qutrit4.bases[2]
        attacked = ProtocolConfig(c=4, d=3, basis_set=qutrit4, eve=eve, intercept_fraction=0.5)
        results, _, _ = self.run_with_interceptor(
            qutrit4, cfg, BLOCK_TRIALS, 13, eve_basis=eve, intercept_fraction=0.5
        )
        assert results["outcomes"] == [run_trial(attacked, t, 13) for t in range(BLOCK_TRIALS)]
        sent = sent_states(cfg, BLOCK_TRIALS, 13)
        assert results["mitm"].records == scalar_interceptions(eve, 13, 0.5, sent)

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    @pytest.mark.parametrize(
        "hello,trial_ids,slots",
        [
            # trial ids far apart and out of order, one of them past 2**64
            (True, (10**18 - 1, 3, 2**64 + 5, 64), 3),
            # more slots than the Hello's c-1: draws past the block row
            (True, (0, 1), 9),
            # no Hello: no rows, every draw from the scalar stream
            (False, (5,), 3),
        ],
    )
    def test_relay_measures_any_trial_ids_as_the_scalar_interceptor(
        self, qutrit4, fraction, hello, trial_ids, slots
    ):
        eve_basis, seed = qutrit4.bases[1], 21
        alice_t, eve_a = ch.memory_transport_pair()
        eve_b, bob_t = ch.memory_transport_pair()
        results = {}

        def eavesdropper():
            results["mitm"] = ch.run_mitm_pumps(eve_a, eve_b, eve_basis, seed, fraction)

        relay = threading.Thread(target=eavesdropper)
        relay.start()
        if hello:
            alice_t.send_line(ch.encode(ch.Hello(1, 4, 3, "qutrit4")))
        trials = []
        for trial_id in trial_ids:
            states = [qutrit4.bases[(trial_id + k) % 4].vectors[k % 3] for k in range(slots)]
            for slot, state in enumerate(states):
                alice_t.send_line(ch.encode(ch.QuantumState(trial_id, slot, state.pairs())))
            alice_t.send_line(ch.encode(ch.IndexAnnounce(trial_id, (0,) * slots)))
            trials.append((trial_id, states))
        alice_t.close()
        relay.join(5.0)
        assert not relay.is_alive()
        bob_t.close()
        records = results["mitm"].records
        assert records == scalar_interceptions(eve_basis, seed, fraction, trials)
        assert records

    def test_eve_draws_follow_each_trial_past_its_row(self):
        # one stream object for the whole relay: pointing it at a trial
        # drops the scalar tail of the trial before
        seed, width = 4, 2
        blocks = ch.TrialBlocks(seed, EVE, width, lambda u: u.tolist())
        draws = ch._EveDraws(seed)
        for trial_id in (3, 70, 3, 5):
            draws.at(trial_id, blocks[trial_id])
            scalar = RandomStream(seed, EVE, trial_id)
            n = width + 3  # past the row, into the scalar tail
            assert [draws.uniform() for _ in range(n)] == [scalar.uniform() for _ in range(n)]

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

    def test_state_of_another_dimension_passes_the_relay_to_bob(self, sixstate, cfg23):
        # a unit vector of C^3 in a (2,3) session: the relay forwards it as
        # it came, and Bob names it in a Bye that the relay brings to Alice
        alice_t, eve_a = ch.memory_transport_pair()
        eve_b, bob_t = ch.memory_transport_pair()
        to_alice = RecordingTransport(eve_a)
        results = {}

        def eavesdropper():
            results["mitm"] = ch.run_mitm_pumps(to_alice, eve_b, sixstate.bases[0], 1)

        relay = threading.Thread(target=eavesdropper)
        relay.start()
        wide = ch.encode(ch.QuantumState(0, 0, ((1.0, 0.0), (0.0, 0.0), (0.0, 0.0))))
        alice_t.send_line(ch.encode(ch.Hello(1, 3, 2, "sixstate")))
        alice_t.send_line(wide + ch.encode(ch.IndexAnnounce(0, (0, 0))))
        try:
            with pytest.raises(ProtocolError) as err:
                ch.run_session("bob", bob_t, cfg23, 1, 1, "sixstate")
        finally:
            alice_t.close()
            bob_t.close()
            relay.join(5.0)
        assert not relay.is_alive()
        assert str(err.value) == "state with 3 amplitudes, expected 2"
        assert ch.decode(to_alice.sent[-1]) == ch.Bye("ProtocolError: state with 3 amplitudes, expected 2")
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

    def test_log_may_be_read_while_the_relay_runs(self, sixstate, cfg23, monkeypatch):
        """Readers polling `records` during a session each see a prefix of
        the final log, never a torn or shrinking one."""
        n, seed = 100, 12
        expected = scalar_interceptions(sixstate.bases[0], seed, 1.0, sent_states(cfg23, n, seed))
        logs = []

        class SeenLog(ch.MitmLog):
            def __init__(self):
                super().__init__()
                logs.append(self)

        monkeypatch.setattr(ch, "MitmLog", SeenLog)
        done = threading.Event()
        seen = [[] for _ in range(4)]  # per reader: (length, is a prefix) of each read

        def reader(reads):
            while not done.is_set():
                if logs:
                    records = logs[0].records
                    reads.append((len(records), records == expected[: len(records)]))

        readers = [threading.Thread(target=reader, args=(reads,)) for reads in seen]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in readers:
                thread.start()
            results, _, _ = self.run_with_interceptor(sixstate, cfg23, n, seed)
        finally:
            done.set()
            sys.setswitchinterval(interval)
            for thread in readers:
                thread.join(5.0)
        assert not any(thread.is_alive() for thread in readers)
        assert results["mitm"].records == expected
        for reads in seen:
            lengths = [length for length, _ in reads]
            assert lengths == sorted(lengths)
            assert all(prefix for _, prefix in reads)
        assert any(0 < length < len(expected) for reads in seen for length, _ in reads)

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

    def count_full_state_decodes(self, monkeypatch):
        """Full decodes of quantum_state lines, by (thread name, amps)."""
        full_decodes = collections.Counter()
        decode = ch.decode

        def counting_decode(line):
            msg = decode(line)
            if isinstance(msg, ch.QuantumState):
                full_decodes[threading.current_thread().name, msg.amps] += 1
            return msg

        monkeypatch.setattr(ch, "decode", counting_decode)
        return full_decodes

    def test_each_distinct_state_is_decoded_once_per_endpoint(self, monkeypatch):
        basis_set = mu_basis_set(7, 8)
        cfg = ProtocolConfig(c=8, d=7, basis_set=basis_set)
        eve = basis_set.bases[0]
        full_decodes = self.count_full_state_decodes(monkeypatch)
        results, _, _ = self.run_with_interceptor(None, cfg, 200, 5, eve_basis=eve)
        attacked = ProtocolConfig(c=8, d=7, basis_set=basis_set, eve=eve)
        assert results["outcomes"] == [run_trial(attacked, t, 5) for t in range(200)]
        assert set(full_decodes.values()) == {1}
        per_endpoint = collections.Counter(name for name, _ in full_decodes)
        # the 7 states Eve resends are in Bob's set, which he knows from the
        # start, so he decodes none; the relay meets Alice's 56
        assert "MainThread" not in per_endpoint
        assert len(per_endpoint) == 1 and sum(per_endpoint.values()) <= 56

    def test_states_outside_the_set_are_learned_once(self, sixstate, cfg23, monkeypatch):
        # Breidbart's eigenstates are not in Bob's set: he decodes each in
        # full once, so his set's entries leave him room to learn them
        breidbart = breidbart_basis()
        full_decodes = self.count_full_state_decodes(monkeypatch)
        n, seed = 200, 6
        results, _, _ = self.run_with_interceptor(sixstate, cfg23, n, seed, eve_basis=breidbart)
        attacked = ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=breidbart)
        assert results["outcomes"] == [run_trial(attacked, t, seed) for t in range(n)]
        bob = {amps: count for (name, amps), count in full_decodes.items() if name == "MainThread"}
        assert bob == {v.pairs(): 1 for v in breidbart.vectors}

    def test_codec_calls_do_not_grow_with_trials(self, qutrit4, monkeypatch):
        """Past the first sight of each state, no per-trial line goes
        through encode or decode, and no QuantumState is made for it."""
        cfg = ProtocolConfig(c=4, d=3, basis_set=qutrit4)
        eve = qutrit4.bases[0]
        attacked = ProtocolConfig(c=4, d=3, basis_set=qutrit4, eve=eve)
        encode, decode, make_state = ch.encode, ch.decode, ch.QuantumState.__init__
        calls = collections.Counter()

        def counting_make_state(self, *args, **kwargs):
            calls["make", "QuantumState"] += 1
            make_state(self, *args, **kwargs)

        def counting_encode(msg):
            calls["encode", type(msg).__name__] += 1
            return encode(msg)

        def counting_decode(line):
            msg = decode(line)
            calls["decode", type(msg).__name__] += 1
            return msg

        monkeypatch.setattr(ch, "encode", counting_encode)
        monkeypatch.setattr(ch, "decode", counting_decode)
        monkeypatch.setattr(ch.QuantumState, "__init__", counting_make_state)
        counts = {}
        for n in (20, 200):
            calls.clear()
            results, _, _ = self.run_with_interceptor(None, cfg, n, 2, eve_basis=eve)
            assert results["outcomes"] == [run_trial(attacked, t, 2) for t in range(n)]
            counts[n] = dict(calls)
        assert counts[20] == counts[200]
        # at seed 2 the relay has met all 12 of Alice's states by trial 20 and
        # decoded each in full once; Bob knows the 3 that Eve resends from
        # the start, as they are in his set
        assert counts[200][("decode", "QuantumState")] == 12
        assert counts[200][("make", "QuantumState")] == 12
        assert ("decode", "IndexAnnounce") not in counts[200]
        assert ("decode", "SiftReport") not in counts[200]
        assert not {kind for op, kind in counts[200] if op == "encode"} & {"IndexAnnounce", "SiftReport"}

    def test_each_endpoint_matches_a_line_once(self, sixstate, cfg23, monkeypatch):
        """Alice, Bob and the relay's forward pump each match every line
        they read against the quantum_state shape at most once."""
        matches = []  # (thread name, line) of each match; a list's append is atomic
        pattern = ch._STATE_LINE

        class CountingPattern:
            def fullmatch(self, line):
                matches.append((threading.current_thread().name, line))
                return pattern.fullmatch(line)

        monkeypatch.setattr(ch, "_STATE_LINE", CountingPattern())
        # Breidbart's eigenstates are outside Bob's set, and half the states
        # pass: he meets known and unknown states, the relay both as well
        breidbart = breidbart_basis()
        n, seed = 100, 4
        results, _, _ = self.run_with_interceptor(
            sixstate, cfg23, n, seed, eve_basis=breidbart, intercept_fraction=0.5
        )
        attacked = ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=breidbart, intercept_fraction=0.5)
        assert results["outcomes"] == [run_trial(attacked, t, seed) for t in range(n)]
        counts = collections.Counter(matches)
        assert max(counts.values()) == 1
        assert len({name for name, _ in counts}) == 3
        # Bob matches each state and announcement, the key comparison and the bye
        assert sum(name == "MainThread" for name, _ in counts) == 3 * n + 2

    def test_a_hello_with_negative_c_leaves_the_relay_nothing_to_learn(self, sixstate, monkeypatch):
        tables = []

        class SeenTable(ch.BornTable):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        monkeypatch.setattr(ch, "BornTable", SeenTable)
        alice_t, eve_a = ch.memory_transport_pair()
        eve_b, bob_t = ch.memory_transport_pair()
        results = {}

        def eavesdropper():
            results["mitm"] = ch.run_mitm_pumps(eve_a, eve_b, sixstate.bases[0], 1)

        relay = threading.Thread(target=eavesdropper)
        relay.start()
        alice_t.send_line(ch.encode(ch.Hello(1, -1, 2, "sixstate")))
        for t in range(50):
            state = make_random_basis(2, 300 + t).vectors[0]
            alice_t.send_line(ch.encode(ch.QuantumState(t, 0, state.pairs())))
        alice_t.close()
        relay.join(5.0)
        bob_t.close()
        assert not relay.is_alive()
        assert [table.capacity for table in tables] == [0, -2]
        assert len(tables[-1]) == 0
        assert len(results["mitm"].records) == 50

    def test_error_rate_seen_by_bob(self, sixstate, cfg23):
        results, _, _ = self.run_with_interceptor(sixstate, cfg23, 5000, 3)
        outcomes = results["outcomes"]
        sifted = [o for o in outcomes if o.sifted]
        wrong = sum(o.bob_letter != o.x for o in sifted)
        p_hat = wrong / len(sifted)
        stderr = math.sqrt(p_hat * (1 - p_hat) / len(sifted))
        assert abs(p_hat - 4 / 7) <= 4 * stderr


def relayed_session(cfg, set_id, eve_basis, n, seed, intercept_fraction=1.0):
    """Alice and Bob on cfg under `set_id`, through run_mitm_pumps in
    memory; returns Bob's outcomes and the relay's log."""
    alice_t, eve_a = ch.memory_transport_pair()
    eve_b, bob_t = ch.memory_transport_pair()
    results = {}

    def alice():
        results["alice"] = ch.run_session("alice", alice_t, cfg, n, seed, set_id)

    def relay():
        results["mitm"] = ch.run_mitm_pumps(eve_a, eve_b, eve_basis, seed, intercept_fraction)

    threads = [threading.Thread(target=alice), threading.Thread(target=relay)]
    for thread in threads:
        thread.start()
    outcomes = ch.run_session("bob", bob_t, cfg, n, seed, set_id)
    threads[0].join(10.0)
    alice_t.close()
    bob_t.close()
    for thread in threads:
        thread.join(10.0)
        assert not thread.is_alive()
    return outcomes, results["mitm"]


@pytest.fixture
def relay_tables(monkeypatch):
    """The relay's BornTables and KnownStates readers as they are made:
    (kind, table, number of states it starts with).  Only the relay makes a
    BornTable in `channel`, so a reader made on a thread that made one is
    the relay's."""
    made = []

    def recording(kind, base, states_at):
        class Recorded(base):
            def __init__(self, *args):
                super().__init__(*args)
                states = args[states_at] if len(args) > states_at else ()
                made.append((kind, threading.current_thread(), self, len(states)))

        monkeypatch.setattr(ch, kind, Recorded)

    recording("BornTable", ch.BornTable, 2)
    recording("KnownStates", ch.KnownStates, 1)

    def relay_only():
        relay_threads = {thread for kind, thread, _, _ in made if kind == "BornTable"}
        return [(kind, table, n) for kind, thread, table, n in made if thread in relay_threads]

    return relay_only


class TestRelayPrefill:
    """The relay starts from the public set the sender's Hello names."""

    @pytest.mark.parametrize("d,c,fraction", [(7, 8, 1.0), (5, 6, 0.5), (2, 3, 1.0)])
    def test_an_honest_mub_session_makes_no_full_decode_at_the_relay(
        self, d, c, fraction, relay_tables, monkeypatch
    ):
        basis_set = mu_basis_set(d, c)
        cfg = ProtocolConfig(c=c, d=d, basis_set=basis_set)
        eve = basis_set.bases[0]
        full_decodes = TestMitm().count_full_state_decodes(monkeypatch)
        n, seed = 100, 5
        outcomes, log = relayed_session(cfg, "mub", eve, n, seed, fraction)
        attacked = ProtocolConfig(c=c, d=d, basis_set=basis_set, eve=eve, intercept_fraction=fraction)
        assert outcomes == [run_trial(attacked, t, seed) for t in range(n)]
        assert log.records
        # Eve resends states of Bob's set, so no endpoint decodes a state in full
        assert not full_decodes
        tables = relay_tables()
        assert {kind for kind, _, _ in tables} == {"BornTable", "KnownStates"}
        # the tables made at the Hello start with the set, and learn nothing
        hello_tables = [(table, n) for _, table, n in tables if table.capacity]
        assert [n for _, n in hello_tables] == [c * d, c * d]
        assert all(table.capacity == c * d and len(table) == 0 for table, _ in hello_tables)

    @pytest.mark.parametrize("d,c", [(3, 4), (5, 3)])
    def test_a_hello_naming_a_set_alice_does_not_use(self, d, c, relay_tables):
        # Alice and Bob agree on the id "prime" but hold a random set: the
        # relay starts with the prime set's states, which never come, and
        # learns Alice's within its room of c*d
        basis_set = make_random_set(d, c, 17)
        cfg = ProtocolConfig(c=c, d=d, basis_set=basis_set)
        eve = basis_set.bases[1]
        n, seed = 150, 8
        outcomes, _ = relayed_session(cfg, "prime", eve, n, seed)
        attacked = ProtocolConfig(c=c, d=d, basis_set=basis_set, eve=eve)
        assert outcomes == [run_trial(attacked, t, seed) for t in range(n)]
        hello_tables = [(table, n) for _, table, n in relay_tables() if table.capacity]
        assert [n for _, n in hello_tables] == [c * d, c * d]
        assert all(0 < len(table) <= c * d for table, _ in hello_tables)

    def hostile_hello_session(self, sixstate, cfg23, set_id, c):
        """A Hello naming `set_id` at (2, c), a few trials of Bob's and
        random states, then Bye, through the relay to a Bob on cfg23 under
        `set_id`: what each party ended with and what the relay wrote."""
        alice_t, eve_a = ch.memory_transport_pair()
        eve_b, bob_t = ch.memory_transport_pair()
        to_alice, to_bob = RecordingTransport(eve_a), RecordingTransport(eve_b)
        alice_t.send_line(ch.encode(ch.Hello(1, c, 2, set_id)))
        for t in range(6):
            for slot in range(2):
                state = sixstate.bases[t % 3].vectors[slot] if t < 3 else make_random_basis(2, 40 + t).vectors[slot]
                alice_t.send_line(ch.encode(ch.QuantumState(t, slot, state.pairs())))
            alice_t.send_line(ch._announce_line(t, (1, 2)))
        alice_t.send_line(ch.encode(ch.Bye("done")))
        result = {}

        def outcome(name, run):
            try:
                result[name] = run()
            except Exception as exc:
                result[name] = repr(exc)

        relay = threading.Thread(
            target=outcome, args=("relay", lambda: ch.run_mitm_pumps(to_alice, to_bob, sixstate.bases[0], 1))
        )
        relay.start()
        outcome("bob", lambda: ch.run_session("bob", bob_t, cfg23, 6, 1, set_id))
        # Alice's end stays open until Bob is done, so that the relay
        # forwards all he wrote before either side's EOF ends it
        bob_t.close()
        relay.join(5.0)
        alice_t.close()
        assert not relay.is_alive()
        if not isinstance(result["relay"], str):
            result["relay"] = result["relay"].records
        return result, to_bob.sent, to_alice.sent

    @pytest.mark.parametrize(
        "set_id,c",
        [
            ("file:{path}", 3),
            ("standard", 3),
            ("", 3),
            ("MUB", 3),
            ("mub\x00", 3),
            ("../{path}", 3),
            ("prime", 3),
            ("fourier", 3),
            ("sixstate", 4),
            ("qutrit4", 3),
            *(("mub", c) for c in (-1, 0, 1, 4, 10**6)),
        ],
    )
    def test_a_hostile_hello_starts_nothing_and_ends_as_without_prefill(
        self, sixstate, cfg23, set_id, c, tmp_path, relay_tables, monkeypatch
    ):
        # a file the relay would find, holding a set of the Hello's size
        path = tmp_path / "six.json"
        save_basis_set(sixstate, path)
        set_id = set_id.format(path=path)
        opened = []

        def no_load(path):
            opened.append(path)
            raise AssertionError("the relay opened a basis-set file")

        monkeypatch.setattr(bases_module, "load_basis_set", no_load)
        with_prefill = self.hostile_hello_session(sixstate, cfg23, set_id, c)
        tables = relay_tables()
        monkeypatch.setattr(ch, "_public_states", lambda *args: [])
        assert self.hostile_hello_session(sixstate, cfg23, set_id, c) == with_prefill
        assert opened == []
        assert tables and all(n == 0 for _, _, n in tables)

    def test_no_relay_table_starts_with_more_than_d_times_d_plus_1_states(self, relay_tables):
        for d, c in [(2, 3), (3, 4), (5, 6)]:
            basis_set = mu_basis_set(d, c)
            cfg = ProtocolConfig(c=c, d=d, basis_set=basis_set)
            relayed_session(cfg, "mub", basis_set.bases[0], 3, 1)
        starts = [n for _, _, n in relay_tables()]
        assert max(starts) == 5 * 6 and all(n <= 5 * 6 for n in starts)


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


def bob_reads(cfg, set_id, lines, n_trials=4):
    """Run Bob over a memory pair on a Hello and then `lines`, each its own
    write; returns (his outcomes or the error he raised, the lines he wrote).
    Alice's end closes after the last line."""
    alice_t, bob_t = ch.memory_transport_pair()
    bob_side = RecordingTransport(bob_t)
    for line in [ch.encode(ch.Hello(1, cfg.c, cfg.d, set_id)), *lines]:
        alice_t.send_line(line)
    alice_t.close()
    try:
        result = ch.run_session("bob", bob_side, cfg, n_trials, 3, set_id)
    except HselabError as exc:
        result = exc
    return result, bob_side.sent


def state_line(cfg, trial_id, slot):
    return ch.encode(ch.QuantumState(trial_id, slot, cfg.basis_set.bases[0].vectors[0].pairs()))


def borderline_states(d, n, seed=0):
    """n random amplitude tuples of dimension d, each scaled so that its
    |a|^2 lies within rounding of the TAU_NORM bound, where the order in
    which the squares are added decides the norm check."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v *= math.sqrt(1 + TAU_NORM) / np.linalg.norm(v)
        yield tuple(zip(v.real.tolist(), v.imag.tolist()))


def sum_in_order(pairs):
    total = 0.0
    for re_, im in pairs:
        total += re_ * re_ + im * im
    return total


def passes(check, *args):
    try:
        check(*args)
    except HselabError:
        return False
    return True


class TestBobSessionRules:
    """Bob's BobSession checks the order of what he is sent; whatever he
    stops on, he names in a Bye."""

    @pytest.mark.parametrize(
        "follow, reason",
        [
            ("state", "state after the key comparison"),
            ("announcement", "announcement after the key comparison"),
            ("comparison", "key comparison after the key comparison"),
        ],
    )
    def test_only_bye_follows_the_key_comparison(self, cfg23, follow, reason):
        # a comparison before the last trial, then more of the session
        lines = {
            "state": [state_line(cfg23, 0, 0), state_line(cfg23, 0, 1), ch.encode(ch.IndexAnnounce(0, (0, 0)))],
            "announcement": [ch.encode(ch.IndexAnnounce(0, (0, 0)))],
            "comparison": [ch.encode(ch.KeyCompare((0, 0), ()))],
        }[follow]
        compare = ch.encode(ch.KeyCompare((0, 0), ()))
        error, sent = bob_reads(cfg23, "sixstate", [compare, *lines, ch.encode(ch.Bye("done"))])
        assert isinstance(error, ProtocolError) and str(error) == reason
        assert ch.decode(sent[-1]) == ch.Bye(f"ProtocolError: {reason}")

    def test_codec_and_state_vector_agree_on_the_norm(self):
        # summed pair by pair, as the codec once did, and by np.sum, which
        # adds in another order from 8 terms up, 1 in 20 of these disagree
        for pairs in borderline_states(11, 1000):
            line = ch.encode(ch.QuantumState(0, 0, pairs))
            state = [complex(re_, im) for re_, im in pairs]
            assert passes(ch.decode, line) == passes(StateVector, state), pairs

    def test_state_the_codec_refuses_is_named_in_bobs_bye(self):
        # a state the codec used to pass and Bob's table then refused with
        # InvalidParameter, which ended his session without a Bye
        cfg = ProtocolConfig(c=3, d=11, basis_set=mu_basis_set(11, 3))
        pairs = next(
            p for p in borderline_states(11, 10_000)
            if abs(sum_in_order(p) - 1) <= TAU_NORM and not passes(StateVector, [complex(re_, im) for re_, im in p])
        )
        error, sent = bob_reads(cfg, "mub", [ch.encode(ch.QuantumState(0, 0, pairs))])
        assert isinstance(error, CodecError) and "not normalized" in str(error)
        assert ch.decode(sent[-1]) == ch.Bye(f"CodecError: {error}")


# what a hostile Alice may send in place of her honest next line; each
# reads a variant number modulo its own count of variants
HOSTILE_KINDS = ("mutated", "elsewhere", "wrong d", "announce", "compare", "hello", "sift", "junk")
ELSEWHERE = ((1, 0), (0, 1), (-1, 0), (0, -1), (2, 1), (0, 2))


def hostile_lines(cfg, set_id, segments, honest_tail):
    """Bob-bound lines: for each (n, kind, variant) segment, Alice's next n
    honest lines and then one line of that kind, then `honest_tail` more
    honest lines.  The honest cursor, trial t and slot s, moves only on
    honest lines; the other kinds are rendered against it."""
    c, d = cfg.c, cfg.d
    t = s = 0
    lines = []

    def honest():
        nonlocal t, s
        if s < c - 1:
            lines.append(ch.encode(ch.QuantumState(t, s, cfg.basis_set.bases[t % c].vectors[(t + s) % d].pairs())))
            s += 1
        else:
            lines.append(ch.encode(ch.IndexAnnounce(t, tuple((t + j) % d for j in range(c - 1)))))
            t, s = t + 1, 0

    for n, kind, k in segments:
        for _ in range(n):
            honest()
        pairs = cfg.basis_set.bases[(t + 1) % c].vectors[k % d].pairs()
        if kind == "mutated":
            mutate = MUTATIONS[sorted(MUTATIONS)[k % len(MUTATIONS)]]
            lines.append(mutate(ch.encode(ch.QuantumState(t, s, pairs)), ch._amps_json(pairs)))
        elif kind == "elsewhere":
            dt, ds = ELSEWHERE[k % len(ELSEWHERE)]
            lines.append(ch.encode(ch.QuantumState(t + dt, s + ds, pairs)))
        elif kind == "wrong d":
            n_amps = d + 1 if k % 2 else d - 1
            lines.append(ch.encode(ch.QuantumState(t, s, ((1.0, 0.0),) + ((0.0, 0.0),) * (n_amps - 1))))
        elif kind == "announce":
            dt, a = (
                (0, (0,) * (c - 1)),  # early, unless all the trial's states are in
                (1, (0,) * (c - 1)),  # for the next trial
                (-1, (0,) * (c - 1)),  # for the last trial
                (0, (0,) * c),  # too long
                (0, (0,) * (c - 2) + (d,)),  # an index out of range
                (0, (0,) * (c - 2)),  # too short
            )[k % 6]
            lines.append(ch.encode(ch.IndexAnnounce(t + dt, a)))
        elif kind == "compare":
            # the concluded trials' range and letters (half the variants), a
            # range one too long, a letter too many, a letter out of range
            variant = max(k % 6 - 2, 0)
            letters = (0,) * (t + (variant in (1, 2))) + ((c,) if variant == 3 else ())
            lines.append(ch.encode(ch.KeyCompare((0, t + (variant == 1)), letters)))
        elif kind == "hello":
            lines.append(ch.encode(ch.Hello(1, c, d, set_id)))
        elif kind == "sift":
            lines.append(ch.encode(ch.SiftReport(t, bool(k % 2))))
        else:
            lines.append(b"not json\n")
    for _ in range(honest_tail):
        honest()
    return lines


class TestHostileAlice:
    """Bob against sequences of honest and hostile lines: he returns, or
    stops with ProtocolError, CodecError or SessionError, within 2 s of the
    last line; when he stops on a protocol or codec error, the last line he
    wrote is a Bye that names it."""

    @given(
        st.sampled_from(["sixstate", "qutrit4"]),
        st.lists(st.tuples(st.integers(0, 7), st.sampled_from(HOSTILE_KINDS), st.integers(0, 11)), max_size=3),
        st.integers(0, 7),
        # a silent end waits out Bob's timeout, so it comes up least often
        st.sampled_from(["bye", "bye", "close", "close", "silence"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bob_ends_promptly_and_says_why(self, sixstate, qutrit4, set_id, segments, honest_tail, end):
        basis_set = {"sixstate": sixstate, "qutrit4": qutrit4}[set_id]
        cfg = ProtocolConfig(c=basis_set.c, d=basis_set.d, basis_set=basis_set)
        alice_t, bob_t = ch.memory_transport_pair()
        bob_side = RecordingTransport(bob_t)
        lines = hostile_lines(cfg, set_id, segments, honest_tail)
        for line in [ch.encode(ch.Hello(1, cfg.c, cfg.d, set_id)), *lines]:
            alice_t.send_line(line)
        if end == "bye":
            alice_t.send_line(ch.encode(ch.Bye("done")))
        elif end == "close":
            alice_t.close()
        result = {}

        def bob():
            try:
                result["outcomes"] = ch.run_session("bob", bob_side, cfg, 4, 3, set_id)
            except Exception as exc:
                result["error"] = exc

        with pytest.MonkeyPatch.context() as patch:
            # Bob gives up on a silent Alice after this long
            patch.setattr(ch, "_RECV_TIMEOUT", 0.5)
            worker = threading.Thread(target=bob)
            started = time.monotonic()
            worker.start()
            worker.join(2.0)
            took = time.monotonic() - started
            alice_t.close()
            worker.join(5.0)
        assert took < 2.0 and not worker.is_alive()
        error = result.get("error")
        last = ch.decode(bob_side.sent[-1])
        if error is None:
            assert last == ch.Bye("done")
        else:
            assert isinstance(error, (ProtocolError, CodecError, SessionError)), repr(error)
            if not isinstance(error, SessionError):
                assert last == ch.Bye(f"{type(error).__name__}: {error}")


class TestHostileAliceThroughTheRelay:
    """TestHostileAlice's lines sent through a memory relay that intercepts
    half or all of the states.  Bob ends as he does there.  The relay returns
    its log, or raises SessionError only if Alice falls silent and its read
    times out, and no thread outlives the session.
    When Bob stops on a protocol or codec error, the last line the relay
    forwards to Alice is his Bye naming it, unless she closed first: then
    the relay closes towards Bob as soon as it reads her EOF."""

    @given(
        st.sampled_from(["sixstate", "qutrit4"]),
        st.lists(st.tuples(st.integers(0, 7), st.sampled_from(HOSTILE_KINDS), st.integers(0, 11)), max_size=3),
        st.integers(0, 7),
        st.sampled_from(["bye", "bye", "close", "close", "silence"]),
        st.sampled_from([0.5, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bob_and_the_relay_end_promptly(self, sixstate, qutrit4, set_id, segments, honest_tail, end, fraction):
        basis_set = {"sixstate": sixstate, "qutrit4": qutrit4}[set_id]
        cfg = ProtocolConfig(c=basis_set.c, d=basis_set.d, basis_set=basis_set)
        alice_t, eve_a = ch.memory_transport_pair()
        eve_b, bob_t = ch.memory_transport_pair()
        to_alice, bob_side = RecordingTransport(eve_a), RecordingTransport(bob_t)
        lines = hostile_lines(cfg, set_id, segments, honest_tail)
        for line in [ch.encode(ch.Hello(1, cfg.c, cfg.d, set_id)), *lines]:
            alice_t.send_line(line)
        if end == "bye":
            alice_t.send_line(ch.encode(ch.Bye("done")))
        elif end == "close":
            alice_t.close()
        result = {}

        def bob():
            try:
                result["outcomes"] = ch.run_session("bob", bob_side, cfg, 4, 3, set_id)
            except Exception as exc:
                result["error"] = exc

        def relay():
            try:
                result["log"] = ch.run_mitm_pumps(to_alice, eve_b, basis_set.bases[1], 3, fraction)
            except Exception as exc:
                result["relay error"] = exc

        before = set(threading.enumerate())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ch, "_RECV_TIMEOUT", 0.5)
            workers = [threading.Thread(target=bob), threading.Thread(target=relay)]
            started = time.monotonic()
            for worker in workers:
                worker.start()
            workers[0].join(2.0)
            took = time.monotonic() - started
            alice_t.close()
            bob_t.close()
            workers[1].join(2.0)
            relay_took = time.monotonic() - started
        assert took < 2.0 and relay_took < 4.0
        assert set(threading.enumerate()) == before
        assert ("log" in result) != ("relay error" in result)
        if "relay error" in result:
            assert end == "silence" and isinstance(result["relay error"], SessionError), repr(result["relay error"])
        error = result.get("error")
        if error is None:
            assert ch.decode(bob_side.sent[-1]) == ch.Bye("done")
        else:
            assert isinstance(error, (ProtocolError, CodecError, SessionError)), repr(error)
            if not isinstance(error, SessionError):
                bye = ch.Bye(f"{type(error).__name__}: {error}")
                assert ch.decode(bob_side.sent[-1]) == bye
                if end != "close":
                    assert ch.decode(to_alice.sent[-1]) == bye


# what a hostile Bob may send in place of his honest next line; each reads
# a variant number modulo its own count of variants
HOSTILE_REPLIES = ("wrong trial", "repeat", "hello", "junk", "loose json", "bye")
JUNK = (b"not json\n", b"\xff\xfe\n", b"[1, 2]\n", b'{"type":"sift_report","trial_id":0}\n', b"\n", b"{}")
BYES = ("done", "ProtocolError: key comparison range (0, -1) does not match session", "", "CodecError: x")


def hostile_replies(cfg, set_id, n_trials, seed, segments, honest_tail):
    """Alice-bound lines: for each (n, kind, variant) segment, Bob's next n
    honest lines (honest_replies, then Bye("done")) and then one line of
    that kind, then `honest_tail` more honest lines.  The honest cursor p
    moves on honest lines and on "loose json", which renders the next
    honest line with json.dumps' own spacing or key order."""
    honest = [*honest_replies(cfg, set_id, n_trials, seed), ch.encode(ch.Bye("done"))]
    p = 0
    lines = []

    def honest_at(i):
        return honest[min(i, len(honest) - 1)]

    def next_honest():
        nonlocal p
        lines.append(honest_at(p))
        p += 1

    for n, kind, k in segments:
        for _ in range(n):
            next_honest()
        if kind == "wrong trial":
            # the next trial but one, the one after, or the last one
            lines.append(ch.encode(ch.SiftReport(p - 1 + (1, 2, -1)[k % 3], bool(k % 2))))
        elif kind == "repeat":
            lines.append(honest_at(max(p - 1, 0)))
        elif kind == "hello":
            lines.append(honest[0])
        elif kind == "junk":
            lines.append(JUNK[k % len(JUNK)])
        elif kind == "loose json":
            obj = json.loads(honest_at(p))
            lines.append(json.dumps(obj, sort_keys=bool(k % 2)).encode() + b"\n")
            p += 1
        else:
            lines.append(ch.encode(ch.Bye(BYES[k % len(BYES)])))
    for _ in range(honest_tail):
        next_honest()
    return lines


def alice_may_return(cfg, set_id, n_trials, seed, lines, end):
    """Whether Alice's n+2 reads see Bob's Hello, his honest sift reports
    for trials 0..n-1 and Bye("done"), or EOF in place of that Bye."""
    expected = [*honest_replies(cfg, set_id, n_trials, seed), ch.encode(ch.Bye("done"))]
    if len(lines) == n_trials + 1 and end == "close":
        expected.pop()
    if len(lines) < len(expected):
        return False
    for line, want in zip(lines, expected):
        try:
            if ch.decode(line) != ch.decode(want):
                return False
        except CodecError:
            return False
    return True


class TestHostileBob:
    """Alice against sequences of honest and hostile replies: she returns,
    or stops with ProtocolError, CodecError, HandshakeError or SessionError,
    within twice her receive timeout, and no thread outlives the session.
    She returns only on Bob's Hello, the honest sift reports for her trials
    and then Bye("done") or EOF."""

    TIMEOUT = 0.25
    SEED = 3

    @given(
        st.sampled_from(["sixstate", "qutrit4"]),
        st.integers(0, 3),
        st.lists(st.tuples(st.integers(0, 5), st.sampled_from(HOSTILE_REPLIES), st.integers(0, 11)), max_size=2),
        st.integers(0, 6),
        # a silent end waits out Alice's timeout, so it comes up least often
        st.sampled_from(["close", "close", "close", "silence"]),
    )
    # an error Bye in place of Bob's Bye("done")
    @example("sixstate", 2, [(3, "bye", 1)], 0, "close")
    @settings(max_examples=60, deadline=None)
    def test_alice_ends_promptly(self, sixstate, qutrit4, set_id, n_trials, segments, honest_tail, end):
        basis_set = {"sixstate": sixstate, "qutrit4": qutrit4}[set_id]
        cfg = ProtocolConfig(c=basis_set.c, d=basis_set.d, basis_set=basis_set)
        lines = hostile_replies(cfg, set_id, n_trials, self.SEED, segments, honest_tail)
        alice_t, bob_t = ch.memory_transport_pair()
        for line in lines:
            bob_t.send_line(line)
        if end == "close":
            bob_t.close()
        result = {}

        def alice():
            try:
                result["log"] = ch.run_session("alice", alice_t, cfg, n_trials, self.SEED, set_id)
            except Exception as exc:
                result["error"] = exc

        before = set(threading.enumerate())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ch, "_RECV_TIMEOUT", self.TIMEOUT)
            worker = threading.Thread(target=alice)
            started = time.monotonic()
            worker.start()
            worker.join(2 * self.TIMEOUT)
            took = time.monotonic() - started
            bob_t.close()
            worker.join(5.0)
        assert took < 2 * self.TIMEOUT and not worker.is_alive()
        assert set(threading.enumerate()) == before
        if alice_may_return(cfg, set_id, n_trials, self.SEED, lines, end):
            outcomes = [run_trial(cfg, t, self.SEED) for t in range(n_trials)]
            assert "error" not in result, repr(result["error"])
            assert result["log"].key == tuple(o.x for o in outcomes if o.sifted)
        else:
            assert "log" not in result
            error = result["error"]
            assert isinstance(error, (ProtocolError, CodecError, HandshakeError, SessionError)), repr(error)


class TestHostileBobThroughTheRelay:
    """TestHostileBob's replies sent to Alice through the relay's pump
    towards her, which forwards them byte-identically: Alice returns, or
    stops with ProtocolError, CodecError, HandshakeError or SessionError,
    within twice her receive timeout.  She returns when she would without
    the relay, and also when the relay fails on a silent Bob after her
    last honest reply: she reads its close as his.  The relay returns its
    log, or raises SessionError, and no thread outlives the session."""

    TIMEOUT = 0.25
    SEED = 3

    @given(
        st.sampled_from(["sixstate", "qutrit4"]),
        st.integers(0, 3),
        st.lists(st.tuples(st.integers(0, 5), st.sampled_from(HOSTILE_REPLIES), st.integers(0, 11)), max_size=2),
        st.integers(0, 6),
        # a silent end waits out a timeout, so it comes up least often
        st.sampled_from(["close", "close", "close", "silence"]),
        st.sampled_from([0.5, 1.0]),
    )
    @settings(max_examples=30, deadline=None)
    def test_alice_and_the_relay_end_promptly(
        self, sixstate, qutrit4, set_id, n_trials, segments, honest_tail, end, fraction
    ):
        basis_set = {"sixstate": sixstate, "qutrit4": qutrit4}[set_id]
        cfg = ProtocolConfig(c=basis_set.c, d=basis_set.d, basis_set=basis_set)
        lines = hostile_replies(cfg, set_id, n_trials, self.SEED, segments, honest_tail)
        alice_t, eve_a = ch.memory_transport_pair()
        eve_b, bob_t = ch.memory_transport_pair()
        for line in lines:
            bob_t.send_line(line)
        if end == "close":
            bob_t.close()
        result = {}

        def alice():
            try:
                result["log"] = ch.run_session("alice", alice_t, cfg, n_trials, self.SEED, set_id)
            except Exception as exc:
                result["error"] = exc

        def relay():
            try:
                result["relay log"] = ch.run_mitm_pumps(eve_a, eve_b, basis_set.bases[1], self.SEED, fraction)
            except Exception as exc:
                result["relay error"] = exc

        before = set(threading.enumerate())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ch, "_RECV_TIMEOUT", self.TIMEOUT)
            workers = [threading.Thread(target=alice), threading.Thread(target=relay)]
            started = time.monotonic()
            for worker in workers:
                worker.start()
            workers[0].join(2 * self.TIMEOUT)
            took = time.monotonic() - started
            alice_t.close()
            bob_t.close()
            workers[1].join(2 * self.TIMEOUT)
            relay_took = time.monotonic() - started
        assert took < 2 * self.TIMEOUT and relay_took < 4 * self.TIMEOUT
        assert set(threading.enumerate()) == before
        assert ("relay log" in result) != ("relay error" in result)
        if "relay error" in result:
            assert isinstance(result["relay error"], SessionError), repr(result["relay error"])
        if "log" in result:
            # a relay that fails on a silent Bob closes Alice's side, which
            # she reads as his close
            seen = "close" if "relay error" in result else end
            assert alice_may_return(cfg, set_id, n_trials, self.SEED, lines, seen)
            outcomes = [run_trial(cfg, t, self.SEED) for t in range(n_trials)]
            assert result["log"].key == tuple(o.x for o in outcomes if o.sifted)
        else:
            assert not alice_may_return(cfg, set_id, n_trials, self.SEED, lines, end)
            error = result["error"]
            assert isinstance(error, (ProtocolError, CodecError, HandshakeError, SessionError)), repr(error)


def play_raw_peer(sock, lines, end) -> bytes:
    """A hostile peer on a connected plain socket: it writes `lines`, shuts
    its sending side if `end` is "close" (else it falls silent), and reads
    until the endpoint closes, so that it never resets a connection the
    endpoint still reads.  Closes the socket and returns what it read."""
    heard = []
    with sock:
        sock.settimeout(5.0)
        try:
            sock.sendall(b"".join(lines))
            if end == "close":
                sock.shutdown(socket.SHUT_WR)
            while chunk := sock.recv(65536):
                heard.append(chunk)
        except OSError:  # the endpoint closed with our lines unread
            pass
    return b"".join(heard)


class TestHostilePeersOverTcp:
    """TestHostileAlice's lines and TestHostileBob's replies, written by a
    plain socket to `serve_session` and `connect_session` on loopback,
    directly and through `run_mitm` at f in {0.5, 1}.  The endpoint returns
    when it would over memory, or stops with ProtocolError, CodecError,
    HandshakeError or SessionError, within BOUND of its start; through the
    relay Alice may also fail a send with SessionError once Bob has closed
    (see test_hostile_bob).  The relay returns its log or raises
    SessionError, and no thread or socket is left (an unclosed socket's
    ResourceWarning fails the run)."""

    TIMEOUT = 0.25
    BOUND = 4 * TIMEOUT
    SEED = 3

    def run_parties(self, endpoint, peer, relay):
        """Run the endpoint, the raw peer and, unless `relay` is None,
        run_mitm(*relay) between them, each on a thread of its own.
        Returns each party's result, or the exception it raised under
        "<name> error"."""
        result = {}

        def party(name, fn):
            def run():
                try:
                    result[name] = fn()
                except Exception as exc:
                    result[f"{name} error"] = exc

            return threading.Thread(target=run, name=name)

        threads = [party("endpoint", endpoint), party("peer", peer)]
        if relay is not None:
            threads.append(party("relay", lambda: ch.run_mitm(*relay)))
        before = set(threading.enumerate())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ch, "_RECV_TIMEOUT", self.TIMEOUT)
            started = time.monotonic()
            for thread in threads:
                thread.start()
            threads[0].join(self.BOUND)
            took = time.monotonic() - started
            for thread in threads:
                thread.join(self.BOUND)
        assert took < self.BOUND
        assert set(threading.enumerate()) == before
        assert "peer error" not in result, repr(result["peer error"])
        if relay is not None:
            assert ("relay" in result) != ("relay error" in result)
            if "relay error" in result:
                assert isinstance(result["relay error"], SessionError), repr(result["relay error"])
        return result

    @pytest.mark.parametrize("relayed", [False, True], ids=["direct", "relayed"])
    @given(
        st.sampled_from(["sixstate", "qutrit4"]),
        st.lists(st.tuples(st.integers(0, 7), st.sampled_from(HOSTILE_KINDS), st.integers(0, 11)), max_size=3),
        st.integers(0, 7),
        st.sampled_from(["bye", "bye", "close", "close", "silence"]),
        st.sampled_from([0.5, 1.0]),
    )
    # Alice falls silent after two honest trials
    @example("sixstate", [], 6, "silence", 1.0)
    @settings(max_examples=25, deadline=None)
    def test_hostile_alice(self, sixstate, qutrit4, relayed, set_id, segments, honest_tail, end, fraction):
        basis_set = {"sixstate": sixstate, "qutrit4": qutrit4}[set_id]
        cfg = ProtocolConfig(c=basis_set.c, d=basis_set.d, basis_set=basis_set)
        lines = [ch.encode(ch.Hello(1, cfg.c, cfg.d, set_id)), *hostile_lines(cfg, set_id, segments, honest_tail)]
        if end == "bye":
            lines.append(ch.encode(ch.Bye("done")))
        bob_port, relay_port = free_port(), free_port()
        listening = threading.Event()

        def bob():
            return ch.serve_session("127.0.0.1", bob_port, "bob", cfg, 4, self.SEED, set_id, ready_event=listening)

        def alice():
            assert listening.wait(5.0)
            port = relay_port if relayed else bob_port
            for _ in range(100):
                try:
                    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
                    break
                except ConnectionRefusedError:  # the relay is not listening yet
                    time.sleep(0.01)
            else:
                raise AssertionError("listener never came up")
            return play_raw_peer(sock, lines, end)

        relay = (("127.0.0.1", relay_port), ("127.0.0.1", bob_port), basis_set.bases[1], self.SEED, fraction)
        result = self.run_parties(bob, alice, relay if relayed else None)
        if "endpoint" in result:
            # Bob read every line, so he closed with none unread, and his Bye reached her
            assert ch.decode(result["peer"].splitlines(keepends=True)[-1]) == ch.Bye("done")
        else:
            error = result["endpoint error"]
            assert isinstance(error, (ProtocolError, CodecError, SessionError)), repr(error)

    @pytest.mark.parametrize("relayed", [False, True], ids=["direct", "relayed"])
    @given(
        st.sampled_from(["sixstate", "qutrit4"]),
        st.integers(0, 3),
        st.lists(st.tuples(st.integers(0, 5), st.sampled_from(HOSTILE_REPLIES), st.integers(0, 11)), max_size=2),
        st.integers(0, 6),
        st.sampled_from(["close", "close", "close", "silence"]),
        st.sampled_from([0.5, 1.0]),
    )
    # every reply and a Bye("done") at once, before Alice has sent her trials
    @example("sixstate", 2, [], 5, "close", 1.0)
    # Bob falls silent after his first sift report
    @example("qutrit4", 3, [], 2, "silence", 0.5)
    @settings(max_examples=25, deadline=None)
    def test_hostile_bob(self, sixstate, qutrit4, relayed, set_id, n_trials, segments, honest_tail, end, fraction):
        basis_set = {"sixstate": sixstate, "qutrit4": qutrit4}[set_id]
        cfg = ProtocolConfig(c=basis_set.c, d=basis_set.d, basis_set=basis_set)
        lines = hostile_replies(cfg, set_id, n_trials, self.SEED, segments, honest_tail)
        relay_port = free_port()
        listener = socket.create_server(("127.0.0.1", 0))

        def bob():
            with listener:
                listener.settimeout(5.0)
                sock, _ = listener.accept()
            return play_raw_peer(sock, lines, end)

        def alice():
            port = relay_port if relayed else listener.getsockname()[1]
            return _dial_with_retry(ch.connect_session, port, cfg, n_trials, self.SEED, set_id, pause=0.01)

        relay = (("127.0.0.1", relay_port), listener.getsockname(), basis_set.bases[1], self.SEED, fraction)
        result = self.run_parties(alice, bob, relay if relayed else None)
        # a relay that fails on a silent Bob closes Alice's side, which she reads as his close
        seen = "close" if "relay error" in result else end
        may_return = alice_may_return(cfg, set_id, n_trials, self.SEED, lines, seen)
        if "endpoint" in result:
            assert may_return
            outcomes = [run_trial(cfg, t, self.SEED) for t in range(n_trials)]
            assert result["endpoint"].key == tuple(o.x for o in outcomes if o.sifted)
        else:
            error = result["endpoint error"]
            assert isinstance(error, (ProtocolError, CodecError, HandshakeError, SessionError)), repr(error)
            # at Bob's EOF the relay closes both ways of Alice's connection,
            # so a line she has still to send may fail with a broken pipe
            assert not may_return or (relayed and isinstance(error, SessionError)), repr(error)


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
