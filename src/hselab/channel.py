"""Wire protocol: message schema, newline-delimited JSON codec, in-process
and TCP transports, end-to-end sessions, and the man-in-the-middle relay.

The quantum channel is simulated by serializing state vectors.  That is
deliberately generous to the interceptor - she sees a full description of
each state - but the interceptor endpoint is constrained by construction
to measure in a fixed basis and resend the eigenstate, which is exactly
the attack model under study.  Classical messages (announcements, sift
reports, key comparison) are relayed by the interceptor byte-identically.

Per trial the message order is QuantumState x (c-1), then IndexAnnounce,
then SiftReport; one trial completes before the next begins.  Floats are
serialized with shortest round-tripping decimal form, so amplitudes
survive the wire bit-exactly.

Transports offer `send_line`, `recv_line` and `close`.  `send_line` takes
one or more whole newline-terminated lines and writes them in one call;
`recv_line` returns exactly one line, or None at EOF.  Alice writes each
trial's states and announcement in one `send_line`, and the relay holds
the states it forwards until the announcement, so every trial costs one
write in each direction.  Each side then waits for the other's reply, so
TCP transports set TCP_NODELAY: otherwise Nagle's algorithm and delayed
ACKs hold each small write back by tens of milliseconds.  `close` ends
both directions: the peer and any reader blocked on the closed end see
EOF.

Known states are encoded and measured by table lookup.  An honest Alice
only sends the c*d vectors of her basis set, and the relay only resends
the d eigenstates of Eve's basis, so Alice renders the `amps` JSON of her
c*d states once per session and the relay that of Eve's d states once per
run.  Bob and the relay measure through a `hilbert.BornTable`, keyed by a
state's exact amplitude pairs: a state's cumulative Born row is computed
the first time, validated as `born_sample` would, and reused after that.
Each table stores at most c*d states - Bob's from his configuration, the
relay's from the sender's Hello, and none before it - and computes any
further distinct state without storing it, so a sender cannot make it
grow.  The bytes on the wire are those `encode` gives for every message.

Every per-trial line is written by template and read by one fast reader.
`_state_line`, `_announce_line` and `_sift_line` render the quantum_state,
index_announce and sift_report lines with `%` formatting, byte for byte
what `json.dumps` gives for the same object, and `encode` renders those
three types through the same templates.  Hello, key_compare and bye lines,
one or two per session, go through `json.dumps`.

Each endpoint reads through a `KnownStates` reader.  It answers three exact
line shapes without `decode`, each with an optional newline and with N, K
and every index a plain JSON integer of at most 18 digits:

- `{"type":"index_announce","trial_id":N,"a":[i,...]}`;
- `{"type":"sift_report","trial_id":N,"sifted":true|false}`;
- `{"type":"quantum_state","trial_id":N,"slot":K,"amps":A}`, where A is a
  key of the reader's table of known states.

That table maps the exact `amps` bytes of a quantum_state line to the
amplitude pairs a full `decode` of that line returned.  Its capacity
follows the `BornTable` rule: c*d, Bob's from his configuration, the
relay's forward pump's from the sender's Hello, and 0 before it; Alice
reads her replies through a reader of capacity 0.  An entry is added only
after `decode` succeeded, and only when the line's `amps` bytes are the
canonical rendering `_amps_json` gives for the decoded pairs, so no key can
carry text from outside the amplitude list.  Every other line goes through
`decode`, which stays the only validator.
"""

from __future__ import annotations

import json
import math
import re
import socket
import threading
from dataclasses import dataclass
from queue import Empty, SimpleQueue

from .errors import CodecError, HandshakeError, ProtocolError, SessionError
from .hilbert import TAU_NORM, Basis, BornTable
from .protocol import EVE, AliceSession, BobSession, EveInterceptor, TrialOutcome
from .rates import ProtocolConfig
from .rng import RandomStream

PROTOCOL_VERSION = 1
DEFAULT_PORT = 7117
_RECV_TIMEOUT = 60.0
# longest line a TCP reader accepts, newline included; the longest honest
# line, KeyCompare, takes 2-3 bytes per trial
_MAX_LINE = 16 * 2**20


@dataclass(frozen=True)
class Hello:
    protocol_version: int
    c: int
    d: int
    basis_set_id: str


@dataclass(frozen=True)
class QuantumState:
    trial_id: int
    slot: int
    amps: tuple  # ((re, im), ...) - one pair per amplitude


@dataclass(frozen=True)
class IndexAnnounce:
    trial_id: int
    a: tuple


@dataclass(frozen=True)
class SiftReport:
    trial_id: int
    sifted: bool


@dataclass(frozen=True)
class KeyCompare:
    trial_id_range: tuple  # (lo, hi): trials lo..hi-1
    letters: tuple


@dataclass(frozen=True)
class Bye:
    reason: str


Message = Hello | QuantumState | IndexAnnounce | SiftReport | KeyCompare | Bye


def _amps_json(pairs) -> bytes:
    """The `amps` value of a quantum_state line."""
    return json.dumps([[re, im] for re, im in pairs], separators=(",", ":")).encode("ascii")


def _state_line(trial_id: int, slot: int, amps_json: bytes) -> bytes:
    """A quantum_state line: the same bytes json.dumps gives for the whole
    object, with the amplitudes already rendered by _amps_json."""
    return b'{"type":"quantum_state","trial_id":%d,"slot":%d,"amps":%s}\n' % (trial_id, slot, amps_json)


def _announce_line(trial_id: int, a) -> bytes:
    """An index_announce line: the same bytes json.dumps gives."""
    indices = ",".join(map(str, a)).encode("ascii")
    return b'{"type":"index_announce","trial_id":%d,"a":[%s]}\n' % (trial_id, indices)


def _sift_line(trial_id: int, sifted: bool) -> bytes:
    """A sift_report line: the same bytes json.dumps gives."""
    return b'{"type":"sift_report","trial_id":%d,"sifted":%s}\n' % (trial_id, b"true" if sifted else b"false")


def encode(msg: Message) -> bytes:
    """One message per line: UTF-8 JSON with a `type` discriminator."""
    if isinstance(msg, QuantumState):
        return _state_line(msg.trial_id, msg.slot, _amps_json(msg.amps))
    if isinstance(msg, IndexAnnounce):
        return _announce_line(msg.trial_id, msg.a)
    if isinstance(msg, SiftReport):
        return _sift_line(msg.trial_id, msg.sifted)
    if isinstance(msg, Hello):
        obj = {
            "type": "hello",
            "protocol_version": msg.protocol_version,
            "c": msg.c,
            "d": msg.d,
            "basis_set_id": msg.basis_set_id,
        }
    elif isinstance(msg, KeyCompare):
        obj = {
            "type": "key_compare",
            "trial_id": list(msg.trial_id_range),
            "letters": list(msg.letters),
        }
    elif isinstance(msg, Bye):
        obj = {"type": "bye", "reason": msg.reason}
    else:
        raise TypeError(f"not a message: {msg!r}")
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


# the per-trial lines exactly as the templates write them; the integers are
# capped at 18 digits so that int() never sees what json.loads rejects
_UINT = rb"(?:0|[1-9][0-9]{0,17})"
_STATE_LINE = re.compile(
    rb'\{"type":"quantum_state","trial_id":(%s),"slot":(%s),"amps":(.*)\}\n?' % (_UINT, _UINT),
    re.DOTALL,
)
_ANNOUNCE_LINE = re.compile(
    rb'\{"type":"index_announce","trial_id":(%s),"a":\[(%s(?:,%s)*)\]\}\n?' % (_UINT, _UINT, _UINT)
)
_SIFT_LINE = re.compile(rb'\{"type":"sift_report","trial_id":(%s),"sifted":(true|false)\}\n?' % _UINT)
_JSON_NUMBERS = (int, float)


def _plain_int(value, what: str, line_no=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CodecError(f"{what} must be an integer, got {value!r}", line_no)
    return value


def _trial_id(obj, line_no) -> int:
    tid = _plain_int(obj.get("trial_id"), "trial_id", line_no)
    if tid < 0:
        raise CodecError(f"trial_id must be nonnegative, got {tid}", line_no)
    return tid


def decode(line: bytes, line_no: int | None = None) -> Message:
    """Parse one wire line; every malformed input raises CodecError."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer too long to convert
        raise CodecError(f"unparseable line: {exc}", line_no) from None
    if not isinstance(obj, dict):
        raise CodecError(f"message must be an object, got {type(obj).__name__}", line_no)
    kind = obj.get("type")
    if kind == "hello":
        version = _plain_int(obj.get("protocol_version"), "protocol_version", line_no)
        c = _plain_int(obj.get("c"), "c", line_no)
        d = _plain_int(obj.get("d"), "d", line_no)
        set_id = obj.get("basis_set_id")
        if not isinstance(set_id, str):
            raise CodecError("basis_set_id must be a string", line_no)
        return Hello(protocol_version=version, c=c, d=d, basis_set_id=set_id)
    if kind == "quantum_state":
        tid = _trial_id(obj, line_no)
        slot = _plain_int(obj.get("slot"), "slot", line_no)
        amps = obj.get("amps")
        if not isinstance(amps, list) or len(amps) < 2:
            raise CodecError("amps must list at least 2 amplitude pairs", line_no)
        pairs = []
        norm_sq = 0.0
        for pair in amps:
            # json.loads gives exact lists, ints and floats; bool is not a number here
            if type(pair) is not list or len(pair) != 2:
                raise CodecError(f"amplitude must be a [re, im] pair, got {pair!r}", line_no)
            real, imag = pair
            if type(real) not in _JSON_NUMBERS or type(imag) not in _JSON_NUMBERS:
                raise CodecError(f"amplitude must be a [re, im] pair, got {pair!r}", line_no)
            try:
                real, imag = float(real), float(imag)
            except OverflowError:
                real = imag = math.inf
            if not (math.isfinite(real) and math.isfinite(imag)):
                raise CodecError(f"amplitude must be finite, got {pair!r}", line_no)
            pairs.append((real, imag))
            norm_sq += real * real + imag * imag
        if abs(norm_sq - 1.0) > TAU_NORM:
            raise CodecError(f"state vector not normalized: |amps|^2 = {norm_sq!r}", line_no)
        return QuantumState(trial_id=tid, slot=slot, amps=tuple(pairs))
    if kind == "index_announce":
        tid = _trial_id(obj, line_no)
        indices = obj.get("a")
        if not isinstance(indices, list) or not indices:
            raise CodecError("a must be a nonempty list of indices", line_no)
        return IndexAnnounce(
            trial_id=tid, a=tuple(_plain_int(v, "index", line_no) for v in indices)
        )
    if kind == "sift_report":
        tid = _trial_id(obj, line_no)
        sifted = obj.get("sifted")
        if not isinstance(sifted, bool):
            raise CodecError("sifted must be a boolean", line_no)
        return SiftReport(trial_id=tid, sifted=sifted)
    if kind == "key_compare":
        rng = obj.get("trial_id")
        if not (isinstance(rng, list) and len(rng) == 2):
            raise CodecError("trial_id must be a [lo, hi] pair", line_no)
        lo = _plain_int(rng[0], "range low", line_no)
        hi = _plain_int(rng[1], "range high", line_no)
        letters = obj.get("letters")
        if not isinstance(letters, list):
            raise CodecError("letters must be a list", line_no)
        return KeyCompare(
            trial_id_range=(lo, hi),
            letters=tuple(_plain_int(v, "letter", line_no) for v in letters),
        )
    if kind == "bye":
        reason = obj.get("reason")
        if not isinstance(reason, str):
            raise CodecError("reason must be a string", line_no)
        return Bye(reason=reason)
    raise CodecError(f"unknown message type {kind!r}", line_no)


class KnownStates:
    """Decodes wire lines, answering the per-trial lines without `decode`
    and repeats of known quantum_state lines from a table of at most
    `capacity` entries.

    A line that is exactly `_announce_line(N, a)`, `_sift_line(N, s)`, or
    `_state_line(N, K, A)` for a stored A, each with plain integers of at
    most 18 digits, gives the message that `decode` gives for it; every
    other line is passed to `decode`.  A is stored, with the pairs `decode`
    returned, only if the table has room and A is their canonical
    `_amps_json` rendering.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._pairs: dict = {}  # canonical amps bytes -> ((re, im), ...)

    def __len__(self) -> int:
        return len(self._pairs)

    def decode(self, line: bytes) -> Message:
        known = _STATE_LINE.fullmatch(line)
        if known is not None:
            trial_id, slot, amps = known.groups()
            pairs = self._pairs.get(amps)
            if pairs is not None:
                return QuantumState(trial_id=int(trial_id), slot=int(slot), amps=pairs)
        else:
            announce = _ANNOUNCE_LINE.fullmatch(line)
            if announce is not None:
                return IndexAnnounce(trial_id=int(announce[1]), a=tuple(map(int, announce[2].split(b","))))
            sift = _SIFT_LINE.fullmatch(line)
            if sift is not None:
                return SiftReport(trial_id=int(sift[1]), sifted=sift[2] == b"true")
        msg = decode(line)
        if (
            known is not None
            and len(self._pairs) < self.capacity
            and isinstance(msg, QuantumState)
            and amps == _amps_json(msg.amps)
        ):
            self._pairs[amps] = msg.amps
        return msg


class MemoryTransport:
    """One end of an in-process FIFO pair.  The queues are SimpleQueues,
    whose put and get run in C, so handing a line to another thread costs
    no Python-level locking."""

    def __init__(self, inbox: SimpleQueue, outbox: SimpleQueue):
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False
        self._unread = b""  # lines left over from the last multi-line item

    def send_line(self, line: bytes) -> None:
        if self._closed:
            raise SessionError("transport closed")
        self._outbox.put(line)

    def recv_line(self) -> bytes | None:
        if not self._unread:
            try:
                item = self._inbox.get(timeout=_RECV_TIMEOUT)
            except Empty:
                raise SessionError("timed out waiting for peer") from None
            if item is None:
                return None
            self._unread = item
        line, newline, self._unread = self._unread.partition(b"\n")
        return line + newline

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(None)
            self._inbox.put(None)


def memory_transport_pair() -> tuple[MemoryTransport, MemoryTransport]:
    a_to_b: SimpleQueue = SimpleQueue()
    b_to_a: SimpleQueue = SimpleQueue()
    return MemoryTransport(b_to_a, a_to_b), MemoryTransport(a_to_b, b_to_a)


class TcpTransport:
    """Newline-framed messages over one TCP connection.  A line longer
    than _MAX_LINE raises CodecError, so a peer that never sends a
    newline cannot grow the reader's buffer."""

    def __init__(self, sock: socket.socket):
        sock.settimeout(_RECV_TIMEOUT)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._reader = sock.makefile("rb")

    def send_line(self, line: bytes) -> None:
        try:
            self._sock.sendall(line)
        except OSError as exc:
            raise SessionError(f"send failed: {exc}") from exc

    def recv_line(self) -> bytes | None:
        try:
            line = self._reader.readline(_MAX_LINE + 1)
        except OSError as exc:
            raise SessionError(f"recv failed: {exc}") from exc
        except ValueError:
            # a relay pump may close this side while the other pump reads it
            if self._reader.closed:
                return None
            raise
        if len(line) > _MAX_LINE:
            raise CodecError(f"line longer than {_MAX_LINE} bytes")
        return line if line else None

    def close(self) -> None:
        # Shut down first: closing the reader waits for a readline that
        # another thread has blocked in, and the shutdown ends that read.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._reader.close()
        except OSError:
            pass
        self._sock.close()


def send_message(transport, msg: Message) -> None:
    transport.send_line(encode(msg))


def recv_message(transport) -> Message | None:
    line = transport.recv_line()
    if line is None:
        return None
    return decode(line)


@dataclass(frozen=True)
class AliceLog:
    """Alice-side session summary: what she sent and what survived."""

    letters: tuple
    key: tuple
    trials: int
    messages_sent: int


def run_session(
    role: str,
    transport,
    config: ProtocolConfig,
    n_trials: int,
    seed: int,
    basis_set_id: str = "custom",
    letters=None,
    compare: bool = True,
):
    """Drive one endpoint to completion.

    Returns the list of TrialOutcomes on the bob side and an AliceLog on
    the alice side.  Outcomes are identical to in-process run_trial with
    the same seed; Alice's basis choice never appears on the wire outside
    the final (explicitly public) key comparison.
    """
    if role not in ("alice", "bob"):
        raise ValueError(f"role must be alice or bob, got {role!r}")
    _handshake(transport, config, basis_set_id)
    if role == "alice":
        return _run_alice(transport, config, n_trials, seed, letters, compare)
    return _run_bob(transport, config, seed)


def _handshake(transport, config: ProtocolConfig, basis_set_id: str) -> None:
    send_message(
        transport,
        Hello(protocol_version=PROTOCOL_VERSION, c=config.c, d=config.d, basis_set_id=basis_set_id),
    )
    peer = recv_message(transport)
    if peer is None:
        raise SessionError("peer closed during handshake")
    if not isinstance(peer, Hello):
        raise HandshakeError(f"expected hello, got {type(peer).__name__}")
    if peer.protocol_version != PROTOCOL_VERSION:
        raise HandshakeError(f"protocol version mismatch: {peer.protocol_version} != {PROTOCOL_VERSION}")
    if (peer.c, peer.d) != (config.c, config.d):
        raise HandshakeError(
            f"alphabet/dimension mismatch: peer ({peer.c}, {peer.d}) != ours ({config.c}, {config.d})"
        )
    if peer.basis_set_id != basis_set_id:
        raise HandshakeError(f"basis set mismatch: {peer.basis_set_id!r} != {basis_set_id!r}")


def _run_alice(transport, config, n_trials, seed, letters, compare) -> AliceLog:
    session = AliceSession(config, seed, letters=letters)
    # the amps of vector a of basis x, for each of the c*d states she can send
    amps_json = [[_amps_json(v.pairs()) for v in basis.vectors] for basis in config.basis_set.bases]
    # her replies are sift reports and a bye; she is sent no states
    replies = KnownStates(0)
    sent = 0
    for t in range(n_trials):
        x, _, announced = session.states_for_trial(t)
        lines = [_state_line(t, slot, amps_json[x][a]) for slot, a in enumerate(announced)]
        lines.append(_announce_line(t, announced))
        transport.send_line(b"".join(lines))
        sent += len(lines)
        line = transport.recv_line()
        if line is None:
            raise SessionError(f"peer closed mid-session at trial {t}")
        reply = replies.decode(line)
        if isinstance(reply, Bye):
            raise SessionError(f"peer ended the session at trial {t}: {reply.reason}")
        if not isinstance(reply, SiftReport) or reply.trial_id != t:
            raise ProtocolError(f"expected sift report for trial {t}, got {reply!r}")
        session.record_sift(t, reply.sifted)
    if compare:
        send_message(
            transport,
            KeyCompare(trial_id_range=(0, n_trials), letters=tuple(session.raw_string)),
        )
        sent += 1
    send_message(transport, Bye(reason="done"))
    sent += 1
    reply = recv_message(transport)
    if reply is not None and not isinstance(reply, Bye):
        raise ProtocolError(f"expected bye, got {reply!r}")
    return AliceLog(
        letters=tuple(session.raw_string),
        key=tuple(session.key),
        trials=n_trials,
        messages_sent=sent,
    )


def _run_bob(transport, config, seed) -> list[TrialOutcome]:
    """Bob's loop; if the peer breaks the protocol or the codec, he tells
    it why in a Bye before raising."""
    try:
        return _bob_loop(transport, config, seed)
    except (ProtocolError, CodecError) as exc:
        try:
            send_message(transport, Bye(reason=f"{type(exc).__name__}: {exc}"))
        except SessionError:
            pass
        raise


def _bob_loop(transport, config, seed) -> list[TrialOutcome]:
    session = BobSession(config, seed)
    known = KnownStates(config.c * config.d)
    alice_letters = None
    expected_trial = 0
    expected_slot = 0
    while True:
        line = transport.recv_line()
        if line is None:
            raise SessionError("peer closed before bye")
        msg = known.decode(line)
        if isinstance(msg, QuantumState):
            if msg.trial_id != expected_trial or msg.slot != expected_slot:
                raise ProtocolError(
                    f"state for trial {msg.trial_id} slot {msg.slot}, "
                    f"expected trial {expected_trial} slot {expected_slot}"
                )
            if len(msg.amps) != config.d:
                raise ProtocolError(f"state with {len(msg.amps)} amplitudes, expected {config.d}")
            if expected_slot == 0:
                session.begin_trial(expected_trial)
            session.measure(expected_slot, msg.amps)
            expected_slot += 1
        elif isinstance(msg, IndexAnnounce):
            if msg.trial_id != expected_trial:
                raise ProtocolError(f"announcement for trial {msg.trial_id}, expected {expected_trial}")
            if expected_slot != config.c - 1:
                raise ProtocolError(
                    f"announcement after {expected_slot} of {config.c - 1} states"
                )
            if len(msg.a) != config.c - 1 or not all(0 <= v < config.d for v in msg.a):
                raise ProtocolError(f"malformed announcement {msg.a!r}")
            sifted, _ = session.conclude(expected_trial, msg.a)
            transport.send_line(_sift_line(expected_trial, sifted))
            expected_trial += 1
            expected_slot = 0
        elif isinstance(msg, KeyCompare):
            lo, hi = msg.trial_id_range
            if (lo, hi) != (0, expected_trial) or len(msg.letters) != expected_trial:
                raise ProtocolError(f"key comparison range {msg.trial_id_range} does not match session")
            if not all(0 <= v < config.c for v in msg.letters):
                raise ProtocolError(f"key comparison letters outside 0..{config.c - 1}")
            alice_letters = msg.letters
        elif isinstance(msg, Bye):
            send_message(transport, Bye(reason="done"))
            break
        else:
            raise ProtocolError(f"unexpected {type(msg).__name__} mid-session")
    return session.outcomes(alice_letters)


@dataclass(frozen=True)
class InterceptionRecord:
    trial_id: int
    slot: int
    outcome: int


class MitmLog:
    """Thread-safe record of what the interceptor measured."""

    def __init__(self):
        self._records: list[InterceptionRecord] = []
        self._lock = threading.Lock()

    def add(self, record: InterceptionRecord) -> None:
        with self._lock:
            self._records.append(record)

    @property
    def records(self) -> list[InterceptionRecord]:
        with self._lock:
            return list(self._records)


def run_mitm_pumps(
    alice_side, bob_side, eve_basis: Basis, seed: int, intercept_fraction: float = 1.0
) -> MitmLog:
    """Relay between two transports, measuring and replacing every quantum
    state while forwarding classical lines byte-identically.

    `alice_side` must be the transport facing the state sender.  A trial's
    states are held and written towards Bob together with the next line
    that is not a state, so each trial costs one write.  Blocks until both
    directions reach EOF; returns the interception log.  If either
    direction fails, both sides are closed, so that both endpoints see EOF,
    and the failure is raised as SessionError.
    """
    log = MitmLog()
    root = EveInterceptor(eve_basis, RandomStream(seed, EVE), intercept_fraction)
    resent_json = [_amps_json(v.pairs()) for v in eve_basis.vectors]
    # both sized from the sender's Hello: she has c*d states to send
    current: dict = {
        "trial": None,
        "eve": None,
        "table": BornTable((eve_basis,), 0),
        "known": KnownStates(0),
    }
    failures: list[Exception] = []

    def forward_with_interception():
        held: list[bytes] = []
        while True:
            line = alice_side.recv_line()
            if line is None:
                if held:
                    bob_side.send_line(b"".join(held))
                bob_side.close()
                return
            try:
                msg = current["known"].decode(line)
            except CodecError:
                msg = None
            if isinstance(msg, QuantumState):
                if current["trial"] != msg.trial_id:
                    current["trial"] = msg.trial_id
                    current["eve"] = root.for_trial(msg.trial_id)
                outcome, _ = current["eve"].maybe_intercept(msg.amps, current["table"])
                if outcome is not None:
                    log.add(InterceptionRecord(msg.trial_id, msg.slot, outcome))
                    line = _state_line(msg.trial_id, msg.slot, resent_json[outcome])
                held.append(line)
                continue
            if isinstance(msg, Hello):
                current["table"] = BornTable((eve_basis,), msg.c * msg.d)
                current["known"] = KnownStates(msg.c * msg.d)
            held.append(line)
            bob_side.send_line(b"".join(held))
            held.clear()

    def forward_plain():
        while True:
            line = bob_side.recv_line()
            if line is None:
                alice_side.close()
                return
            alice_side.send_line(line)

    def pump(forward):
        try:
            forward()
        except Exception as exc:  # surfaced by run_mitm_pumps below
            failures.append(exc)
            alice_side.close()
            bob_side.close()

    towards_bob = threading.Thread(target=pump, args=(forward_with_interception,), daemon=True)
    towards_alice = threading.Thread(target=pump, args=(forward_plain,), daemon=True)
    towards_bob.start()
    towards_alice.start()
    towards_bob.join()
    towards_alice.join()
    if failures:
        raise SessionError(f"relay failed: {failures[0]!r}") from failures[0]
    return log


def run_mitm(
    listen: tuple, forward: tuple, eve_basis: Basis, seed: int, intercept_fraction: float = 1.0
) -> MitmLog:
    """Accept one connection (the state sender), dial the forward address
    (the receiver), and relay with interception until the session ends."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            server.bind(listen)
            server.listen(1)
            server.settimeout(_RECV_TIMEOUT)
            conn, _ = server.accept()
        except OSError as exc:
            raise SessionError(f"mitm listen failed on {listen}: {exc}") from exc
    alice_side = TcpTransport(conn)
    try:
        bob_sock = socket.create_connection(forward, timeout=_RECV_TIMEOUT)
    except OSError as exc:
        alice_side.close()
        raise SessionError(f"mitm connect failed to {forward}: {exc}") from exc
    bob_side = TcpTransport(bob_sock)
    try:
        return run_mitm_pumps(alice_side, bob_side, eve_basis, seed, intercept_fraction)
    finally:
        alice_side.close()
        bob_side.close()


def serve_session(
    host: str,
    port: int,
    role: str,
    config: ProtocolConfig,
    n_trials: int,
    seed: int,
    basis_set_id: str = "custom",
    letters=None,
    compare: bool = True,
    ready_event: threading.Event | None = None,
):
    """Listen for one peer connection, then run the session as `role`."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            server.bind((host, port))
            server.listen(1)
        except OSError as exc:
            raise SessionError(f"cannot listen on {host}:{port}: {exc}") from exc
        if ready_event is not None:
            ready_event.set()
        server.settimeout(_RECV_TIMEOUT)
        try:
            conn, _ = server.accept()
        except OSError as exc:
            raise SessionError(f"accept failed: {exc}") from exc
    transport = TcpTransport(conn)
    try:
        return run_session(role, transport, config, n_trials, seed, basis_set_id, letters, compare)
    finally:
        transport.close()


def connect_session(
    host: str,
    port: int,
    role: str,
    config: ProtocolConfig,
    n_trials: int,
    seed: int,
    basis_set_id: str = "custom",
    letters=None,
    compare: bool = True,
):
    """Dial a listening peer, then run the session as `role`."""
    try:
        sock = socket.create_connection((host, port), timeout=_RECV_TIMEOUT)
    except OSError as exc:
        raise SessionError(f"cannot connect to {host}:{port}: {exc}") from exc
    transport = TcpTransport(sock)
    try:
        return run_session(role, transport, config, n_trials, seed, basis_set_id, letters, compare)
    finally:
        transport.close()
