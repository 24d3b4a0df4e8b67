"""Wire protocol: message schema, newline-delimited JSON codec, in-process
and TCP transports, end-to-end sessions, and the man-in-the-middle relay.

The quantum channel is simulated by serializing state vectors.  That is
deliberately generous to the interceptor - she sees a full description of
each state - but the interceptor endpoint is constrained by construction
to measure in a fixed basis and resend the eigenstate, which is exactly
the attack model under study.  Classical messages (announcements, sift
reports, key comparison) are relayed by the interceptor byte-identically.

Per trial the message order is QuantumState x (c-1), then IndexAnnounce,
then SiftReport; one trial completes before the next begins.  After the
last trial Alice may send one KeyCompare, and then only her Bye.
`protocol.BobSession` is the one checker of that order: Bob's loop only
reads lines, hands each state, announcement and comparison to it, and
writes the sift reports and his Bye, which names the ProtocolError or
CodecError he stops on.  Floats are serialized with shortest
round-tripping decimal form, so amplitudes survive the wire bit-exactly.

Transports offer `send_line`, `recv_line` and `close`.  `send_line` takes
one or more whole newline-terminated lines and writes them in one call;
`recv_line` returns exactly one line, or None at EOF and on every read
after it.  Alice writes each trial's states and announcement in one
`send_line`, and the relay holds the states it forwards until the
announcement, so every trial costs one write in each direction.  Each
side then waits for the other's reply, so TCP transports set
TCP_NODELAY: otherwise Nagle's algorithm and delayed ACKs hold each
small write back by tens of milliseconds.  A TCP transport makes one
system call per read and per write: its socket blocks, and the kernel
enforces the timeouts, set from a POSIX `timeval` when the transport is
made, so no call polls first; it frames lines in a buffer of its own.
`close` ends both directions: the peer and any reader blocked on the
closed end see EOF.

Known states are encoded and measured by table lookup.  An honest Alice
only sends the c*d vectors of her basis set, and the relay only resends
the d eigenstates of Eve's basis, so Alice renders the `amps` JSON of her
c*d states once per session and the relay that of Eve's d states once per
run.  Bob and the relay measure through a `hilbert.BornTable`, keyed by a
state's exact amplitude pairs, whose rows come from the one Born kernel,
`hilbert.born_rows`; a state line they already know reaches the table with
no message object made for it (see `KnownStates`).  Bob's table starts
with the c*d states of his set, all rows built before his first trial.
The relay's starts, at the sender's Hello, with the c*d states of the
public set the Hello's `basis_set_id` names, if that is a built-in name
whose set at the Hello's (d, c) has that size (`bases.named_basis_set`,
built once per process); any other id leaves it empty, and no path a
peer names is ever opened.  Any other state's row is computed the first
time, validated as `born_sample` would, and reused after that.
Each table learns at most c*d states on top of those it starts with -
Bob's bound from his configuration, the relay's from the sender's Hello,
and none before it - and computes any further distinct state without
storing it, so a sender cannot make it grow.  The bytes on the wire are
those `encode` gives for every message.

Randomness is drawn in blocks.  Alice's and Bob's sessions read each
trial's draws from a `protocol.TrialBlocks`, which evaluates the
substreams of BLOCK trials at once, the last block cut to the session's
n trials.  The relay reads Eve's draws the same
way, in rows of 2(c-1) per trial - enough for every slot at any intercept
fraction - sized from the sender's Hello; a draw past a row's end, or
before any Hello, comes from the scalar stream.  Every draw is the one
`RandomStream(seed, role, trial_id)` gives at the same counter, so
outcomes equal `run_trial`'s.

Every per-trial line is written by template, and each endpoint reads
every line it is sent once, through `KnownStates.read`; its docstring
gives the templates' and the reader's rules.  A trial makes no message
object that is only checked once or thrown away: a state reads as a
plain tuple, an announcement or a sift report as a named tuple, and the
relay forwards an announcement without parsing it.  `decode` stays the
only validator.  It checks a state's norm with
`hilbert.check_unit_norm`, as `StateVector` does, so every state it
passes is one a table can learn.
"""

from __future__ import annotations

import json
import math
import re
import socket
import struct
import threading
from contextlib import closing
from dataclasses import dataclass
from queue import Empty, SimpleQueue
from typing import NamedTuple

from .bases import named_basis_set
from .errors import (
    CodecError,
    DimensionError,
    HandshakeError,
    HselabError,
    InvalidParameter,
    ProtocolError,
    SessionError,
)
from .hilbert import Basis, BornTable, check_unit_norm
from .protocol import EVE, AliceSession, BobSession, EveInterceptor, TrialBlocks, TrialOutcome
from .rates import ProtocolConfig
from .rng import RandomStream

PROTOCOL_VERSION = 1
DEFAULT_PORT = 7117
_RECV_TIMEOUT = 60.0
# longest line a TCP reader accepts, newline included; the longest honest
# line, KeyCompare, takes 2-3 bytes per trial
_MAX_LINE = 16 * 2**20
# the most a TCP reader asks of one recv
_RECV_CHUNK = 2**16
# the widest row of Eve's draws the relay computes per trial: two draws a
# slot cover any intercept fraction up to c = 129; a Hello claiming a larger
# c gets the rest from the scalar stream, not a larger allocation
_MAX_EVE_WIDTH = 256


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


# the two classical per-trial messages are named tuples: cheaper to make
# than a frozen dataclass, with the same fields and repr
class IndexAnnounce(NamedTuple):
    trial_id: int
    a: tuple


class SiftReport(NamedTuple):
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


def _plain_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CodecError(f"{what} must be an integer, got {value!r}")
    return value


def _trial_id(obj) -> int:
    tid = _plain_int(obj.get("trial_id"), "trial_id")
    if tid < 0:
        raise CodecError(f"trial_id must be nonnegative, got {tid}")
    return tid


def decode(line: bytes) -> Message:
    """Parse one wire line; every malformed input raises CodecError."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer too long to convert
        raise CodecError(f"unparseable line: {exc}") from None
    if not isinstance(obj, dict):
        raise CodecError(f"message must be an object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind == "hello":
        version = _plain_int(obj.get("protocol_version"), "protocol_version")
        c = _plain_int(obj.get("c"), "c")
        d = _plain_int(obj.get("d"), "d")
        set_id = obj.get("basis_set_id")
        if not isinstance(set_id, str):
            raise CodecError("basis_set_id must be a string")
        return Hello(protocol_version=version, c=c, d=d, basis_set_id=set_id)
    if kind == "quantum_state":
        tid = _trial_id(obj)
        slot = _plain_int(obj.get("slot"), "slot")
        amps = obj.get("amps")
        if not isinstance(amps, list) or len(amps) < 2:
            raise CodecError("amps must list at least 2 amplitude pairs")
        pairs = []
        for pair in amps:
            # json.loads gives exact lists, ints and floats; bool is not a number here
            if type(pair) is not list or len(pair) != 2:
                raise CodecError(f"amplitude must be a [re, im] pair, got {pair!r}")
            real, imag = pair
            if type(real) not in _JSON_NUMBERS or type(imag) not in _JSON_NUMBERS:
                raise CodecError(f"amplitude must be a [re, im] pair, got {pair!r}")
            try:
                real, imag = float(real), float(imag)
            except OverflowError:
                real = imag = math.inf
            if not (math.isfinite(real) and math.isfinite(imag)):
                raise CodecError(f"amplitude must be finite, got {pair!r}")
            pairs.append((real, imag))
        try:
            check_unit_norm([real * real + imag * imag for real, imag in pairs])
        except InvalidParameter as exc:
            raise CodecError(str(exc)) from None
        return QuantumState(trial_id=tid, slot=slot, amps=tuple(pairs))
    if kind == "index_announce":
        tid = _trial_id(obj)
        indices = obj.get("a")
        if not isinstance(indices, list) or not indices:
            raise CodecError("a must be a nonempty list of indices")
        return IndexAnnounce(trial_id=tid, a=tuple(_plain_int(v, "index") for v in indices))
    if kind == "sift_report":
        tid = _trial_id(obj)
        sifted = obj.get("sifted")
        if not isinstance(sifted, bool):
            raise CodecError("sifted must be a boolean")
        return SiftReport(trial_id=tid, sifted=sifted)
    if kind == "key_compare":
        rng = obj.get("trial_id")
        if not (isinstance(rng, list) and len(rng) == 2):
            raise CodecError("trial_id must be a [lo, hi] pair")
        lo = _plain_int(rng[0], "range low")
        hi = _plain_int(rng[1], "range high")
        letters = obj.get("letters")
        if not isinstance(letters, list):
            raise CodecError("letters must be a list")
        return KeyCompare(trial_id_range=(lo, hi), letters=tuple(_plain_int(v, "letter") for v in letters))
    if kind == "bye":
        reason = obj.get("reason")
        if not isinstance(reason, str):
            raise CodecError("reason must be a string")
        return Bye(reason=reason)
    raise CodecError(f"unknown message type {kind!r}")


class KnownStates:
    """Reads wire lines: answers the per-trial lines without `decode`, and
    known quantum_state lines from a table: the `states` given at
    construction, and at most `capacity` learned ones, which `len` counts.

    `_state_line`, `_announce_line` and `_sift_line` write the
    quantum_state, index_announce and sift_report lines with `%`
    formatting, byte for byte what `json.dumps` gives for the same object,
    and `encode` renders those three types through the same templates;
    Hello, key_compare and bye lines, one or two per session, go through
    `json.dumps`.  So a line that is exactly `_announce_line(N, a)`,
    `_sift_line(N, s)`, or `_state_line(N, K, A)` for a stored A, each with
    an optional newline and plain integers of at most 18 digits, is
    answered without `decode` (one regular expression per shape, and each
    line is matched against the quantum_state one once); every other line
    is passed to `decode`.  `read` gives a quantum_state line as its
    (trial_id, slot, pairs), the fields of the QuantumState `decode` gives
    for it, so Bob and the relay measure a state with no message object
    made for it, and any other line as the message `decode` gives.  As
    IndexAnnounce and SiftReport are named tuples, a state is told apart
    with `type(msg) is tuple`.  The relay reads `forwarding`: an
    index_announce line in the template then reads as None, unparsed,
    since the relay passes it on as it came.

    The table maps a state's `amps` bytes to its pairs because an honest
    Alice only sends the c*d vectors of her set: Bob's reader starts with
    them, and the relay's forward pump's with those of the public set the
    sender's Hello names, stored under the canonical `_amps_json`
    rendering, so an honest line is never decoded in full on either side.
    Learned entries follow the `BornTable` rule: at most c*d on top of the
    states given, Bob's from his configuration, the relay's from the
    sender's Hello, and 0 before it; Alice reads her replies through a
    reader of capacity 0.  A line's A is learned, with the pairs `decode`
    returned, only while fewer than `capacity` are learned and only if A
    is their canonical rendering, so no key can carry text from outside
    the amplitude list.
    """

    def __init__(self, capacity: int, states=()):
        self.capacity = capacity
        self._learned = 0
        self._pairs: dict = {}  # canonical amps bytes -> ((re, im), ...)
        for state in states:
            pairs = state.pairs()
            self._pairs[_amps_json(pairs)] = pairs

    def __len__(self) -> int:
        return self._learned

    def read(self, line: bytes, forwarding: bool = False):
        """(trial_id, slot, pairs) of a quantum_state line, else the
        message, or None for an index_announce line in the template when
        `forwarding`; raises CodecError where `decode` does."""
        shape = _STATE_LINE.fullmatch(line)
        if shape is None:
            announce = _ANNOUNCE_LINE.fullmatch(line)
            if announce is not None:
                if forwarding:
                    return None
                return IndexAnnounce(int(announce[1]), tuple(map(int, announce[2].split(b","))))
            sift = _SIFT_LINE.fullmatch(line)
            if sift is not None:
                return SiftReport(int(sift[1]), sift[2] == b"true")
        else:
            trial_id, slot, amps = shape.groups()
            pairs = self._pairs.get(amps)
            if pairs is not None:
                return int(trial_id), int(slot), pairs
        msg = decode(line)
        if not isinstance(msg, QuantumState):
            return msg
        if shape is not None and self._learned < self.capacity and amps == _amps_json(msg.amps):
            self._pairs[amps] = msg.amps
            self._learned += 1
        return msg.trial_id, msg.slot, msg.amps


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
                self._inbox.put(None)  # EOF is sticky: every later read sees it too
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


def _session_error(what: str, exc: OSError) -> SessionError:
    # a blocking socket reports a lapsed SO_RCVTIMEO or SO_SNDTIMEO as EAGAIN
    reason = "timed out" if isinstance(exc, BlockingIOError) else exc
    return SessionError(f"{what} failed: {reason}")


class TcpTransport:
    """Newline-framed messages over one TCP connection, with one system
    call per read and per write.

    The socket blocks, and the kernel enforces its timeouts: SO_RCVTIMEO
    and SO_SNDTIMEO are set from _RECV_TIMEOUT, as a native POSIX `struct
    timeval`, when the transport is made, so no call polls first.  Lines
    are cut from the bytes of each read, and a line that spans reads is
    gathered in the transport's own bytearray; each byte received is
    searched for a newline once, so reading stays linear in the bytes.  A
    line longer than _MAX_LINE raises CodecError as soon as the buffer
    shows it, so a peer that never sends a newline cannot grow the buffer.
    `close` shuts both directions down before it closes the socket, which
    ends a read that another thread is blocked in; a read after `close`
    is EOF.
    """

    def __init__(self, sock: socket.socket):
        sock.setblocking(True)
        whole = int(_RECV_TIMEOUT)
        timeout = struct.pack("@ll", whole, int((_RECV_TIMEOUT - whole) * 1e6))
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeout)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeout)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._chunk, self._start = b"", 0  # the unread bytes are _chunk[_start:]
        self._partial = bytearray()  # a line begun in earlier reads
        self._eof = self._closed = False

    def send_line(self, line: bytes) -> None:
        try:
            self._sock.sendall(line)
        except OSError as exc:
            raise _session_error("send", exc) from exc

    def recv_line(self) -> bytes | None:
        partial = self._partial
        while True:
            chunk, start = self._chunk, self._start
            end = chunk.find(b"\n", start) + 1
            if end:
                self._start = end
                line = chunk[start:end]
                if partial:
                    partial += line
                    line = bytes(partial)
                    partial.clear()
                if len(line) > _MAX_LINE:
                    break
                return line
            partial += chunk[start:]
            self._chunk, self._start = b"", 0
            if len(partial) > _MAX_LINE:
                break
            if self._eof:
                # the peer's last line may lack its newline
                line = bytes(partial)
                partial.clear()
                return line or None
            try:
                chunk = self._sock.recv(_RECV_CHUNK)
            except OSError as exc:
                if self._closed:  # a relay pump closed this side while the other read it
                    return None
                raise _session_error("recv", exc) from exc
            self._eof = not chunk
            self._chunk = chunk
        raise CodecError(f"line longer than {_MAX_LINE} bytes")

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


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
    *,
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
    if n_trials < 0:
        raise InvalidParameter(f"n_trials must be 0 or more, got {n_trials}")
    _handshake(transport, config, basis_set_id)
    if role == "alice":
        return _run_alice(transport, config, n_trials, seed, compare)
    return _run_bob(transport, config, seed, n_trials)


def _handshake(transport, config: ProtocolConfig, basis_set_id: str) -> None:
    transport.send_line(
        encode(Hello(protocol_version=PROTOCOL_VERSION, c=config.c, d=config.d, basis_set_id=basis_set_id))
    )
    line = transport.recv_line()
    if line is None:
        raise SessionError("peer closed during handshake")
    peer = decode(line)
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


def _run_alice(transport, config, n_trials, seed, compare) -> AliceLog:
    session = AliceSession(config, seed, n_trials=n_trials)
    # the amps of vector a of basis x, for each of the c*d states she can send
    amps_json = [[_amps_json(v.pairs()) for v in basis.vectors] for basis in config.basis_set.bases]
    # her replies are sift reports and a bye; she is sent no states
    replies = KnownStates(0)

    def reply(line: bytes, trial_id: int | None):
        """Bob's message on `line`, read at trial `trial_id` or, if None, at
        the close; a Bye whose reason is not "done" ends the session with a
        SessionError that names the reason."""
        msg = replies.read(line)
        if isinstance(msg, Bye) and msg.reason != "done":
            where = "at the close" if trial_id is None else f"at trial {trial_id}"
            raise SessionError(f"peer ended the session {where}: {msg.reason}")
        return msg

    sent = 0
    for t in range(n_trials):
        x, announced = session.states_for_trial(t)
        lines = [_state_line(t, slot, amps_json[x][a]) for slot, a in enumerate(announced)]
        lines.append(_announce_line(t, announced))
        transport.send_line(b"".join(lines))
        sent += len(lines)
        line = transport.recv_line()
        if line is None:
            raise SessionError(f"peer closed mid-session at trial {t}")
        msg = reply(line, t)
        if type(msg) is not SiftReport or msg.trial_id != t:
            raise ProtocolError(f"expected sift report for trial {t}, got {msg!r}")
        session.record_sift(t, msg.sifted)
    if compare:
        transport.send_line(encode(KeyCompare(trial_id_range=(0, n_trials), letters=tuple(session.raw_string))))
        sent += 1
    transport.send_line(encode(Bye(reason="done")))
    sent += 1
    # EOF here ends the session as his Bye("done") would: in a memory pair
    # her own end's close reads as EOF too, and may overtake a Bye that a
    # relay is still forwarding
    line = transport.recv_line()
    msg = None if line is None else reply(line, None)
    if msg is not None and not isinstance(msg, Bye):
        raise ProtocolError(f"expected bye, got {msg!r}")
    return AliceLog(
        letters=tuple(session.raw_string),
        key=tuple(session.key),
        trials=n_trials,
        messages_sent=sent,
    )


def _run_bob(transport, config, seed, n_trials) -> list[TrialOutcome]:
    """Bob's loop: each line goes to his BobSession, which checks its place
    in the session.  If the peer breaks the protocol or the codec, he tells
    it why in a Bye before raising."""
    session = BobSession(config, seed, n_trials)
    # his set's lines are known from the start; room for c*d more
    known = KnownStates(config.c * config.d, [v for basis in config.basis_set.bases for v in basis.vectors])
    try:
        while True:
            line = transport.recv_line()
            if line is None:
                raise SessionError("peer closed before bye")
            msg = known.read(line)
            if type(msg) is tuple:  # a state's (trial_id, slot, pairs)
                session.measure(*msg)
            elif type(msg) is IndexAnnounce:
                trial_id, announced = msg
                transport.send_line(_sift_line(trial_id, session.conclude(trial_id, announced)))
            elif isinstance(msg, KeyCompare):
                session.compare(msg.trial_id_range, msg.letters)
            elif isinstance(msg, Bye):
                break
            else:
                raise ProtocolError(f"unexpected {type(msg).__name__} mid-session")
    except (ProtocolError, CodecError) as exc:
        try:
            transport.send_line(encode(Bye(reason=f"{type(exc).__name__}: {exc}")))
        except SessionError:
            pass
        raise
    transport.send_line(encode(Bye(reason="done")))
    return session.outcomes()


class _EveDraws:
    """Eve's stream RandomStream(seed, EVE, t) for the trial t that `at`
    names: its first draws come from t's block row, and any past the row's
    end from the scalar stream."""

    __slots__ = ("_row", "_width", "_seed", "_trial_id", "_rest")

    def __init__(self, seed: int):
        self._seed = seed

    def at(self, trial_id: int, row: list) -> None:
        self._row = iter(row)
        self._width = len(row)
        self._trial_id = trial_id
        self._rest: RandomStream | None = None

    def uniform(self) -> float:
        u = next(self._row, None)
        if u is not None:
            return u
        if self._rest is None:
            self._rest = RandomStream(self._seed, EVE, self._trial_id)
            self._rest.skip(self._width)
        return self._rest.uniform()


@dataclass(frozen=True)
class InterceptionRecord:
    trial_id: int
    slot: int
    outcome: int


class MitmLog:
    """What the interceptor measured: `_records` holds one (trial_id, slot,
    outcome) tuple per interception, in the order the relay made them, and
    `records` gives them as InterceptionRecords.  The relay only appends to
    `_records` and `records` reads a copy; a list's append and copy are each
    atomic, so `records` may be read while the relay runs."""

    def __init__(self):
        self._records: list[tuple] = []

    @property
    def records(self) -> list[InterceptionRecord]:
        return [InterceptionRecord(*record) for record in self._records.copy()]


def _public_states(basis_set_id: str, d: int, c: int) -> list:
    """The c*d states of the built-in set `basis_set_id` names at (d, c), as
    `bases.named_basis_set` builds it, or none: an unknown id, a (d, c)
    the construction refuses, or a set of another size leaves the relay to
    learn the sender's states as they come.  No path is ever opened, and
    the caller has checked d against Eve's basis, so the work is bounded by
    her d, not by the peer."""
    try:
        basis_set = named_basis_set(basis_set_id, d, c)
    except HselabError:
        return []
    if (basis_set.d, basis_set.c) != (d, c):
        return []
    return [v for basis in basis_set.bases for v in basis.vectors]


def run_mitm_pumps(
    alice_side, bob_side, eve_basis: Basis, seed: int, intercept_fraction: float = 1.0
) -> MitmLog:
    """Relay between two transports, measuring and replacing every quantum
    state while forwarding classical lines byte-identically.

    `alice_side` must be the transport facing the state sender.  One
    EveInterceptor, whose draws move to each trial's row as it comes,
    decides whether a state is intercepted and measures it through a
    BornTable over Eve's basis.  A
    known state line is measured straight from the reader's match, with no
    message object, and an announcement is forwarded unparsed.  The
    sender's Hello must name Eve's dimension d, or the relay fails with
    DimensionError; a state with other than d amplitudes is forwarded as
    it came, unrecorded, for Bob to refuse.  At the Hello
    the reader and the table start with the c*d states of the built-in
    set its `basis_set_id` names at its (d, c) (see `_public_states`), so
    an honest sender's states are known from the first trial; under any
    other id they are learned as they come.  A trial's states are held
    and written towards Bob together with the next line that is not a
    state, so each trial costs one write.  The pump towards Bob runs in a
    thread of its own and the pump towards Alice on the calling thread,
    which returns once both directions reach EOF.  Returns the
    interception log, which may be read while the relay runs.  If either
    direction fails, both sides are closed, so that both endpoints see
    EOF, and the failure is raised as SessionError.
    """
    log = MitmLog()
    record = log._records.append
    d = eve_basis.dim
    resent_json = [_amps_json(v.pairs()) for v in eve_basis.vectors]
    failures: list[Exception] = []

    def eve_rows(width: int) -> TrialBlocks:
        return TrialBlocks(seed, EVE, width, lambda u: u.tolist())

    def forward_with_interception():
        # all three sized from the sender's Hello: she has c*d states to
        # send, c-1 to a trial; the first two start with her public set's
        table = BornTable((eve_basis,), 0)
        known = KnownStates(0)
        rows = eve_rows(0)
        draws = _EveDraws(seed)
        eve = EveInterceptor(eve_basis, draws, intercept_fraction)
        trial_id = None
        held: list[bytes] = []
        while True:
            line = alice_side.recv_line()
            if line is None:
                if held:
                    bob_side.send_line(b"".join(held))
                bob_side.close()
                return
            try:
                msg = known.read(line, forwarding=True)
            except CodecError:
                msg = None  # forwarded as it came, for Bob to refuse
            if type(msg) is tuple:  # a state's (trial_id, slot, pairs)
                t, slot, pairs = msg
                # a state of another dimension goes to Bob as it came, for him to refuse
                if len(pairs) == d:
                    if trial_id != t:
                        trial_id = t
                        draws.at(t, rows[t])
                    outcome = eve.maybe_intercept(pairs, table)
                    if outcome is not None:
                        record((t, slot, outcome))
                        line = _state_line(t, slot, resent_json[outcome])
                held.append(line)
                continue
            if isinstance(msg, Hello):
                if msg.d != d:
                    raise DimensionError(f"sender's d = {msg.d}, but Eve's basis has d = {d}")
                states = _public_states(msg.basis_set_id, d, msg.c)
                table = BornTable((eve_basis,), msg.c * d, states)
                known = KnownStates(msg.c * d, states)
                rows = eve_rows(min(2 * max(msg.c - 1, 0), _MAX_EVE_WIDTH))
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
    towards_bob.start()
    pump(forward_plain)
    towards_bob.join()
    if failures:
        raise SessionError(f"relay failed: {failures[0]!r}") from failures[0]
    return log


def _accept(host: str, port: int, ready_event: threading.Event | None = None) -> TcpTransport:
    """Listen on host:port, accept one connection and stop listening; sets
    `ready_event` once the port is bound.  An OSError raises SessionError
    with it as the cause."""
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
            raise SessionError(f"accept failed on {host}:{port}: {exc}") from exc
    return TcpTransport(conn)


def _dial(host: str, port: int) -> TcpTransport:
    """Connect to host:port.  An OSError raises SessionError with it as the
    cause."""
    try:
        sock = socket.create_connection((host, port), timeout=_RECV_TIMEOUT)
    except OSError as exc:
        raise SessionError(f"cannot connect to {host}:{port}: {exc}") from exc
    return TcpTransport(sock)


def run_mitm(
    listen: tuple, forward: tuple, eve_basis: Basis, seed: int, intercept_fraction: float = 1.0
) -> MitmLog:
    """Accept one connection (the state sender), dial the forward address
    (the receiver), and relay with interception until the session ends."""
    with closing(_accept(*listen)) as alice_side, closing(_dial(*forward)) as bob_side:
        return run_mitm_pumps(alice_side, bob_side, eve_basis, seed, intercept_fraction)


def serve_session(
    host: str,
    port: int,
    role: str,
    config: ProtocolConfig,
    n_trials: int,
    seed: int,
    basis_set_id: str = "custom",
    *,
    compare: bool = True,
    ready_event: threading.Event | None = None,
):
    """Listen for one peer connection, then run the session as `role`."""
    with closing(_accept(host, port, ready_event)) as transport:
        return run_session(role, transport, config, n_trials, seed, basis_set_id, compare=compare)


def connect_session(
    host: str,
    port: int,
    role: str,
    config: ProtocolConfig,
    n_trials: int,
    seed: int,
    basis_set_id: str = "custom",
    *,
    compare: bool = True,
):
    """Dial a listening peer, then run the session as `role`."""
    with closing(_dial(host, port)) as transport:
        return run_session(role, transport, config, n_trials, seed, basis_set_id, compare=compare)
