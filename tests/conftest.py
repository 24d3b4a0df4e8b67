import json
import socket
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import pytest

import hselab.channel as ch
from hselab.bases import BasisSet, qubit_six_state_set, qutrit_complete_set
from hselab.errors import DimensionError, InvalidParameter, NumericalError, SessionError
from hselab.hilbert import TAU_NORM, Basis, born_sample, transition_matrix
from hselab.protocol import ALICE, BOB, EVE, intercepts
from hselab.rates import _survival
from hselab.rng import RandomStream


@pytest.fixture(scope="session")
def sixstate():
    return qubit_six_state_set()


@pytest.fixture(scope="session")
def qutrit4():
    return qutrit_complete_set()


def overlap(u, v) -> complex:
    """Oracle: the inner product <u|v> = sum_k conj(u_k) v_k of two
    StateVectors, one pair at a time."""
    if u.dim != v.dim:
        raise DimensionError(f"dimension mismatch: {u.dim} vs {v.dim}")
    return complex(np.vdot(u.amps, v.amps))


def transition_prob(u, v) -> float:
    """Oracle: |<u|v>|^2 of two StateVectors, clamped to [0, 1].  Values
    within TAU_NORM outside [0, 1] are rounding noise and clamp; anything
    further out means a corrupt input and raises NumericalError."""
    amp = overlap(u, v)
    p = amp.real * amp.real + amp.imag * amp.imag
    if not -TAU_NORM <= p <= 1.0 + TAU_NORM:
        raise NumericalError(f"probability {p} outside [0, 1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


@dataclass(frozen=True)
class UnbiasednessReport:
    ok: bool
    max_dev: float


def is_mutually_unbiased(b1, b2, tol: float) -> UnbiasednessReport:
    """Oracle: max_ij | |<v_i|w_j>|^2 - 1/d | <= tol for one pair of
    bases, from the pair's own Gram product."""
    if b1.dim != b2.dim:
        raise DimensionError(f"dimension mismatch: {b1.dim} vs {b2.dim}")
    if tol <= 0:
        raise InvalidParameter("tolerance must be positive")
    dev = float(np.max(np.abs(transition_matrix(b1, b2) - 1.0 / b1.dim)))
    return UnbiasednessReport(ok=dev <= tol, max_dev=dev)


def success_rate_einsum(basis_set) -> float:
    """Oracle: the no-Eve success rate with every pair's index-miss chance
    taken from one (c, c, d) einsum over the stacked bases."""
    c = basis_set.c
    # same[x, y, i] = <v_i^y | v_i^x>; miss[x, y] = P(b != a | Alice basis
    # x, Bob basis y), averaged over a.  miss[x, x] = 0, so only the tuples
    # leaving out x survive (E1)
    stacked = np.stack([basis.matrix for basis in basis_set.bases])
    same = np.einsum("yki,xki->xyi", stacked.conj(), stacked)
    miss = 1.0 - (same.real**2 + same.imag**2).mean(axis=2)
    e1, _ = _survival(miss)
    return float(e1.sum() / c**2)


def amub_iter_lower_bound(d: int, big_k: float) -> float:
    """Lower bound on the index error rate for d^2 approximately mutually
    unbiased bases with cross-overlap (2 + K d^-0.1)/sqrt(d); clamped at 0
    where the bound is vacuous."""
    if d < 2:
        raise InvalidParameter("dimension must be >= 2")
    if big_k < 0:
        raise InvalidParameter("the overlap constant must be nonnegative")
    bracket = d + (d**2 - 1) * (2.0 + big_k * d ** (-0.1)) ** 4
    return max(0.0, 1.0 - bracket / d**3)


def make_random_basis(d, seed, label="random"):
    """Haar-random orthonormal basis (QR of a complex Gaussian matrix)."""
    rng = RandomStream(seed, "test-basis")
    u1 = np.array([rng.uniform() for _ in range(d * d)]).reshape(d, d)
    u2 = np.array([rng.uniform() for _ in range(d * d)]).reshape(d, d)
    u1 = np.clip(u1, 1e-300, None)
    gauss = np.sqrt(-2.0 * np.log(u1)) * np.exp(2j * np.pi * u2)
    q, r = np.linalg.qr(gauss)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return Basis(label, q)


def first_basis_doc(vectors, second=(((1, 0), (0, 0)), ((0, 0), (1, 0)))) -> bytes:
    """A (2, 2) basis-set file whose first basis, 'a', lists `vectors`,
    and whose second lists `second`, by default the standard basis."""
    bases = [{"label": "a", "vectors": vectors}, {"label": "b", "vectors": second}]
    return json.dumps({"d": 2, "c": 2, "bases": bases}).encode()


def set_states(basis_set):
    """The c*d states of a set, state a of basis x at x*d + a."""
    return [v for basis in basis_set.bases for v in basis.vectors]


def make_random_set(d, c, seed):
    return BasisSet(make_random_basis(d, seed * 1000 + j, label=f"r{j}") for j in range(c))


def bkb01_round(basis_set, eve, t, seed):
    """Oracle: round t of BKB01, one scalar draw at a time, as (sifted,
    wrong).  Alice draws her basis g and index x, Eve (when set) measures
    the state and resends her eigenstate, and Bob draws his basis h and
    measures in it; a sifted round (h == g) is wrong when his outcome is
    not x."""
    alice = RandomStream(seed, ALICE, t)
    g = alice.randint(basis_set.c)
    x = alice.randint(basis_set.d)
    state = basis_set.bases[g].vectors[x]
    if eve is not None:
        state = eve.vectors[born_sample(state, eve, RandomStream(seed, EVE, t))]
    bob = RandomStream(seed, BOB, t)
    h = bob.randint(basis_set.c)
    outcome = born_sample(state, basis_set.bases[h], bob)
    return h == g, h == g and outcome != x


class Eve(NamedTuple):
    """Eve in one trial: her basis, her stream RandomStream(seed, EVE, t)
    and her intercept fraction."""

    basis: Basis
    rng: RandomStream
    fraction: float = 1.0


def intercept(eve, state):
    """What Eve does to one in-flight StateVector under
    protocol.intercepts, as run_trial draws it: the outcome whose
    eigenstate she resends, or None if the state passes."""
    return born_sample(state, eve.basis, eve.rng) if intercepts(eve.rng.uniform, eve.fraction) else None


def freq_tolerance(p, n, sigmas=4.0):
    """Allowed deviation of an empirical frequency from p over n samples."""
    return sigmas * np.sqrt(p * (1.0 - p) / n)


def free_port():
    """A loopback port that nothing listened on a moment ago."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


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


@dataclass
class Ended:
    """How a run's parties ended: what each returned, and the exception
    each raised; the session helpers below add each end's
    RecordingTransport by name ("alice", "bob", and the relay's "to_alice"
    and "to_bob")."""

    results: dict
    errors: dict
    ends: dict = field(default_factory=dict)


def run_parties(parties, *, background=None, close=(), deadline=10.0, recv_timeout=None, may_raise=None):
    """Run one session's parties, each a callable on a thread named after
    it, and check how every one of them ends.  The lifecycle:

    - start: the threads of `parties` and `background` (dicts of name ->
      callable) start together.  With `recv_timeout` set,
      `channel._RECV_TIMEOUT` is patched to it from before the start until
      every thread is joined; a TCP transport reads it when it is made.
    - join order: each of `parties` (the endpoints, and scripted peers
      that end by themselves) must return or raise within `deadline`
      seconds of the start.  Only then is each object in `close` closed,
      in order: the memory ends of a session, so that a relay between
      them reads EOF once the endpoints are done, and never before; an
      honest Alice has read Bob's Bye by then.  Then each of `background`
      (relays, and peers that end only when the others close) must end
      within 2 * `deadline` of the start.
    - a party still running at its deadline fails the run; the run first
      waits one more `deadline` for every thread, after the closes above,
      so that no thread of a failed run lingers into the next test.
    - no thread may be left that was not running before the start: a
      relay's own pump thread must end with it.
    - every exception a party raises reaches the test: one whose type
      `may_raise[name]` allows is returned in `Ended.errors`, and any
      other fails the run as the cause of its AssertionError.
    """
    background = background or {}
    may_raise = may_raise or {}
    results, errors = {}, {}

    def start(name, fn):
        def run():
            try:
                results[name] = fn()
            except Exception as exc:  # handed to the test below
                errors[name] = exc

        thread = threading.Thread(target=run, name=name, daemon=True)
        thread.start()
        return thread

    def still_running(names, by):
        for name in names:
            threads[name].join(max(by - time.monotonic(), 0.0))
        return [name for name in names if threads[name].is_alive()]

    before = set(threading.enumerate())
    with pytest.MonkeyPatch.context() as patch:
        if recv_timeout is not None:
            patch.setattr(ch, "_RECV_TIMEOUT", recv_timeout)
        started = time.monotonic()
        threads = {name: start(name, fn) for name, fn in {**parties, **background}.items()}
        late = still_running(parties, started + deadline)
        for end in close:
            end.close()
        late += still_running(background, started + 2 * deadline)
        if late:
            still_running(threads, time.monotonic() + deadline)
    problems = [f"{name} still running {deadline * (1 + (name in background))} s after the start" for name in late]
    left = sorted(thread.name for thread in set(threading.enumerate()) - before)
    if left:
        problems.append(f"threads left running: {left}")
    unexpected = {name: exc for name, exc in errors.items() if not isinstance(exc, may_raise.get(name, ()))}
    problems += [f"{name} raised {exc!r}" for name, exc in unexpected.items()]
    if problems:
        raise AssertionError("; ".join(problems)) from next(iter(unexpected.values()), None)
    return Ended(results, errors)


def check_bye_done(ended):
    """An Alice that returned read Bob's Bye("done") last."""
    if "alice" in ended.results:
        assert ch.decode(ended.ends["alice"].received[-1]) == ch.Bye("done")


def honest_session(
    cfg, n, seed, set_id="sixstate", *, eve=None, fraction=1.0, compare=True, wrap=None, background=None, **run
):
    """Alice and Bob, n trials on cfg under `set_id`, over a memory pair or,
    with an `eve` basis, through run_mitm_pumps(..., eve, seed, fraction)
    between two pairs.  Every end is a RecordingTransport; `wrap`, if given,
    wraps Alice's transport inside her recorder.  Alice and Bob are joined
    before any end is closed, and an Alice who returns read Bob's
    Bye("done") last.  `background` parties run beside the relay; `run`
    goes to run_parties."""
    alice_t, far = ch.memory_transport_pair()
    ends = {"alice": RecordingTransport(wrap(alice_t) if wrap else alice_t)}
    relay, bob_t = {}, far
    if eve is not None:
        eve_b, bob_t = ch.memory_transport_pair()
        ends["to_alice"], ends["to_bob"] = RecordingTransport(far), RecordingTransport(eve_b)
        relay["relay"] = lambda: ch.run_mitm_pumps(ends["to_alice"], ends["to_bob"], eve, seed, fraction)
    ends["bob"] = RecordingTransport(bob_t)
    parties = {
        role: lambda role=role: ch.run_session(role, ends[role], cfg, n, seed, set_id, compare=compare)
        for role in ("alice", "bob")
    }
    ended = run_parties(parties, background={**relay, **(background or {})}, close=[alice_t, bob_t], **run)
    ended.ends = ends
    check_bye_done(ended)
    return ended


def until_listening(dial, attempts=50, pause=0.05):
    """dial(), again while the connection is refused: the listener it
    dials may not be up yet."""
    for _ in range(attempts):
        try:
            return dial()
        except (ConnectionRefusedError, SessionError) as exc:
            if not isinstance(exc.__cause__ or exc, ConnectionRefusedError):
                raise
        time.sleep(pause)
    raise AssertionError("listener never came up")


def tcp_session(cfg, n, seed, set_id="sixstate", *, eve=None, wrap=None, **run):
    """honest_session over TCP loopback: Bob serves, the relay (with an
    `eve` basis) listens once he does, and Alice dials.  Each end closes
    its own socket when its run returns, after its last read."""
    bob_port, relay_port = free_port(), free_port()
    listening = threading.Event()
    ends = {}

    def relay():
        assert listening.wait(5.0)
        return ch.run_mitm(("127.0.0.1", relay_port), ("127.0.0.1", bob_port), eve, seed)

    def alice():
        dialled = until_listening(lambda: ch._dial("127.0.0.1", relay_port if eve else bob_port))
        ends["alice"] = RecordingTransport(wrap(dialled) if wrap else dialled)
        with closing(ends["alice"]):
            return ch.run_session("alice", ends["alice"], cfg, n, seed, set_id)

    parties = {
        "bob": lambda: ch.serve_session("127.0.0.1", bob_port, "bob", cfg, n, seed, set_id, ready_event=listening),
        "alice": alice,
        **({"relay": relay} if eve is not None else {}),
    }
    ended = run_parties(parties, **run)
    ended.ends = ends
    check_bye_done(ended)
    return ended


def scripted_session(role, cfg, set_id, lines, *, then_close=True, relay=None, n_trials=4, seed=3, **run):
    """`role` ("alice" or "bob") on cfg under `set_id` against a scripted
    peer over a memory pair: `lines`, each its own write, are all written
    before the start, and the peer's end closes after them if
    `then_close`; else it stays open until run_parties closes it.  With
    `relay` (Eve's basis, seed, fraction) the lines pass through
    run_mitm_pumps, which runs in the background.  `run` goes to
    run_parties."""
    peer_t, far = ch.memory_transport_pair()
    role_t = far
    ends, background = {}, {}
    if relay is not None:
        near, role_t = ch.memory_transport_pair()
        # run_mitm_pumps' first side faces Alice
        sides = (far, near) if role == "bob" else (near, far)
        ends["to_alice"], ends["to_bob"] = map(RecordingTransport, sides)
        background["relay"] = lambda: ch.run_mitm_pumps(ends["to_alice"], ends["to_bob"], *relay)
    ends[role] = RecordingTransport(role_t)
    for line in lines:
        peer_t.send_line(line)
    if then_close:
        peer_t.close()
    parties = {role: lambda: ch.run_session(role, ends[role], cfg, n_trials, seed, set_id)}
    ended = run_parties(parties, background=background, close=[peer_t, role_t], **run)
    ended.ends = ends
    return ended
