"""The four hselab workloads: set-up, one closed-loop cycle, checks, metrics.

Every workload drives hselab from one process with one closed-loop client:
one CLI command or one session at a time, the next started only after the
previous one returned.  A cycle runs the same list of calls.

Timings are taken from the fast end of many short samples: the fastest
command of each kind, and the session of each kind whose median trial is
fastest.  On a shared host the neighbours slow every sample for seconds at a
time, by about half, so a run's median lands wherever the neighbours were;
its fastest samples track what the program itself costs.

hselab is imported inside `import_modules`, never at module import time,
so that the runner can time the import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import socket
import statistics
import threading
import time
from array import array
from dataclasses import dataclass, field

Z_FAIL = 4.0
# Tier-1 compares enumeration with the MUB closed forms at 1e-10; at (7,8)
# enumeration is already ~3e-12 off, so a tighter tolerance fails spuriously.
RATE_TOL = 1e-10
RATE_KEYS = ("r_qb", "r_it", "r_s", "r_t", "r_k", "r_be", "n_s")
SESSION_TIMEOUT_S = 10.0
READY_TIMEOUT_S = 10.0
LOOPBACK = "127.0.0.1"
BASIS_SET_ID = "mub"


@dataclass
class Call:
    """One timed unit of the closed loop: a CLI command or a whole session."""

    op: int
    cycle: int
    size: tuple  # (d, c)
    mode: str  # "plain" (no Eve) or "eve"
    trials: int
    wall: float
    ok: bool
    # Per session trial, as Alice sees it: from her first quantum_state to
    # her sift_report (rtt), and to her next trial's first line (trial_s).
    rtt: array = field(default_factory=lambda: array("d"))
    trial_s: array = field(default_factory=lambda: array("d"))
    intercepts: int = 0


class Ledger:
    """Attempted and failed operations; keeps the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{what}: {problem}")
        return False


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def json_rows(text: str) -> list[dict]:
    """Every JSON object printed one per line; other lines are ignored, so
    the CLI may add fields or lines without breaking the benchmark."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict):
            rows.append(obj)
    return rows


def close_to(value, expected: float) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    return abs(value - expected) <= RATE_TOL * max(1.0, abs(expected))


def check_sim_rows(rows, d: int, c: int, eve: bool, closed) -> str | None:
    """A `hselab sim` report is correct when each rate row is present, its
    analytic value equals the MUB closed form and |z| <= 4."""
    expected = {
        "r_s": closed.r_k if eve else closed.r_s,
        "r_it": closed.r_it if eve else 0.0,
        "r_qb": closed.r_qb if eve else 0.0,
    }
    found = {}
    for row in rows:
        if row.get("metric") in expected and row.get("d") == d and row.get("c") == c:
            found[row["metric"]] = row
    for metric, analytic in expected.items():
        row = found.get(metric)
        if row is None:
            return f"no {metric} row"
        if not close_to(row.get("analytic"), analytic):
            return f"{metric} analytic {row.get('analytic')!r} != closed form {analytic!r}"
        z = row.get("z")
        if z is not None and not abs(z) <= Z_FAIL:
            return f"{metric} |z| = {abs(z)!r} > {Z_FAIL}"
    return None


def check_rate_rows(rows, d: int, c: int, closed) -> str | None:
    """A `hselab rates compute` report is correct when every rate agrees
    with the MUB closed forms within RATE_TOL."""
    for row in rows:
        if row.get("d") == d and row.get("c") == c and "r_qb" in row:
            for key in RATE_KEYS:
                expected = getattr(closed, key)
                if not close_to(row.get(key), expected):
                    return f"{key} = {row.get(key)!r}, closed form {expected!r}"
            return None
    return "no rate row"


def check_session(reference, outcomes, alice_log, n: int, intercepts: int | None, c: int) -> str | None:
    """Bob's outcomes equal run_trial trial for trial; Alice sent her letters;
    a relay recorded one interception per slot."""
    if outcomes != reference:
        bad = next(
            (t for t, (got, want) in enumerate(zip(outcomes, reference)) if got != want),
            min(len(outcomes), len(reference)),
        )
        return f"bob's outcome differs from run_trial at trial {bad}"
    if alice_log.trials != n or alice_log.letters != tuple(o.x for o in reference):
        return "alice's log does not match run_trial"
    if intercepts is not None and intercepts != (c - 1) * n:
        return f"relay logged {intercepts} interceptions, expected {(c - 1) * n}"
    return None


class Workload:
    """Shared loop plumbing; subclasses define set-up, calls and metrics."""

    name = ""
    GRID: tuple = ()
    # Mode of the calls behind trials_per_s, and of the calls timed by
    # rates_c4_ms / rates_c6_ms.
    PLAIN_MODE = "plain"
    SIZE_MODE = "eve"

    def __init__(self, seed: int, smoke: bool, ledger: Ledger):
        self.seed = seed
        self.smoke = smoke
        self.ledger = ledger
        self.tracer = None  # set by the runner for the traced half of a --trace 1 run
        self._ops = 0

    def _begin_op(self) -> int:
        self._ops += 1
        if self.tracer is not None:
            self.tracer.op = self._ops
        return self._ops

    def import_modules(self) -> None:
        import hselab.bases
        import hselab.channel
        import hselab.cli
        import hselab.montecarlo
        import hselab.protocol
        import hselab.rates

        self.hs = hselab

    def prepare(self) -> None:
        """Build basis sets and configs and make one untimed warm-up call."""
        raise NotImplementedError

    def run_cycle(self, cycle: int) -> list[Call]:
        raise NotImplementedError

    def verify(self) -> None:
        """Checks deferred until after the timed loop."""

    def end_to_end(self, calls: list[Call]) -> dict:
        # A command has no round trips: trial_rtt_p50_ms is the fastest
        # PLAIN_MODE command at the middle size.
        return {
            "trials_per_s": _fastest_rate(calls, self.PLAIN_MODE),
            "eve_trials_per_s": _fastest_rate(calls, "eve"),
            "trial_rtt_p50_ms": _fastest_wall_ms(calls, self.GRID[1], self.PLAIN_MODE),
            "rates_c4_ms": _fastest_wall_ms(calls, (3, 4), self.SIZE_MODE),
            "rates_c6_ms": _fastest_wall_ms(calls, (5, 6), self.SIZE_MODE),
        }

    def details(self, calls: list[Call]) -> dict:
        """Ungated figures for the result's details line."""
        return {}

    def close(self) -> None:
        """Undo anything set-up installed into hselab."""

    def _cli(self, argv) -> tuple[float, str, str | None]:
        out = io.StringIO()
        problem = None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.hs.cli.main(argv)
        except (Exception, SystemExit) as exc:  # the loop keeps going; the call counts as failed
            code = None
            problem = f"raised {exc.__class__.__name__}: {exc}"
        wall = time.perf_counter() - started
        if problem is None and code != 0:
            problem = f"exit code {code}"
        return wall, out.getvalue(), problem


def _fastest_calls(calls, mode: str) -> dict:
    """The fastest successful `mode` call of each size."""
    fastest: dict = {}
    for call in calls:
        if call.ok and call.mode == mode:
            best = fastest.get(call.size)
            if best is None or call.wall < best.wall:
                fastest[call.size] = call
    return fastest


def _fastest_rate(calls, mode: str) -> float:
    """Trials per second of one pass over the sizes, each at its fastest
    `mode` call, so every size weighs as it does in a cycle."""
    fastest = _fastest_calls(calls, mode).values()
    wall = sum(call.wall for call in fastest)
    return sum(call.trials for call in fastest) / wall if wall > 0 else 0.0


def _fastest_medians(calls, mode: str, samples: str) -> dict:
    """Per size, the lowest median of a per-trial field (`rtt` or
    `trial_s`) over the successful `mode` sessions."""
    fastest: dict = {}
    for call in calls:
        values = getattr(call, samples)
        if call.ok and call.mode == mode and values:
            median = statistics.median(values)
            fastest[call.size] = min(median, fastest.get(call.size, median))
    return fastest


def _pass_rate(seconds_per_trial: dict) -> float:
    """Trials per second of one trial at each size."""
    total = sum(seconds_per_trial.values())
    return len(seconds_per_trial) / total if total > 0 else 0.0


def _fastest_wall_ms(calls, size, mode: str) -> float:
    call = _fastest_calls(calls, mode).get(size)
    return call.wall * 1e3 if call is not None else 0.0


class SimWorkload(Workload):
    """`hselab sim --format jsonl` through cli.main.

    The timed grid stops at (5,6): at (7,8) the rates analytics alone hold
    one command for 0.2 s without Eve and 1.4 s with it, too long a sample
    to time steadily on a shared host, so (7,8) is only checked, once, after
    the timed loop.  20k trials keep each command between 15 and 60 ms,
    about half of it in the sampler.
    """

    name = "sim"
    GRID = ((2, 3), (3, 4), (5, 6))
    CHECK_ONLY = ((7, 8),)
    TRIALS = 20_000
    # One untimed command past montecarlo's 100k-trial chunk, so that
    # peak_rss_mb includes a full chunk of the sampler's arrays.
    LARGE_TRIALS = 300_000
    CHECK_TRIALS = 100

    def prepare(self) -> None:
        hs = self.hs
        self.trials = 2_000 if self.smoke else self.TRIALS
        self.closed = {}
        self.configs = []
        for d, c in self.GRID + self.CHECK_ONLY:
            basis_set = hs.bases.mu_basis_set(d, c)
            self.closed[(d, c)] = hs.rates.mub_closed_forms(c, d)
            for eve in (None, basis_set.bases[0]):
                self.configs.append(hs.rates.ProtocolConfig(c=c, d=d, basis_set=basis_set, eve=eve))
        self._command(-1, 2, 3, "plain")

    def _command(self, cycle: int, d: int, c: int, mode: str, trials: int | None = None) -> Call:
        op = self._begin_op()
        trials = trials or self.trials
        argv = [
            "sim", "--d", str(d), "--c", str(c),
            "--eve", "basis:0" if mode == "eve" else "none",
            "--trials", str(trials), "--seed", str(self.seed), "--format", "jsonl",
        ]
        wall, out, problem = self._cli(argv)
        if problem is None:
            problem = check_sim_rows(json_rows(out), d, c, mode == "eve", self.closed[(d, c)])
        ok = self.ledger.record(f"sim d={d} c={c} {mode} trials={trials}", problem)
        return Call(op, cycle, (d, c), mode, trials, wall, ok)

    def run_cycle(self, cycle: int) -> list[Call]:
        return [
            self._command(cycle, d, c, mode) for d, c in self.GRID for mode in ("plain", "eve")
        ]

    def verify(self) -> None:
        d, c = self.GRID[0]
        self._command(-1, d, c, "plain", 2 * self.trials if self.smoke else self.LARGE_TRIALS)
        for d, c in self.CHECK_ONLY:
            for mode in ("plain", "eve"):
                self._command(-1, d, c, mode)
        mc, protocol = self.hs.montecarlo, self.hs.protocol
        n = self.CHECK_TRIALS
        for config in self.configs:
            batch = mc.trial_outcomes_batch(config, n, self.seed)
            scalar = [protocol.run_trial(config, t, self.seed) for t in range(n)]
            label = f"batch==run_trial d={config.d} c={config.c} eve={config.eve is not None}"
            self.ledger.record(label, None if batch == scalar else "batch engine differs from run_trial")


class RatesWorkload(Workload):
    """`hselab rates compute --set prime --eve basis:0` through cli.main.

    (7,6) takes the first six bases of the prime set in dimension 7.  The
    timed grid leaves out (7,8), whose 40320 permutations hold one call for
    about 2 s, too long a sample to time steadily on a shared host, so (7,8)
    is only checked, once, after the timed loop; c=6 runs the same
    permutation loops over 720 permutations in 15 to 30 ms.
    """

    name = "rates"
    GRID = ((3, 4), (5, 6), (7, 6))
    CHECK_ONLY = ((7, 8),)
    # Every rate report includes the Eve rates, so both throughputs count reports.
    PLAIN_MODE = "eve"

    def prepare(self) -> None:
        self.closed = {
            (d, c): self.hs.rates.mub_closed_forms(c, d) for d, c in self.GRID + self.CHECK_ONLY
        }
        self._command(-1, 3, 4)

    def _command(self, cycle: int, d: int, c: int) -> Call:
        op = self._begin_op()
        argv = [
            "rates", "compute", "--protocol", "hse", "--set", "prime",
            "--d", str(d), "--c", str(c), "--eve", "basis:0", "--format", "jsonl",
        ]
        wall, out, problem = self._cli(argv)
        if problem is None:
            problem = check_rate_rows(json_rows(out), d, c, self.closed[(d, c)])
        ok = self.ledger.record(f"rates d={d} c={c}", problem)
        # rates runs no trials: its unit of work is one rate report
        return Call(op, cycle, (d, c), "eve", 1, wall, ok)

    def run_cycle(self, cycle: int) -> list[Call]:
        return [self._command(cycle, d, c) for d, c in self.GRID]

    def verify(self) -> None:
        for d, c in self.CHECK_ONLY:
            self._command(-1, d, c)


class RttTransport:
    """Alice's transport with a timestamp at each end of every exchange.

    An exchange starts with the first line Alice sends after a reply and
    ends when the next recv_line returns.  At protocol version 1 the first
    exchange is the handshake, then one per trial from her first
    quantum_state to her sift_report, and the last is the closing bye.
    """

    __slots__ = ("inner", "starts", "ends", "_waiting")

    def __init__(self, inner, starts: array, ends: array):
        self.inner = inner
        self.starts = starts
        self.ends = ends
        self._waiting = False

    def send_line(self, line: bytes) -> None:
        if not self._waiting:
            self.starts.append(time.perf_counter())
            self._waiting = True
        self.inner.send_line(line)

    def recv_line(self):
        line = self.inner.recv_line()
        if self._waiting:
            self.ends.append(time.perf_counter())
            self._waiting = False
        return line

    def close(self) -> None:
        self.inner.close()


def free_ports(count: int) -> list[int]:
    """Distinct loopback ports the kernel just handed out for port 0."""
    probes = [socket.socket(socket.AF_INET, socket.SOCK_STREAM) for _ in range(count)]
    try:
        for probe in probes:
            probe.bind((LOOPBACK, 0))
        return [probe.getsockname()[1] for probe in probes]
    finally:
        for probe in probes:
            probe.close()


def run_endpoints(endpoints, timeout: float, on_timeout=None):
    """Run each endpoint in its own thread until all return.

    `endpoints` is a list of (name, fn, ready) started in order; when
    `ready` is an Event, the next endpoint starts only once it is set.
    Returns (results, errors, wall seconds).  An endpoint still running at
    the deadline is an error; `on_timeout` may then unblock it.
    """
    results, errors = {}, {}

    def body(name, fn):
        try:
            results[name] = fn()
        except Exception as exc:  # reported as a failed session, never retried
            errors[name] = exc

    started = time.perf_counter()
    deadline = started + timeout
    threads = []
    for name, fn, ready in endpoints:
        thread = threading.Thread(target=body, args=(name, fn), name=f"bench-{name}", daemon=True)
        thread.start()
        threads.append(thread)
        if ready is not None and not ready.wait(READY_TIMEOUT_S):
            errors[name] = TimeoutError(f"{name} never became ready")
            break
    for thread in threads:
        thread.join(max(0.0, deadline - time.perf_counter()))
    wall = time.perf_counter() - started
    hung = [thread.name for thread in threads if thread.is_alive()]
    if hung:
        errors["timeout"] = TimeoutError(f"still running after {timeout:.0f} s: {', '.join(hung)}")
        if on_timeout is not None:
            on_timeout()
        for thread in threads:
            thread.join(5.0)
    return results, errors, wall


class SessionWorkload(Workload):
    """Alice and Bob sessions, directly and through the intercept-and-resend
    relay, from the smallest quantum_state line (2,3) to the largest (7,8).

    Session timings are per trial: each session's median trial, and the run
    reports, per size and mode, the session where that median is lowest.  A
    session's wall time is a sum, which any slow stretch inside it raises; its
    median trial stays put while fewer than half of its trials are slowed.
    """

    GRID = ((2, 3), (3, 4), (5, 6), (7, 8))
    TRIALS = 0
    SHORT_TRIALS = 0  # trials of the warm-up session and of --smoke sessions

    def prepare(self) -> None:
        hs = self.hs
        self.trials = self.SHORT_TRIALS if self.smoke else self.TRIALS
        self.configs = {}
        for d, c in self.GRID:
            basis_set = hs.bases.mu_basis_set(d, c)
            plain = hs.rates.ProtocolConfig(c=c, d=d, basis_set=basis_set)
            attacked = hs.rates.ProtocolConfig(c=c, d=d, basis_set=basis_set, eve=basis_set.bases[0])
            self.configs[(d, c)] = (plain, attacked)
        self._stamps = (array("d"), array("d"))
        # serve_session and connect_session build their transports inside;
        # run_session is where every endpoint's transport passes through.
        self._unhooked = self._run_session = hs.channel.run_session
        hs.channel.run_session = self._hooked_run_session
        self._session(-1, self.GRID[0], "plain", self.SHORT_TRIALS)

    def close(self) -> None:
        if getattr(self, "_unhooked", None) is not None:
            self.hs.channel.run_session = self._unhooked

    def _hooked_run_session(self, role, transport, *args, **kwargs):
        if role == "alice":
            transport = RttTransport(transport, *self._stamps)
        if self.tracer is not None:
            transport = self.tracer.transport(transport, role)
        return self._run_session(role, transport, *args, **kwargs)

    def _session_seed(self, cycle: int, k: int) -> int:
        return (self.seed * 1_000_003 + (cycle + 1) * 101 + k) & 0x7FFFFFFF

    def run_cycle(self, cycle: int) -> list[Call]:
        calls = []
        for k, size in enumerate(self.GRID):
            for mode in ("plain", "eve"):
                calls.append(self._session(cycle, size, mode, self.trials, 2 * k + (mode == "eve")))
        return calls

    def _session(self, cycle: int, size, mode: str, n: int, k: int = 0) -> Call:
        op = self._begin_op()
        plain, attacked = self.configs[size]
        seed = self._session_seed(cycle, k)
        self._stamps = starts, ends = array("d"), array("d")
        if mode == "eve":
            results, errors, wall = self._relay(plain, n, seed)
        else:
            results, errors, wall = self._direct(plain, n, seed)
        label = f"{self.name} d={size[0]} c={size[1]} {mode} seed={seed}"
        mitm = results.get("relay")
        intercepts = len(mitm.records) if mitm is not None else 0
        # Exchange 0 is the handshake, 1..n the trials, n + 1 the closing bye.
        rtt = array("d", (end - start for start, end in zip(starts[1:n + 1], ends[1:n + 1])))
        trial_s = array("d", (b - a for a, b in zip(starts[1:n + 1], starts[2:n + 2])))
        call = Call(op, cycle, size, mode, n, wall, not errors, rtt, trial_s, intercepts)
        if errors:
            name, exc = next(iter(errors.items()))
            self.ledger.record(label, f"{name} raised {exc.__class__.__name__}: {exc}")
            return call
        # Checked now, outside the session's wall time, so that outcomes are
        # not kept and peak memory does not grow with the number of cycles.
        config = attacked if mode == "eve" else plain
        with self._untraced():
            reference = [self.hs.protocol.run_trial(config, t, seed) for t in range(n)]
        problem = check_session(
            reference, results["bob"], results["alice"], n,
            intercepts if mode == "eve" else None, config.c,
        )
        call.ok = self.ledger.record(label, problem)
        return call

    @contextlib.contextmanager
    def _untraced(self):
        """Keep the reference run_trial calls out of the trace."""
        tracer = self.tracer
        if tracer is None or not tracer.active:
            yield
            return
        tracer.uninstall()
        try:
            yield
        finally:
            tracer.install()

    def end_to_end(self, calls) -> dict:
        direct = _fastest_medians(calls, "plain", "trial_s")
        relay = _fastest_medians(calls, "eve", "trial_s")
        return {
            "trials_per_s": _pass_rate(direct),
            "eve_trials_per_s": _pass_rate(relay),
            "trial_rtt_p50_ms": _fastest_medians(calls, "plain", "rtt").get((3, 4), 0.0) * 1e3,
            "rates_c4_ms": direct.get((3, 4), 0.0) * 1e3,
            "rates_c6_ms": direct.get((5, 6), 0.0) * 1e3,
        }

    def details(self, calls) -> dict:
        """The p95 round trip over all direct sessions at (3,4), and the
        fastest session wall per size and mode, which the gated figures
        leave out: a tail and a sum, both set by the neighbours as much as
        by hselab."""
        pooled = [s for c in calls if c.ok and c.mode == "plain" and c.size == (3, 4) for s in c.rtt]
        return {
            "trial_rtt_p95_ms": percentile(pooled, 95) * 1e3 if pooled else None,
            "round_trips": len(pooled),
            "fastest_session_ms": {
                f"{mode} {d},{c}": call.wall * 1e3
                for mode in ("plain", "eve")
                for (d, c), call in sorted(_fastest_calls(calls, mode).items())
            },
        }


class MemorySessionWorkload(SessionWorkload):
    """run_session over memory_transport_pair, directly and via run_mitm_pumps."""

    name = "session-mem"
    # Sessions of 15 to 90 ms: many sessions of each kind per run, each short
    # enough to fall between the neighbours' slow stretches.
    TRIALS = 50
    SHORT_TRIALS = 5

    def _direct(self, config, n, seed):
        ch = self.hs.channel
        alice_t, bob_t = ch.memory_transport_pair()

        def unblock():
            alice_t.close()
            bob_t.close()

        return run_endpoints(
            [
                ("alice", lambda: ch.run_session("alice", alice_t, config, n, seed, BASIS_SET_ID), None),
                ("bob", lambda: ch.run_session("bob", bob_t, config, n, seed, BASIS_SET_ID), None),
            ],
            SESSION_TIMEOUT_S,
            unblock,
        )

    def _relay(self, config, n, seed):
        ch = self.hs.channel
        alice_t, eve_alice_side = ch.memory_transport_pair()
        eve_bob_side, bob_t = ch.memory_transport_pair()
        eve_basis = config.basis_set.bases[0]

        def bob():
            try:
                return ch.run_session("bob", bob_t, config, n, seed, BASIS_SET_ID)
            finally:
                # Bob returning ends the session; closing the outer ends lets
                # the pumps see EOF instead of waiting out the receive timeout.
                alice_t.close()
                bob_t.close()

        def unblock():
            for transport in (alice_t, bob_t, eve_alice_side, eve_bob_side):
                transport.close()

        return run_endpoints(
            [
                ("relay", lambda: ch.run_mitm_pumps(eve_alice_side, eve_bob_side, eve_basis, seed), None),
                ("bob", bob, None),
                ("alice", lambda: ch.run_session("alice", alice_t, config, n, seed, BASIS_SET_ID), None),
            ],
            SESSION_TIMEOUT_S,
            unblock,
        )


class TcpSessionWorkload(SessionWorkload):
    """serve_session / connect_session over TCP loopback, directly and via run_mitm."""

    name = "session-tcp"
    # About 45 ms a trial, nearly all of it the delayed-ACK timer: 10 trials
    # keep a cycle near 4 s, so a run ends soon after its --seconds.
    TRIALS = 10
    SHORT_TRIALS = 2

    def _dial(self, port, config, n, seed):
        ch = self.hs.channel
        for _ in range(1000):
            try:
                return ch.connect_session(LOOPBACK, port, "alice", config, n, seed, BASIS_SET_ID)
            except ch.SessionError as exc:
                if not isinstance(exc.__cause__, ConnectionRefusedError):
                    raise
            time.sleep(0.002)
        raise TimeoutError(f"nothing listened on port {port}")

    def _direct(self, config, n, seed):
        ch = self.hs.channel
        (bob_port,) = free_ports(1)
        ready = threading.Event()

        def bob():
            return ch.serve_session(
                LOOPBACK, bob_port, "bob", config, n, seed, BASIS_SET_ID, ready_event=ready
            )

        return run_endpoints(
            [("bob", bob, ready), ("alice", lambda: self._dial(bob_port, config, n, seed), None)],
            SESSION_TIMEOUT_S,
        )

    def _relay(self, config, n, seed):
        ch = self.hs.channel
        bob_port, relay_port = free_ports(2)
        ready = threading.Event()
        eve_basis = config.basis_set.bases[0]

        def bob():
            return ch.serve_session(
                LOOPBACK, bob_port, "bob", config, n, seed, BASIS_SET_ID, ready_event=ready
            )

        def relay():
            return ch.run_mitm((LOOPBACK, relay_port), (LOOPBACK, bob_port), eve_basis, seed)

        return run_endpoints(
            [
                ("bob", bob, ready),
                ("relay", relay, None),
                ("alice", lambda: self._dial(relay_port, config, n, seed), None),
            ],
            SESSION_TIMEOUT_S,
        )


WORKLOADS = {
    cls.name: cls
    for cls in (SimWorkload, RatesWorkload, MemorySessionWorkload, TcpSessionWorkload)
}
