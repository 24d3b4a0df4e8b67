"""Spans and counters around hselab's layer boundaries, for --trace 1 runs.

Wrappers go where the caller looks a function up: `montecarlo` imports
the rng functions by name, so the rng spans wrap
`hselab.montecarlo.bulk_uniforms`, not `hselab.rng.bulk_uniforms`.  A span
records its name, start, end, parent span, and the operation (CLI call or
session) and trial it belongs to.  Spans stay in memory until the run ends.
A layer's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time

# (module, attribute path, span name, kind).  "span" records timed spans;
# "count" only counts calls, for functions too cheap to time one by one.
TARGETS = (
    ("hselab.cli", "main", "cli.main", "span"),
    ("hselab.bases", "mu_basis_set", "bases.mu_basis_set", "span"),
    ("hselab.bases", "prime_complete_set", "bases.prime_complete_set", "span"),
    ("hselab.rates", "key_rate", "rates.key_rate", "span"),
    ("hselab.rates", "success_rate", "rates.success_rate", "span"),
    ("hselab.rates", "bob_error_rate", "rates.bob_error_rate", "span"),
    ("hselab.rates", "qber", "rates.qber", "span"),
    ("hselab.rates", "iter_rate", "rates.iter_rate", "span"),
    ("hselab.montecarlo", "estimate_rates", "montecarlo.estimate_rates", "span"),
    ("hselab.montecarlo", "bulk_uniforms", "rng.bulk_uniforms", "span"),
    ("hselab.montecarlo", "trial_keys", "rng.trial_keys", "span"),
    ("hselab.montecarlo", "born_probabilities", "hilbert.born_probabilities", "count"),
    ("hselab.rng", "RandomStream.uniform", "rng.uniform", "count"),
    ("hselab.protocol", "born_sample", "hilbert.born_sample", "span"),
    ("hselab.protocol", "AliceSession.states_for_trial", "protocol.AliceSession.states_for_trial", "span"),
    ("hselab.protocol", "BobSession.begin_trial", "protocol.BobSession.begin_trial", "span"),
    ("hselab.protocol", "BobSession.measure", "protocol.BobSession.measure", "span"),
    ("hselab.protocol", "BobSession.conclude", "protocol.BobSession.conclude", "span"),
    ("hselab.channel", "encode", "channel.encode", "span"),
    ("hselab.channel", "decode", "channel.decode", "span"),
)

# Spans whose second positional argument is the trial id of what follows.
TRIAL_ARG = {"protocol.AliceSession.states_for_trial", "protocol.BobSession.begin_trial"}

# Which layer metric should move which end-to-end metric, on which workload.
LAYER_MAP = {
    "rng": {
        "metrics": ["rng.bulk_uniforms.self_ms", "rng.trial_keys.self_ms", "rng.uniform.calls_per_trial"],
        "moves": ["trials_per_s", "eve_trials_per_s"],
        "workloads": ["sim", "session-mem"],
    },
    "hilbert": {
        "metrics": [
            "hilbert.born_sample.self_us",
            "hilbert.born_sample.calls_per_trial",
            "hilbert.born_probabilities.calls",
        ],
        "moves": ["trials_per_s", "eve_trials_per_s"],
        "workloads": ["session-mem", "sim"],
    },
    "bases": {"metrics": ["bases.build.self_ms"], "moves": ["setup_s"], "workloads": ["all"]},
    "rates": {
        "metrics": [
            "rates.key_rate.self_ms",
            "rates.success_rate.self_ms",
            "rates.bob_error_rate.self_ms",
            "rates.qber.self_ms",
            "rates.iter_rate.self_ms",
            "rates.key_rate.calls_per_report",
        ],
        "moves": ["rates_c6_ms", "eve_trials_per_s"],
        "workloads": ["rates", "sim"],
    },
    "montecarlo": {
        "metrics": [
            "montecarlo.estimate_rates.self_ms",
            "montecarlo.sampler_ns_per_trial",
            "montecarlo.analytics_share",
        ],
        "moves": ["trials_per_s", "eve_trials_per_s"],
        "workloads": ["sim"],
    },
    "protocol": {
        "metrics": [
            "protocol.AliceSession.states_for_trial.self_us",
            "protocol.BobSession.measure.self_us",
            "protocol.BobSession.conclude.self_us",
        ],
        "moves": ["trials_per_s"],
        "workloads": ["session-mem"],
    },
    "channel codec": {
        "metrics": [
            "channel.encode.self_us",
            "channel.decode.self_us",
            "channel.messages_per_trial",
            "channel.bytes_per_trial",
        ],
        "moves": ["trials_per_s", "eve_trials_per_s"],
        "workloads": ["session-mem"],
    },
    "channel transport": {
        "metrics": [
            "channel.send_calls_per_trial",
            "channel.alice_recv_wait_ms_per_trial",
            "channel.bob_recv_wait_ms_per_trial",
        ],
        "moves": ["trial_rtt_p50_ms", "trials_per_s"],
        "workloads": ["session-tcp"],
    },
    "channel relay": {
        "metrics": ["channel.relay_added_rtt_ms", "channel.relay_intercepts_per_trial"],
        "moves": ["eve_trials_per_s"],
        "workloads": ["session-mem", "session-tcp"],
    },
    "cli": {"metrics": ["cli.main.self_ms"], "moves": ["rates_c4_ms"], "workloads": ["rates"]},
}


def _resolve(module, path: str):
    """(owner, attribute) for a dotted path inside a module."""
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attr)
    return owner, attr


class Tracer:
    """Installs wrappers on hselab's layer boundaries and keeps their spans.

    A span is (name, start, end, span id, parent id, op, trial, self seconds).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: list[dict] = []
        self._patches: list[tuple] = []

    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.trial = None
            local.counts = {}
            self._counters.append(local.counts)
        return local

    def count(self, name: str, amount: int = 1) -> None:
        counts = self._thread().counts
        counts[name] = counts.get(name, 0) + amount

    def counts(self) -> dict:
        total: dict = {}
        for counts in self._counters:
            for name, value in counts.items():
                total[name] = total.get(name, 0) + value
        return total

    def _open(self):
        local = self._thread()
        frame = [next(self._ids), 0.0]
        parent = local.stack[-1][0] if local.stack else None
        local.stack.append(frame)
        return local, frame, parent

    def _close(self, name, local, frame, parent, started) -> None:
        ended = time.perf_counter()
        local.stack.pop()
        duration = ended - started
        if local.stack:
            local.stack[-1][1] += duration
        self.spans.append(
            (name, started, ended, frame[0], parent, self.op, local.trial, duration - frame[1])
        )

    def span_wrapper(self, name: str, fn):
        tracer = self
        sets_trial = name in TRIAL_ARG

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local, frame, parent = tracer._open()
            if sets_trial and len(args) > 1:
                local.trial = args[1]
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, local, frame, parent, started)

        return traced

    def count_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every target that exists; record the others as missing."""
        import importlib

        if self._patches:
            return
        self.missing = []
        for module_name, path, name, kind in TARGETS:
            try:
                owner, attr = _resolve(importlib.import_module(module_name), path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            original = owner.__dict__.get(attr, getattr(owner, attr))
            wrap = self.span_wrapper if kind == "span" else self.count_wrapper
            setattr(owner, attr, wrap(name, original))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @property
    def active(self) -> bool:
        return bool(self._patches)

    def transport(self, inner, role: str):
        return TracedTransport(inner, role, self) if self.active else inner

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["name", "start", "end", "id", "parent", "op", "trial", "self"]}))
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


class TracedTransport:
    """Spans for each send and receive of one endpoint, plus line and byte counts."""

    def __init__(self, inner, role: str, tracer: Tracer):
        self.inner = inner
        self._tracer = tracer
        self._send = f"channel.{role}.send"
        self._recv = f"channel.{role}.recv"
        self._role = role

    def send_line(self, line: bytes) -> None:
        tracer = self._tracer
        local, frame, parent = tracer._open()
        started = time.perf_counter()
        try:
            self.inner.send_line(line)
        finally:
            tracer._close(self._send, local, frame, parent, started)
        tracer.count(f"channel.{self._role}.bytes", len(line))
        tracer.count(f"channel.{self._role}.lines", line.count(b"\n"))

    def recv_line(self):
        tracer = self._tracer
        local, frame, parent = tracer._open()
        started = time.perf_counter()
        try:
            return self.inner.recv_line()
        finally:
            tracer._close(self._recv, local, frame, parent, started)

    def close(self) -> None:
        self.inner.close()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(setup_spans, spans, counts, calls, untraced_calls, workload: str) -> dict:
    """Per-layer figures of one traced run, normalised per call or per trial
    so that runs with different numbers of cycles compare."""
    total = {}  # name -> [calls, duration, self]
    for name, start, end, _, _, _, _, self_s in spans:
        entry = total.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += self_s

    def calls_of(name):
        return total.get(name, [0, 0.0, 0.0])[0]

    def self_of(name):
        return total.get(name, [0, 0.0, 0.0])[2]

    ok_calls = [c for c in calls if c.ok]
    ops = len(ok_calls)
    trials = sum(c.trials for c in ok_calls)
    session_calls = ok_calls if workload.startswith("session") else []
    session_trials = sum(c.trials for c in session_calls)
    direct_ops = {c.op for c in session_calls if c.mode == "plain"}
    direct_trials = sum(c.trials for c in session_calls if c.mode == "plain")
    relay_calls = [c for c in session_calls if c.mode == "eve"]
    relay_trials = sum(c.trials for c in relay_calls)
    sim_trials = trials if workload == "sim" else 0

    by_id = {span[3]: span for span in spans}
    estimate_total = analytics = 0.0
    for name, start, end, _, parent, *_ in spans:
        if name == "montecarlo.estimate_rates":
            estimate_total += end - start
        elif name.startswith("rates.") and parent in by_id and by_id[parent][0] == "montecarlo.estimate_rates":
            analytics += end - start

    def wait_ms_per_trial(role):
        waited = sum(
            end - start for name, start, end, _, _, op, *_ in spans
            if name == f"channel.{role}.recv" and op in direct_ops
        )
        return _ratio(waited * 1e3, direct_trials)

    def median_rtt_ms(mode):
        samples = [s for c in session_calls if c.mode == mode for s in c.rtt]
        return statistics.median(samples) * 1e3 if samples else 0.0

    endpoint_sends = calls_of("channel.alice.send") + calls_of("channel.bob.send")
    endpoint_lines = counts.get("channel.alice.lines", 0) + counts.get("channel.bob.lines", 0)
    endpoint_bytes = counts.get("channel.alice.bytes", 0) + counts.get("channel.bob.bytes", 0)
    reports = ops if workload in ("sim", "rates") else 0

    # Fastest cycles, as the end-to-end figures take the fastest calls.
    traced_walls = _cycle_walls(calls)
    untraced_walls = _cycle_walls(untraced_calls)
    overhead = min(traced_walls) - min(untraced_walls) if traced_walls and untraced_walls else 0.0

    setup_bases = sum(
        s[7] for s in setup_spans if s[0] in ("bases.mu_basis_set", "bases.prime_complete_set")
    )
    return {
        "rng.bulk_uniforms.self_ms": _ratio(self_of("rng.bulk_uniforms") * 1e3, ops),
        "rng.trial_keys.self_ms": _ratio(self_of("rng.trial_keys") * 1e3, ops),
        "rng.uniform.calls_per_trial": _ratio(counts.get("rng.uniform", 0), session_trials),
        "hilbert.born_sample.self_us": _ratio(self_of("hilbert.born_sample") * 1e6, calls_of("hilbert.born_sample")),
        "hilbert.born_sample.calls_per_trial": _ratio(calls_of("hilbert.born_sample"), session_trials),
        "hilbert.born_probabilities.calls": _ratio(counts.get("hilbert.born_probabilities", 0), ops),
        "bases.build.self_ms": setup_bases * 1e3,
        "rates.key_rate.self_ms": _ratio(self_of("rates.key_rate") * 1e3, ops),
        "rates.success_rate.self_ms": _ratio(self_of("rates.success_rate") * 1e3, ops),
        "rates.bob_error_rate.self_ms": _ratio(self_of("rates.bob_error_rate") * 1e3, ops),
        "rates.qber.self_ms": _ratio(self_of("rates.qber") * 1e3, ops),
        "rates.iter_rate.self_ms": _ratio(self_of("rates.iter_rate") * 1e3, ops),
        "rates.key_rate.calls_per_report": _ratio(calls_of("rates.key_rate"), reports),
        "montecarlo.estimate_rates.self_ms": _ratio(self_of("montecarlo.estimate_rates") * 1e3, ops),
        "montecarlo.sampler_ns_per_trial": _ratio((estimate_total - analytics) * 1e9, sim_trials),
        "montecarlo.analytics_share": _ratio(analytics, estimate_total),
        "protocol.AliceSession.states_for_trial.self_us": _ratio(
            self_of("protocol.AliceSession.states_for_trial") * 1e6,
            calls_of("protocol.AliceSession.states_for_trial"),
        ),
        "protocol.BobSession.measure.self_us": _ratio(
            self_of("protocol.BobSession.measure") * 1e6, calls_of("protocol.BobSession.measure")
        ),
        "protocol.BobSession.conclude.self_us": _ratio(
            self_of("protocol.BobSession.conclude") * 1e6, calls_of("protocol.BobSession.conclude")
        ),
        "channel.encode.self_us": _ratio(self_of("channel.encode") * 1e6, calls_of("channel.encode")),
        "channel.decode.self_us": _ratio(self_of("channel.decode") * 1e6, calls_of("channel.decode")),
        "channel.messages_per_trial": _ratio(endpoint_lines, session_trials),
        "channel.bytes_per_trial": _ratio(endpoint_bytes, session_trials),
        "channel.send_calls_per_trial": _ratio(endpoint_sends, session_trials),
        "channel.alice_recv_wait_ms_per_trial": wait_ms_per_trial("alice"),
        "channel.bob_recv_wait_ms_per_trial": wait_ms_per_trial("bob"),
        "channel.relay_added_rtt_ms": median_rtt_ms("eve") - median_rtt_ms("plain") if relay_calls else 0.0,
        "channel.relay_intercepts_per_trial": _ratio(sum(c.intercepts for c in relay_calls), relay_trials),
        "cli.main.self_ms": _ratio(self_of("cli.main") * 1e3, ops),
        "trace.overhead_ms": overhead * 1e3,
        "trace.overhead_share": _ratio(overhead, min(untraced_walls)) if untraced_walls else 0.0,
    }


def _cycle_walls(calls) -> list[float]:
    """Wall time of each complete cycle, summed over its calls."""
    by_cycle: dict[int, float] = {}
    for call in calls:
        by_cycle[call.cycle] = by_cycle.get(call.cycle, 0.0) + call.wall
    return list(by_cycle.values())
