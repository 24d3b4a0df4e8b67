"""Statistical harness: many trials, estimates with standard errors, and
z-scores against the analytic rates.

The default execution path evaluates whole blocks of trials with numpy,
drawing each trial's substream values at explicit counter positions so
the results are bit-identical to running protocol.run_trial one trial at
a time (a tested invariant).  Blocks are aggregated by commutative
counters, so chunked and serial execution agree exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import rates
from .bases import BasisSet
from .errors import InvalidParameter
from .hilbert import Basis, born_probabilities
from .protocol import ALICE, BOB, EVE, TrialOutcome, infer_letter
from .rates import ProtocolConfig
from .rng import bulk_uniforms, scaled_index, trial_keys

CHUNK = 100_000
Z_FAIL = 4.0


@dataclass(frozen=True)
class Estimate:
    """A sampled proportion with its analytic counterpart.

    `n` is the number of Bernoulli samples behind the estimate; `value`
    is None when no samples occurred (e.g. no same-basis slots at tiny n).
    z is defined only when stderr > 0; when the estimator is degenerate
    (stderr 0) it is 0.0 on exact agreement and infinite otherwise.
    """

    value: float | None
    stderr: float | None
    n: int
    analytic: float
    z: float | None

    @property
    def consistent(self) -> bool:
        return self.z is None or abs(self.z) <= Z_FAIL


def _estimate(successes: int, n: int, analytic: float) -> Estimate:
    analytic = float(analytic)
    if n == 0:
        return Estimate(value=None, stderr=None, n=0, analytic=analytic, z=None)
    p_hat = successes / n
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / n)
    if stderr > 0.0:
        z = (p_hat - analytic) / stderr
    else:
        z = 0.0 if p_hat == analytic else math.inf
    return Estimate(value=p_hat, stderr=stderr, n=n, analytic=analytic, z=z)


@dataclass(frozen=True)
class SimReport:
    """Empirical rates of one simulated configuration."""

    protocol: str
    d: int
    c: int
    eve_label: str | None
    n_trials: int
    seed: int
    r_s: Estimate
    r_it: Estimate | None
    r_qb: Estimate
    elapsed: float

    @property
    def estimates(self) -> dict:
        out = {"r_s": self.r_s, "r_qb": self.r_qb}
        if self.r_it is not None:
            out["r_it"] = self.r_it
        return out

    @property
    def consistent(self) -> bool:
        return all(e.consistent for e in self.estimates.values())

    @property
    def worst_abs_z(self) -> float:
        zs = [abs(e.z) for e in self.estimates.values() if e.z is not None]
        return max(zs, default=0.0)


def _born_tensor(targets, states) -> np.ndarray:
    """Stack born_probabilities rows so the batch path reuses the exact
    per-measurement floats of the scalar path."""
    rows = [born_probabilities(basis, state) for basis, state in zip(targets, states)]
    return np.stack(rows)


def _hse_tensors(basis_set: BasisSet, eve: Basis | None):
    """Cumulative Born rows of one slot: (to_eve, from_eve) through Eve,
    else (direct,).  BKB01 sends one state through the same channel."""
    members = basis_set.bases
    c, d = basis_set.c, basis_set.d
    if eve is not None:
        to_eve = _born_tensor(
            [eve] * (c * d), [members[x].vectors[i] for x in range(c) for i in range(d)]
        ).reshape(c, d, d)
        from_eve = _born_tensor(
            [members[y] for _ in range(d) for y in range(c)],
            [eve.vectors[k] for k in range(d) for _ in range(c)],
        ).reshape(d, c, d)
        return np.cumsum(to_eve, axis=-1), np.cumsum(from_eve, axis=-1)
    direct = _born_tensor(
        [members[y] for x in range(c) for i in range(d) for y in range(c)],
        [members[x].vectors[i] for x in range(c) for i in range(d) for y in range(c)],
    ).reshape(c, d, c, d)
    return (np.cumsum(direct, axis=-1),)


def _invert_rows(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vector form of hilbert.sample_from_probs: count of cdf entries <= u."""
    idx = (cum_rows <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cum_rows.shape[1] - 1)


def _hse_block(config: ProtocolConfig, seed: int, start: int, count: int, tensors, letters=None):
    """One block of trials, fully vectorized; returns per-trial arrays."""
    c, d = config.c, config.d
    trials = np.arange(start, start + count, dtype=np.uint64)
    alice_keys = trial_keys(seed, ALICE, trials)
    bob_keys = trial_keys(seed, BOB, trials)

    if letters is None:
        x = scaled_index(bulk_uniforms(alice_keys, 0), c)
    else:
        x = np.asarray(letters[start : start + count], dtype=np.int64)
    a = np.empty((count, c - 1), dtype=np.int64)
    for k in range(c - 1):
        a[:, k] = scaled_index(bulk_uniforms(alice_keys, 1 + k), d)

    # Bob's ordered distinct tuple: Fisher-Yates prefix, one uniform per slot
    y = np.empty((count, c - 1), dtype=np.int64)
    pool = np.broadcast_to(np.arange(c, dtype=np.int64), (count, c)).copy()
    for k in range(c - 1):
        pick = scaled_index(bulk_uniforms(bob_keys, k), c - k)
        y[:, k] = np.take_along_axis(pool, pick[:, None], axis=1)[:, 0]
        cols = np.arange(c - k - 1, dtype=np.int64)[None, :]
        pool = np.take_along_axis(pool, cols + (cols >= pick[:, None]), axis=1)

    b = np.empty((count, c - 1), dtype=np.int64)
    if config.eve is not None:
        eve_keys = trial_keys(seed, EVE, trials)
        to_eve_cum, from_eve_cum = tensors
        for k in range(c - 1):
            eve_outcome = _invert_rows(to_eve_cum[x, a[:, k]], bulk_uniforms(eve_keys, k))
            b[:, k] = _invert_rows(
                from_eve_cum[eve_outcome, y[:, k]], bulk_uniforms(bob_keys, (c - 1) + k)
            )
    else:
        (direct_cum,) = tensors
        for k in range(c - 1):
            b[:, k] = _invert_rows(
                direct_cum[x, a[:, k], y[:, k]], bulk_uniforms(bob_keys, (c - 1) + k)
            )
    return x, a, y, b


@dataclass
class _Counts:
    trials: int = 0
    sifted: int = 0
    wrong: int = 0
    same_slots: int = 0
    same_errors: int = 0

    def add_block(self, c: int, x, a, y, b) -> None:
        sifted = np.all(a != b, axis=1)
        same = y == x[:, None]
        missing = c * (c - 1) // 2 - y.sum(axis=1)
        self.trials += x.shape[0]
        self.sifted += int(sifted.sum())
        self.wrong += int((sifted & (missing != x)).sum())
        self.same_slots += int(same.sum())
        self.same_errors += int((same & (b != a)).sum())


def _sampled_config(config: ProtocolConfig) -> ProtocolConfig:
    """The config the batch engine samples: without Eve when she never
    intercepts.  Partial interception has no batch path."""
    if config.eve is None or config.intercept_fraction == 1.0:
        return config
    if config.intercept_fraction == 0.0:
        return dataclasses.replace(config, eve=None)
    raise InvalidParameter("the batch engine does not sample partial interception")


def _hse_analytics(config: ProtocolConfig):
    if config.eve is not None:
        report = rates.rate_report(config.basis_set, config.eve)
        return report.r_k, report.r_it, report.r_qb
    return rates.success_rate(config.basis_set), 0.0, 0.0


def estimate_rates(config: ProtocolConfig, n_trials: int, seed: int) -> SimReport:
    """Run n_trials rounds and compare the three observable rates against
    their analytic values."""
    if n_trials < 1:
        raise InvalidParameter("n_trials must be >= 1")
    started = time.perf_counter()
    sampled = _sampled_config(config)
    sift_analytic, it_analytic, qb_analytic = _hse_analytics(sampled)
    counts = _Counts()
    tensors = _hse_tensors(sampled.basis_set, sampled.eve)
    for start in range(0, n_trials, CHUNK):
        block = _hse_block(sampled, seed, start, min(CHUNK, n_trials - start), tensors)
        counts.add_block(config.c, *block)
    return SimReport(
        protocol="hse",
        d=config.d,
        c=config.c,
        eve_label=config.eve.label if config.eve is not None else None,
        n_trials=n_trials,
        seed=seed,
        r_s=_estimate(counts.sifted, counts.trials, sift_analytic),
        r_it=_estimate(counts.same_errors, counts.same_slots, it_analytic),
        r_qb=_estimate(counts.wrong, counts.sifted, qb_analytic),
        elapsed=time.perf_counter() - started,
    )


def trial_outcomes_batch(config: ProtocolConfig, n_trials: int, seed: int, letters=None):
    """Materialize the same TrialOutcome stream the per-trial runner
    produces, via the batch engine (used by tests and the sweep tooling)."""
    sampled = _sampled_config(config)
    tensors = _hse_tensors(sampled.basis_set, sampled.eve)
    outcomes = []
    for start in range(0, n_trials, CHUNK):
        x, a, y, b = _hse_block(
            sampled, seed, start, min(CHUNK, n_trials - start), tensors, letters=letters
        )
        sifted = np.all(a != b, axis=1)
        for row in range(x.shape[0]):
            is_sifted = bool(sifted[row])
            xi = int(x[row])
            outcomes.append(
                TrialOutcome(
                    trial_id=start + row,
                    x=xi,
                    a=tuple(int(v) for v in a[row]),
                    y=tuple(int(v) for v in y[row]),
                    b=tuple(int(v) for v in b[row]),
                    sifted=is_sifted,
                    bob_letter=infer_letter(tuple(int(v) for v in y[row]), config.c)
                    if is_sifted
                    else None,
                    index_error_slots=tuple(
                        k
                        for k in range(config.c - 1)
                        if y[row, k] == xi and b[row, k] != a[row, k]
                    ),
                )
            )
    return outcomes


def simulate_bkb01(
    c: int, d: int, basis_set: BasisSet, eve: Basis | None, n_trials: int, seed: int
) -> SimReport:
    """Simulate the basis-announcing comparison protocol: one state per
    round, sift on basis match, cross-checking its interception QBER."""
    if basis_set.c != c or basis_set.d != d:
        raise InvalidParameter("basis set does not match (c, d)")
    if n_trials < 1:
        raise InvalidParameter("n_trials must be >= 1")
    started = time.perf_counter()
    tensors = _hse_tensors(basis_set, eve)

    trials_total = sifted_total = wrong_total = 0
    for start in range(0, n_trials, CHUNK):
        count = min(CHUNK, n_trials - start)
        trials = np.arange(start, start + count, dtype=np.uint64)
        alice_keys = trial_keys(seed, ALICE, trials)
        bob_keys = trial_keys(seed, BOB, trials)
        g = scaled_index(bulk_uniforms(alice_keys, 0), c)
        x = scaled_index(bulk_uniforms(alice_keys, 1), d)
        h = scaled_index(bulk_uniforms(bob_keys, 0), c)
        if eve is not None:
            eve_keys = trial_keys(seed, EVE, trials)
            to_eve, from_eve = tensors
            eve_outcome = _invert_rows(to_eve[g, x], bulk_uniforms(eve_keys, 0))
            outcome = _invert_rows(from_eve[eve_outcome, h], bulk_uniforms(bob_keys, 1))
        else:
            (direct,) = tensors
            outcome = _invert_rows(direct[g, x, h], bulk_uniforms(bob_keys, 1))
        sifted = h == g
        trials_total += count
        sifted_total += int(sifted.sum())
        wrong_total += int((sifted & (outcome != x)).sum())

    qb_analytic = (c - 1) * (d - 1) / (c * d) if eve is not None else 0.0
    return SimReport(
        protocol="bkb01",
        d=d,
        c=c,
        eve_label=eve.label if eve is not None else None,
        n_trials=n_trials,
        seed=seed,
        r_s=_estimate(sifted_total, trials_total, 1.0 / c),
        r_it=None,
        r_qb=_estimate(wrong_total, sifted_total, qb_analytic),
        elapsed=time.perf_counter() - started,
    )


def report_from_outcomes(config: ProtocolConfig, outcomes, seed: int) -> SimReport:
    """Summarize a finished session's TrialOutcomes against no-attack
    theory (the receiving side's view: large |z| means eavesdropping).

    Outcomes whose x field is unknown (no key comparison ran) contribute
    to the sift rate only.
    """
    counts = _Counts()
    compared = wrong = 0
    for outcome in outcomes:
        counts.trials += 1
        counts.sifted += outcome.sifted
        if outcome.x >= 0:
            compared += outcome.sifted
            wrong += outcome.sifted and outcome.bob_letter != outcome.x
            same = [k for k in range(config.c - 1) if outcome.y[k] == outcome.x]
            counts.same_slots += len(same)
            counts.same_errors += len(outcome.index_error_slots)
    return SimReport(
        protocol="hse",
        d=config.d,
        c=config.c,
        eve_label=None,
        n_trials=counts.trials,
        seed=seed,
        r_s=_estimate(counts.sifted, counts.trials, rates.success_rate(config.basis_set)),
        r_it=_estimate(counts.same_errors, counts.same_slots, 0.0),
        r_qb=_estimate(wrong, compared, 0.0),
        elapsed=0.0,
    )


@dataclass(frozen=True)
class SweepResult:
    reports: list
    worst_abs_z: float

    @property
    def ok(self) -> bool:
        return self.worst_abs_z <= Z_FAIL


def sweep(configs, n_trials: int, seed: int) -> SweepResult:
    """estimate_rates over a grid of configs; |z| > 4 anywhere flags the
    sweep as failed."""
    reports = [estimate_rates(config, n_trials, seed) for config in configs]
    worst = max((r.worst_abs_z for r in reports), default=0.0)
    return SweepResult(reports=reports, worst_abs_z=worst)


CSV_COLUMNS = ["protocol", "d", "c", "metric", "analytic", "empirical", "stderr", "z"]


def to_csv(reports) -> str:
    """Metric-per-row CSV serialization of one or more SimReports."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        for metric, est in report.estimates.items():
            writer.writerow(
                [
                    report.protocol,
                    report.d,
                    report.c,
                    metric,
                    repr(est.analytic),
                    "" if est.value is None else repr(est.value),
                    "" if est.stderr is None else repr(est.stderr),
                    "" if est.z is None else repr(est.z),
                ]
            )
    return buf.getvalue()


def to_json_lines(reports) -> str:
    """One JSON object per metric row, full precision."""
    lines = []
    for report in reports:
        for metric, est in report.estimates.items():
            lines.append(
                json.dumps(
                    {
                        "protocol": report.protocol,
                        "d": report.d,
                        "c": report.c,
                        "metric": metric,
                        "analytic": est.analytic,
                        "empirical": est.value,
                        "stderr": est.stderr,
                        "z": est.z,
                        "n": est.n,
                    }
                )
            )
    return "\n".join(lines) + "\n"


def format_report(report: SimReport) -> str:
    """Human-readable summary of one SimReport."""
    eve = report.eve_label or "none"
    header = (
        f"{report.protocol} d={report.d} c={report.c} eve={eve} "
        f"trials={report.n_trials} seed={report.seed} ({report.elapsed:.2f}s)"
    )
    lines = [header]
    for metric, est in report.estimates.items():
        if est.value is None:
            lines.append(f"  {metric}: no samples (analytic {est.analytic:.6f})")
        else:
            z = "n/a" if est.z is None else f"{est.z:+.2f}"
            lines.append(
                f"  {metric}: {est.value:.6f} +/- {est.stderr:.6f} "
                f"(analytic {est.analytic:.6f}, z {z}, n {est.n})"
            )
    return "\n".join(lines)
