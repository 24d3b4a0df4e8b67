"""Statistical harness: many trials, estimates with standard errors, and
z-scores against the analytic rates.

The default execution path evaluates whole blocks of trials with numpy,
drawing each trial's substream values at explicit counter positions so
the results are bit-identical to running protocol.run_trial one trial at
a time (a tested invariant).  `_measure` draws one slot of a block,
directly or through Eve, for both simulated protocols.

Two kernels keep a block cheap without changing a draw.  Bob's basis
tuple is Lehmer-decoded from his c-1 picks (`protocol._lehmer_decode`,
shared with Bob's session), which gives the letters
protocol.bob_choose_bases pops from its pool.  Each measurement inverts
a CDF row held as d-1 contiguous columns over the flattened (state,
basis) row index (`_hse_tensors`): `_invert_rows` counts, one `take` per
column, the entries <= u, which is the count hilbert.invert_cdf takes,
on the same cumsum floats.

The tensors come from the kernel every path shares, `hilbert.born_rows`,
one call per measuring basis over all the states it measures
(`_born_tensor`).  A row's floats do not depend on how many rows are
computed together, so each row is the `born_probabilities` row that
run_trial's `born_sample` inverts, and the outcomes are bit-identical.

Memory: a run holds one chunk of trials and one copy of its slot's CDF
tensors, and nothing else grows with n_trials or with the tensors.  The
tensors are written basis by basis into one buffer and accumulated there
in place (`_born_tensor`); the SplitMix kernels mix a private copy of their
input in place (see `rng`).  A chunk is CHUNK = 2**15 trials, so one
uint64 or float64 vector over it is 256 KB and each numpy pass over a
chunk stays in a core's L2 cache; the per-slot (c-1, chunk) index arrays
are the block's largest.  Chunks only divide the work: counts add up
exactly, so the chunk size changes no outcome.

`_Counts` is the one counter behind every SimReport: `add` sums event
arrays, `add_block` (the vector form of `TrialOutcome.of`) feeds it for
simulations and for `report_from_outcomes`, and `report` builds the
SimReport.  Counts commute, so chunked and serial execution agree exactly.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from . import rates
from .bases import BasisSet
from .errors import InvalidParameter
# born_probabilities is unused here; the benchmark's tracer counts calls
# through this name
from .hilbert import Basis, born_probabilities, born_rows
from .protocol import ALICE, BOB, EVE, TrialOutcome, _lehmer_decode
from .rates import ProtocolConfig
from .rng import bulk_uniforms, scaled_index, trial_keys

CHUNK = 2**15
Z_FAIL = 4.0
STAGES = ("tensors", "analytics", "sampling", "counting")


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
    stages: dict  # seconds per STAGES entry; empty for a finished session

    @property
    def elapsed(self) -> float:
        return math.fsum(self.stages.values())

    @property
    def estimates(self) -> dict:
        out = {"r_s": self.r_s, "r_qb": self.r_qb}
        if self.r_it is not None:
            out["r_it"] = self.r_it
        return out

    @property
    def consistent(self) -> bool:
        return all(e.consistent for e in self.estimates.values())


def _born_tensor(targets, amps) -> np.ndarray:
    """CDF columns of the Born rows of the states `amps` (one per row)
    measured in each basis of `targets`; column s*len(targets) + y holds
    state s in targets[y].  Each basis is one `born_rows` call, written
    into one preallocated (d, columns) buffer that is then accumulated in
    place, so the batch path holds one copy of the scalar path's floats."""
    n, d = amps.shape
    columns = np.empty((d, n, len(targets)))
    for y, basis in enumerate(targets):
        columns[:, :, y] = born_rows(basis, amps).T
    return _accumulate(columns.reshape(d, n * len(targets)))


def _accumulate(columns: np.ndarray) -> np.ndarray:
    """Turn (d, rows) probability columns into CDF columns in place and
    return columns 0..d-2, each a contiguous vector over the row index.
    Entry k of a row is the sum of its entries 0..k added in order, as the
    scalar path's cumsum adds them, so every entry is the same float.  The
    last column is dropped: see _invert_rows."""
    np.cumsum(columns, axis=0, out=columns)
    return columns[:-1]


def _hse_tensors(basis_set: BasisSet, eve: Basis | None):
    """CDF columns of one slot: (to_eve, from_eve) through Eve, else
    (direct,).  A row is indexed (x*d + a)*c + y for state a of basis x
    measured in basis y directly, x*d + a for Eve's measurement, and
    k*c + y for Bob's measurement of Eve's state k.  BKB01 sends one
    state through the same channel."""
    members = basis_set.bases
    # row x*d + a is state a of basis x
    sent = np.concatenate([basis.matrix.T for basis in members])
    if eve is not None:
        return _born_tensor((eve,), sent), _born_tensor(members, eve.matrix.T)
    return (_born_tensor(members, sent),)


def _invert_rows(columns: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vector form of hilbert.invert_cdf: per trial, the count of entries
    <= u in CDF row `rows`, gathered one column at a time.  A cumsum of
    non-negative probabilities never decreases, so the entries <= u are a
    prefix of the row; counting over the first d-1 columns alone therefore
    equals the full count capped at d-1."""
    return sum(column.take(rows) <= u for column in columns)


def _measure(tensors, c, d, x, a, y, bob_keys, bob_counter, eve_keys, eve_counter):
    """Bob's outcomes for one slot of a block: state a of basis x measured
    in basis y, directly or, when eve_keys is given, through Eve's basis.
    Each measurement computes its trials' CDF row index (see _hse_tensors)
    and inverts that row at the draw the scalar path takes."""
    if eve_keys is None:
        (direct,) = tensors
        return _invert_rows(direct, (x * d + a) * c + y, bulk_uniforms(bob_keys, bob_counter))
    to_eve, from_eve = tensors
    eve_outcome = _invert_rows(to_eve, x * d + a, bulk_uniforms(eve_keys, eve_counter))
    return _invert_rows(from_eve, eve_outcome * c + y, bulk_uniforms(bob_keys, bob_counter))


def _hse_block(config: ProtocolConfig, seed: int, start: int, count: int, tensors):
    """One block of trials, fully vectorized; returns per-trial (count,)
    x and (count, c-1) a, y and b arrays."""
    c, d = config.c, config.d
    trials = np.arange(start, start + count, dtype=np.uint64)
    alice_keys = trial_keys(seed, ALICE, trials)
    bob_keys = trial_keys(seed, BOB, trials)

    x = scaled_index(bulk_uniforms(alice_keys, 0), c)
    # slot-major: a[k], y[k] and b[k] are contiguous vectors over the block
    a = np.empty((c - 1, count), dtype=np.int64)
    y = np.empty((c - 1, count), dtype=np.int64)
    for k in range(c - 1):
        a[k] = scaled_index(bulk_uniforms(alice_keys, 1 + k), d)
        y[k] = scaled_index(bulk_uniforms(bob_keys, k), c - k)
    _lehmer_decode(y)

    eve_keys = trial_keys(seed, EVE, trials) if config.eve is not None else None
    b = np.empty((c - 1, count), dtype=np.int64)
    for k in range(c - 1):
        b[k] = _measure(tensors, c, d, x, a[k], y[k], bob_keys, (c - 1) + k, eve_keys, k)
    return x, a.T, y.T, b.T


@dataclass
class _Counts:
    """Event counts behind a SimReport: r_s is sifted/trials, r_qb is
    wrong/checked (sifted trials whose letter is known), r_it is
    same_errors/same_slots."""

    trials: int = 0
    sifted: int = 0
    checked: int = 0
    wrong: int = 0
    same_slots: int = 0
    same_errors: int = 0

    def add(self, sifted, wrong, same=None, same_errors=None) -> None:
        """Count a block from per-trial `sifted` and `wrong` flags (wrong
        None: no letter is known, so the block counts toward r_s only) and
        per-slot `same`-basis and `same_errors` flags."""
        n_sifted = int(sifted.sum())
        self.trials += sifted.shape[0]
        self.sifted += n_sifted
        if wrong is not None:
            self.checked += n_sifted
            self.wrong += int(wrong.sum())
        if same is not None:
            self.same_slots += int(same.sum())
            self.same_errors += int(same_errors.sum())

    def add_block(self, c: int, x, a, y, b) -> None:
        """The HSE rule of TrialOutcome.of over a block of trials: sifted
        when every b differs from a, Bob's letter the one missing from y."""
        sifted = np.all(a != b, axis=1)
        same = y == x[:, None]
        missing = c * (c - 1) // 2 - y.sum(axis=1)
        self.add(sifted, sifted & (missing != x), same, same & (b != a))

    def report(self, protocol: str, d: int, c: int, eve, seed: int, analytic, stages: dict) -> SimReport:
        """The SimReport of these counts against analytic (r_s, r_it, r_qb);
        an analytic r_it of None reports no index error rate."""
        s_analytic, it_analytic, qb_analytic = analytic
        return SimReport(
            protocol=protocol,
            d=d,
            c=c,
            eve_label=eve.label if eve is not None else None,
            n_trials=self.trials,
            seed=seed,
            r_s=_estimate(self.sifted, self.trials, s_analytic),
            r_it=None if it_analytic is None else _estimate(self.same_errors, self.same_slots, it_analytic),
            r_qb=_estimate(self.wrong, self.checked, qb_analytic),
            stages=stages,
        )


class _Stopwatch:
    """Seconds per stage of one run: `lap(stage)` charges the time since
    the previous lap (or since the watch was made) to that stage."""

    def __init__(self):
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self._mark = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] += now - self._mark
        self._mark = now


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
    watch = _Stopwatch()
    sampled = _sampled_config(config)
    tensors = _hse_tensors(sampled.basis_set, sampled.eve)
    watch.lap("tensors")
    analytic = _hse_analytics(sampled)
    watch.lap("analytics")
    counts = _Counts()
    for start in range(0, n_trials, CHUNK):
        block = _hse_block(sampled, seed, start, min(CHUNK, n_trials - start), tensors)
        watch.lap("sampling")
        counts.add_block(config.c, *block)
        watch.lap("counting")
    return counts.report("hse", config.d, config.c, config.eve, seed, analytic, watch.seconds)


def trial_outcomes_batch(config: ProtocolConfig, n_trials: int, seed: int):
    """Materialize the same TrialOutcome stream the per-trial runner
    produces, via the batch engine (used by tests and the benchmark)."""
    sampled = _sampled_config(config)
    tensors = _hse_tensors(sampled.basis_set, sampled.eve)
    outcomes = []
    for start in range(0, n_trials, CHUNK):
        block = _hse_block(sampled, seed, start, min(CHUNK, n_trials - start), tensors)
        rows = zip(*(part.tolist() for part in block))
        outcomes.extend(
            TrialOutcome.of(start + row, x, tuple(a), tuple(y), tuple(b), config.c)
            for row, (x, a, y, b) in enumerate(rows)
        )
    return outcomes


def simulate_bkb01(basis_set: BasisSet, eve: Basis | None, n_trials: int, seed: int) -> SimReport:
    """Simulate the basis-announcing comparison protocol on the c bases of
    d-dimensional `basis_set`: one state per round, sift on basis match,
    cross-checking its interception QBER."""
    c, d = basis_set.c, basis_set.d
    if n_trials < 1:
        raise InvalidParameter("n_trials must be >= 1")
    watch = _Stopwatch()
    tensors = _hse_tensors(basis_set, eve)
    watch.lap("tensors")
    qb_analytic = rates.bkb01_rates(c, d).r_qb if eve is not None else 0.0
    watch.lap("analytics")
    counts = _Counts()
    for start in range(0, n_trials, CHUNK):
        trials = np.arange(start, start + min(CHUNK, n_trials - start), dtype=np.uint64)
        alice_keys = trial_keys(seed, ALICE, trials)
        bob_keys = trial_keys(seed, BOB, trials)
        eve_keys = trial_keys(seed, EVE, trials) if eve is not None else None
        g = scaled_index(bulk_uniforms(alice_keys, 0), c)
        x = scaled_index(bulk_uniforms(alice_keys, 1), d)
        h = scaled_index(bulk_uniforms(bob_keys, 0), c)
        outcome = _measure(tensors, c, d, g, x, h, bob_keys, 1, eve_keys, 0)
        watch.lap("sampling")
        counts.add(h == g, (h == g) & (outcome != x))
        watch.lap("counting")
    return counts.report("bkb01", d, c, eve, seed, (1.0 / c, None, qb_analytic), watch.seconds)


def report_from_outcomes(config: ProtocolConfig, outcomes, seed: int) -> SimReport:
    """Summarize a finished session's TrialOutcomes against no-attack
    theory (the receiving side's view: large |z| means eavesdropping).

    Outcomes whose x field is unknown (no key comparison ran) contribute
    to the sift rate only.
    """
    x = np.array([o.x for o in outcomes], dtype=np.int64)
    a, y, b = (
        np.array([getattr(o, field) for o in outcomes], dtype=np.int64).reshape(-1, config.c - 1)
        for field in ("a", "y", "b")
    )
    known = x >= 0
    counts = _Counts()
    counts.add_block(config.c, x[known], a[known], y[known], b[known])
    counts.add(np.all(a[~known] != b[~known], axis=1), None)
    analytic = (rates.success_rate(config.basis_set), 0.0, 0.0)
    return counts.report("hse", config.d, config.c, None, seed, analytic, {})


CSV_COLUMNS = ["protocol", "d", "c", "metric", "analytic", "empirical", "stderr", "z"]


def report_rows(report: SimReport) -> list[dict]:
    """One row per metric of a SimReport, full precision: the CSV_COLUMNS
    and the sample count n."""
    return [
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
        for metric, est in report.estimates.items()
    ]


def format_report(report: SimReport) -> str:
    """Human-readable summary of one SimReport."""
    eve = report.eve_label or "none"
    stages = ", ".join(f"{stage} {seconds:.3f}s" for stage, seconds in report.stages.items())
    header = (
        f"{report.protocol} d={report.d} c={report.c} eve={eve} "
        f"trials={report.n_trials} seed={report.seed} ({report.elapsed:.2f}s{': ' + stages if stages else ''})"
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
