"""Statistical harness: many trials, estimates with standard errors, and
z-scores against the analytic rates.

The default execution path evaluates whole blocks of trials with numpy,
drawing each trial's substream values at explicit counter positions so
the results are bit-identical to running protocol.run_trial one trial at
a time (a tested invariant).  `_hse_block` samples a block of trials
with as many slots as its workspace holds, and `_measure` measures one
slot, directly or through Eve.  A BKB01 round is a one-slot HSE trial, so
both simulated protocols run the same sampler, and every batch run
(`estimate_rates`, `trial_outcomes_batch`, `simulate_bkb01`) iterates the
one chunk loop `_blocks`.

A draw stays its 53-bit numerator m (`rng.bulk_uniforms`), the draw
u = m * 2**-53 being exact, and no block builds u: a letter or an index
is `rng.numerator_index`, which rounds u * n as `rng.scaled_index` does.
A chunk mixes its trials' role-independent key half (`rng.trial_words`)
once, and `rng.trial_keys` finishes it per role.

Two kernels keep a block cheap without changing a draw.  Bob's basis
tuple is Lehmer-decoded from his c-1 picks (`protocol._lehmer_decode`,
shared with Bob's session), which gives the letters
protocol.bob_choose_bases pops from its pool.  Each measurement inverts
a CDF row held as d-1 contiguous columns over the flattened (state,
basis) row index (`_hse_tensors`), each cumsum float p held as the
int64 threshold ceil(p * 2**53) (`_thresholds`): `_invert_rows` counts,
one wrap-mode `take` and one signed compare per column, the thresholds
<= m, which are the entries <= u that hilbert.invert_cdf counts on the
same cumsum floats.

The tensors come from the kernel every path shares, `hilbert.born_rows`,
one call per measuring basis over all the states it measures
(`_born_tensor`).  A row's floats do not depend on how many rows are
computed together, so each row is the `born_probabilities` row that
run_trial's `born_sample` inverts, and the outcomes are bit-identical.

Memory: a run holds one workspace (`_Workspace`), and nothing else
grows with n_trials.  The CDF tensors and the analytic rates depend only
on the (basis set, Eve basis) pair, so they are built on the first run
on it and memoised (`_hse_tensors`, `_hse_analytics`): runs in one
process share one read-only copy of each pair's tensors, for the last
MEMO_SIZE pairs used.  That serves repeated runs in one process (the
benchmark's commands, the tests' seed loops, library sweeps); a one-shot
CLI command builds them once either way.  Sets and bases compare by
identity, so a set loaded from a file again is a new key, and the bound
keeps repeated loads from growing the memo.  The tensors are written
basis by basis into one buffer, accumulated there and turned into
thresholds in place (`_born_tensor`).  The workspace is one allocation
that holds every vector a chunk needs, sized to the first chunk; every
kernel writes into it (`out=`, in-place operators), the chunk's trial
ids (the read-only ramp `_RAMP` plus the chunk's start, one `np.add`),
the Lehmer decode's flags and the counting's flags too.  A warm chunk,
sampled and counted, allocates no array at all: an operand of another
integer width, or an integer scaled as a float, is first converted into
a workspace vector with `np.copyto`, since a ufunc that mixes the types
would cast through buffers of 8192 items it allocates, and bool flags
are added as int8.  Letters and outcomes are slot-major (slots, chunk)
arrays of the narrowest integer type, int8 up to 127.  A run makes its
own workspace and drops it, so runs share no mutable state.  A chunk is
CHUNK = 2**15 trials, so one uint64 vector over it is 256 KB and each
numpy pass over a chunk stays in a core's L2 cache.  Chunks only divide
the work: counts add up exactly, so the chunk size changes no outcome.

`_Counts` is the one counter behind every SimReport: `add` sums event
arrays, `add_block` (the vector form of `TrialOutcome.of`, over
slot-major arrays) feeds it for simulations and for
`report_from_outcomes`, and `report` builds the SimReport.  Counts
commute, so chunked and serial execution agree exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import rates
from .bases import BasisSet, average_distance
from .errors import InvalidParameter
# born_probabilities is unused here; the benchmark's tracer counts calls
# through this name
from .hilbert import Basis, born_probabilities, born_rows
from .protocol import ALICE, BOB, EVE, TrialOutcome, _lehmer_decode
from .rates import ProtocolConfig
from .rng import bulk_uniforms, numerator_index, trial_keys, trial_words

CHUNK = 2**15
# 0..CHUNK-1: a chunk's trial ids are this ramp plus the chunk's start
_RAMP = np.arange(CHUNK, dtype=np.uint64)
_RAMP.flags.writeable = False
Z_FAIL = 4.0
STAGES = ("tensors", "analytics", "sampling", "counting")
# the (set, Eve) pairs whose CDF tables and analytic rates stay memoised
MEMO_SIZE = 8


@dataclass(frozen=True)
class Estimate:
    """A sampled proportion with its analytic counterpart.

    `n` is the number of Bernoulli samples behind the estimate; `value`
    is None when no samples occurred (e.g. no same-basis slots at tiny n).
    The standard error is the estimate's own, sqrt(p(1-p)/n), unless the
    estimate is 0 or 1: then it is the analytic rate's, so that z stays
    finite while that rate lies strictly between 0 and 1.  Where the
    analytic rate is itself 0 or 1, z is 0.0 on exact agreement and
    infinite, with the sign of the difference, otherwise.
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
    if stderr == 0.0:
        stderr = math.sqrt(analytic * (1.0 - analytic) / n)
    if stderr > 0.0:
        z = (p_hat - analytic) / stderr
    else:
        z = 0.0 if p_hat == analytic else math.copysign(math.inf, p_hat - analytic)
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
    """CDF threshold columns of the Born rows of the states `amps` (one
    per row) measured in each basis of `targets`; column s*len(targets) + y
    holds state s in targets[y].  Each basis is one `born_rows` call,
    written into one preallocated (d, columns) buffer that is then
    accumulated in place, so the batch path holds one copy of the scalar
    path's floats, as thresholds, which _hse_tensors memoises."""
    n, d = amps.shape
    columns = np.empty((d, n, len(targets)))
    for y, basis in enumerate(targets):
        columns[:, :, y] = born_rows(basis, amps).T
    return _accumulate(columns.reshape(d, n * len(targets)))


def _accumulate(columns: np.ndarray) -> np.ndarray:
    """Turn (d, rows) probability columns into CDF threshold columns in
    place and return columns 0..d-2, each a contiguous vector over the row
    index.  Entry k of a row is the sum of its entries 0..k added in order,
    as the scalar path's cumsum adds them, so every entry is the same float
    until it becomes a threshold.  The last column is dropped: see
    _invert_rows."""
    np.cumsum(columns, axis=0, out=columns)
    return _thresholds(columns[:-1])


def _thresholds(cdf: np.ndarray) -> np.ndarray:
    """The contiguous float64 CDF entries p, turned in place into the
    int64 thresholds ceil(p * 2**53) and returned: p <= m * 2**-53
    exactly when the threshold is <= the integer m, as p * 2**53 is an
    exact float (p is never negative).  cdf must be C-contiguous, so that
    the flat reshape is a view and the thresholds land in cdf itself."""
    assert cdf.flags.c_contiguous
    flat = cdf.reshape(-1)
    flat *= 2.0**53
    # the cast is exact, and goes a chunk at a time since numpy copies
    # what a cast reads when it writes over it
    for start in range(0, flat.size, CHUNK):
        piece = flat[start : start + CHUNK]
        np.ceil(piece, out=piece.view(np.int64), casting="unsafe")
    return cdf.view(np.int64)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _hse_tensors(basis_set: BasisSet, eve: Basis | None):
    """CDF columns of one slot: (to_eve, from_eve) through Eve, else
    (direct,).  A row is indexed (x*d + a)*c + y for state a of basis x
    measured in basis y directly, x*d + a for Eve's measurement, and
    k*c + y for Bob's measurement of Eve's state k.  BKB01 sends one
    state through the same channel.  Memoised per pair (the module's
    "Memory:" paragraph): every run on it shares the read-only columns."""
    members = basis_set.bases
    # row x*d + a is state a of basis x
    sent = np.concatenate([basis.matrix.T for basis in members])
    if eve is not None:
        tensors = _born_tensor((eve,), sent), _born_tensor(members, eve.matrix.T)
    else:
        tensors = (_born_tensor(members, sent),)
    for columns in tensors:
        columns.flags.writeable = False
    return tensors


def _invert_rows(columns: np.ndarray, rows: np.ndarray, m: np.ndarray, out, work) -> None:
    """Vector form of hilbert.invert_cdf, into `out`: per trial, the count
    of entries <= u = m * 2**-53 in CDF row `rows`, that is of its
    thresholds <= the numerator m (_thresholds).  A cumsum of non-negative
    probabilities never decreases, so the entries <= u are a prefix of the
    row; counting over the first d-1 columns alone therefore equals the
    full count capped at d-1.  Gathers each column into the workspace's
    scratch vector with the `take` method in "wrap" mode, compares it with
    m as int64 into the flags, and adds the flags as int8, the type of
    int8 outcomes, so that the sum needs no cast."""
    # every row index lies in 0..len(column)-1, as it is built from letters
    # below c and indices and outcomes below d (_hse_tensors), so "wrap"
    # gathers the rows "raise" would, without the buffered copy "raise"
    # makes with out=, and in this loop it times faster than "clip".  A
    # threshold is at most a few units above 2**53 and a numerator below
    # it, so both compare exactly as int64, which numpy does faster than
    # as uint64
    scratch, m = work.scratch.view(np.int64), m.view(np.int64)
    out.fill(0)
    for column in columns:
        column.take(rows, out=scratch, mode="wrap")
        out += np.less_equal(scratch, m, out=work.flags).view(np.int8)


def _measure(tensors, c, xd, a, y, out, bob_draw, eve_draw, work) -> None:
    """Bob's outcomes for one slot of a block, into `out`: state a of
    basis x measured in basis y, directly or, when Eve's draws are given,
    through her basis.  `xd` is x*d.  Each measurement computes its
    trials' CDF row index (see _hse_tensors) and inverts that row at the
    draw the scalar path takes.  A narrow operand of a row index is first
    widened with `np.copyto` into an intp vector (the scratch vector for
    y): a ufunc mixing the widths would cast through buffers it allocates."""
    rows, wide = work.rows, work.scratch.view(np.intp)
    np.copyto(rows, a)
    rows += xd
    if eve_draw is None:
        (columns,) = tensors
    else:
        to_eve, columns = tensors
        _invert_rows(to_eve, rows, eve_draw, work.outcome, work)
        np.copyto(rows, work.outcome)
    rows *= c
    np.copyto(wide, y)
    rows += wide
    _invert_rows(columns, rows, bob_draw, out, work)


class _Workspace:
    """The buffers one run samples and counts in, sized to its first
    chunk: keys and an 8-byte scratch vector for the rng kernels (and for
    the float products of `numerator_index`, the widened y of `_measure`
    and the thresholds `_invert_rows` gathers), one vector each for a draw's
    numerators (first the chunk's trial ids, then its trial words), CDF
    row indices, x*d, Eve's outcomes and flags, the slot-major (slots,
    size) a, y and b, the flags `_Counts.add_block` counts (a trial's
    sifted flag, and the slot-major a != b and y == x), and Eve's keys
    and draws when she measures.  Basis letters (x, y) are in the
    narrowest signed type that holds c, indices and outcomes (a, b) in
    the one that holds d.  A run makes its own and drops it on return, so
    runs share no state."""

    def __init__(self, slots: int, c: int, d: int, size: int, eve: bool):
        letter, index = np.min_scalar_type(-c), np.min_scalar_type(-d)
        vector, per_slot = (size,), (slots, size)
        layout = [
            *((name, np.uint64, vector) for name in ("alice", "bob", "scratch", "draw")),
            ("rows", np.intp, vector),
            ("xd", np.intp, vector),
            ("x", letter, vector),
            ("y", letter, per_slot),
            ("a", index, per_slot),
            ("b", index, per_slot),
            ("outcome", index, vector),
            ("flags", np.bool_, vector),
            ("sifted", np.bool_, vector),
            ("differ", np.bool_, per_slot),
            ("same", np.bool_, per_slot),
        ]
        if eve:
            layout += [("eve", np.uint64, vector), ("eve_draw", np.uint64, vector)]
        else:
            self.eve = self.eve_draw = None
        # one allocation for all of them, widest items first so that every
        # view is aligned.  glibc raises its mmap threshold to the largest
        # block freed, so from the second run on the block comes from the
        # heap with its pages mapped, while buffers of 160-800 KB allocated
        # one by one would be mapped and returned page by page every call
        layout.sort(key=lambda field: -np.dtype(field[1]).itemsize)
        nbytes = [np.dtype(dtype).itemsize * math.prod(shape) for _, dtype, shape in layout]
        block = np.empty(sum(nbytes), np.uint8)
        for (name, dtype, shape), end, n in zip(layout, itertools.accumulate(nbytes), nbytes):
            setattr(self, name, block[end - n : end].view(dtype).reshape(shape))

    def head(self, count: int) -> "_Workspace":
        """The same buffers cut to their first `count` trials."""
        head = object.__new__(_Workspace)
        for name, value in vars(self).items():
            setattr(head, name, None if value is None else value[..., :count])
        return head

    def keys(self, seed: int, start: int) -> None:
        """The stream keys of trials start.. for Alice, Bob and, when the
        workspace holds hers, Eve, from their trial words: the trial ids
        are written into the draw vector and mixed there once."""
        trials = np.add(_RAMP[: len(self.draw)], np.uint64(start), out=self.draw)
        words = trial_words(trials, out=trials, scratch=self.scratch)
        for role, out in ((ALICE, self.alice), (BOB, self.bob), (EVE, self.eve)):
            if out is not None:
                trial_keys(seed, role, words, out=out, scratch=self.scratch)

    def uniforms(self, keys, counter: int, out=None) -> np.ndarray:
        """bulk_uniforms into the draw vector, or into `out`."""
        return bulk_uniforms(keys, counter, out=self.draw if out is None else out, scratch=self.scratch)

    def index(self, keys, counter: int, n: int, out) -> None:
        """numerator_index of the draws at `counter`, scaled to 0..n-1,
        into `out`."""
        numerator_index(self.uniforms(keys, counter), n, out, self.scratch)


def _hse_block(config: ProtocolConfig, seed: int, start: int, tensors, work: _Workspace):
    """One block of trials from `start`, as many as the workspace holds,
    fully vectorized, each with the workspace's number of slots: c-1 for
    HSE, 1 for a BKB01 round.  Returns the workspace's x and slot-major
    (slots, count) a, y and b, which the next block overwrites."""
    c, d, slots = config.c, config.d, len(work.a)
    # each role's counters as the protocol docstring lists them; Eve, who
    # here intercepts every slot, measures slot k at her counter k
    work.keys(seed, start)
    x, a, y, b = work.x, work.a, work.y, work.b
    work.index(work.alice, 0, c, x)
    # x*d into the intp vector xd, x widened first (see _measure)
    np.copyto(work.xd, x)
    work.xd *= d
    for k in range(slots):
        work.index(work.alice, 1 + k, d, a[k])
        work.index(work.bob, k, c - k, y[k])
    _lehmer_decode(y, work.flags)
    for k in range(slots):
        eve_draw = work.uniforms(work.eve, k, work.eve_draw) if config.eve is not None else None
        bob_draw = work.uniforms(work.bob, slots + k)
        _measure(tensors, c, work.xd, a[k], y[k], b[k], bob_draw, eve_draw, work)
    return x, a, y, b


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

    def add(self, sifted, wrong, same_slots: int = 0, same_errors: int = 0) -> None:
        """Count a block from per-trial `sifted` and `wrong` flags (wrong
        None: no letter is known, so the block counts toward r_s only) and
        its counts of same-basis slots and of errors in them."""
        n_sifted = int(np.count_nonzero(sifted))
        self.trials += sifted.shape[0]
        self.sifted += n_sifted
        if wrong is not None:
            self.checked += n_sifted
            self.wrong += int(np.count_nonzero(wrong))
        self.same_slots += same_slots
        self.same_errors += same_errors

    def add_block(self, x, a, y, b, work=None) -> None:
        """The HSE rule of TrialOutcome.of over a block of trials, from x
        and the slot-major (c-1, n) a, y and b: sifted when every b differs
        from a, and wrong when Bob's letter, the one missing from y, is not
        x, that is when x is in y.  The flags go into the bool buffers of
        `work`, the block's workspace, when it is given, so that counting
        a block allocates nothing; else into new arrays."""
        differ, same, sifted, wrong = (None,) * 4 if work is None else (work.differ, work.same, work.sifted, work.flags)
        differ = np.not_equal(a, b, out=differ)
        same = np.equal(y, x, out=same)
        sifted = np.all(differ, axis=0, out=sifted)
        wrong = np.any(same, axis=0, out=wrong)
        wrong &= sifted
        n_same = int(np.count_nonzero(same))
        same &= differ
        self.add(sifted, wrong, n_same, int(np.count_nonzero(same)))

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


def _blocks(config: ProtocolConfig, slots: int, n_trials: int, seed: int, watch: _Stopwatch):
    """(start, (x, a, y, b), work) for each chunk of a run of n_trials
    with `slots` slots a trial, work being the workspace cut to the chunk,
    whose bool buffers `_Counts.add_block` counts in: the chunk loop of
    every batch run.  It takes the pair's tensors and makes the run's one
    workspace, charged to the watch's "tensors", then charges each
    _hse_block to "sampling" and the caller's work on a block, up to the
    next one, to "counting"."""
    tensors = _hse_tensors(config.basis_set, config.eve)
    work = _Workspace(slots, config.c, config.d, min(CHUNK, n_trials), config.eve is not None)
    watch.lap("tensors")
    for start in range(0, n_trials, CHUNK):
        count = min(CHUNK, n_trials - start)
        chunk = work if count == len(work.x) else work.head(count)
        block = _hse_block(config, seed, start, tensors, chunk)
        watch.lap("sampling")
        yield start, block, chunk
        watch.lap("counting")


def _sampled_config(config: ProtocolConfig) -> ProtocolConfig:
    """The config the batch engine samples: without Eve when she never
    intercepts.  Partial interception has no batch path."""
    if config.eve is None or config.intercept_fraction == 1.0:
        return config
    if config.intercept_fraction == 0.0:
        return dataclasses.replace(config, eve=None)
    raise InvalidParameter("the batch engine does not sample partial interception")


@functools.lru_cache(maxsize=MEMO_SIZE)
def _hse_analytics(basis_set: BasisSet, eve: Basis | None):
    """The analytic (r_s, r_it, r_qb) a run is compared with, memoised as
    _hse_tensors is."""
    if eve is not None:
        report = rates.rate_report(basis_set, eve)
        return report.r_k, report.r_it, report.r_qb
    return rates.success_rate(basis_set), 0.0, 0.0


def estimate_rates(config: ProtocolConfig, n_trials: int, seed: int) -> SimReport:
    """Run n_trials rounds and compare the three observable rates against
    their analytic values."""
    if n_trials < 1:
        raise InvalidParameter("n_trials must be >= 1")
    watch = _Stopwatch()
    sampled = _sampled_config(config)
    analytic = _hse_analytics(sampled.basis_set, sampled.eve)
    watch.lap("analytics")
    counts = _Counts()
    for _, block, work in _blocks(sampled, config.c - 1, n_trials, seed, watch):
        counts.add_block(*block, work)
    return counts.report("hse", config.d, config.c, config.eve, seed, analytic, watch.seconds)


def trial_outcomes_batch(config: ProtocolConfig, n_trials: int, seed: int):
    """Materialize the same TrialOutcome stream the per-trial runner
    produces, via the batch engine (used by tests and the benchmark)."""
    if n_trials < 0:
        raise InvalidParameter("n_trials must be >= 0")
    outcomes = []
    for start, block, _ in _blocks(_sampled_config(config), config.c - 1, n_trials, seed, _Stopwatch()):
        rows = zip(*(part.T.tolist() for part in block))
        outcomes.extend(
            TrialOutcome.of(start + row, x, tuple(a), tuple(y), tuple(b), config.c)
            for row, (x, a, y, b) in enumerate(rows)
        )
    return outcomes


def simulate_bkb01(basis_set: BasisSet, eve: Basis | None, n_trials: int, seed: int) -> SimReport:
    """Simulate the basis-announcing comparison protocol on the c bases of
    d-dimensional `basis_set`: one state per round, sift on basis match,
    cross-checking its interception QBER.

    A round is a one-slot HSE trial, sampled by _hse_block: Alice's basis
    g is her draw at counter 0 and her index x her draw at 1, Bob's basis
    h (a pick below c) is his draw at 0 and his outcome his draw at 1, and
    Eve's outcome her draw at 0.  A sifted round (h == g) is wrong when
    the outcome is not x.  Eve resends her eigenstate, so the exact QBER is
    mean_g (1 - sum T_g**2 / d) over the transition matrices T_g between
    basis g and hers: bases.average_distance, for any set and any Eve."""
    c, d = basis_set.c, basis_set.d
    if n_trials < 1:
        raise InvalidParameter("n_trials must be >= 1")
    watch = _Stopwatch()
    qb_analytic = average_distance(eve, basis_set) if eve is not None else 0.0
    watch.lap("analytics")
    counts = _Counts()
    blocks = _blocks(ProtocolConfig(c, d, basis_set, eve), 1, n_trials, seed, watch)
    for _, (g, (x,), (h,), (outcome,)), work in blocks:
        sifted = np.equal(h, g, out=work.sifted)
        wrong = np.not_equal(outcome, x, out=work.flags)
        wrong &= sifted
        counts.add(sifted, wrong)
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
    counts.add_block(x[known], a[known].T, y[known].T, b[known].T)
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
