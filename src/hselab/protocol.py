"""Executable rounds of the key distribution protocol.

One round: Alice draws a letter x and c-1 indices, sends the states
|v_{a_k}> from basis x; an optional interceptor measures and resends each
state; Bob measures slot k in the k-th basis of a random ordered tuple of
distinct letters; the round survives sifting iff every outcome differs
from the announced index, in which case Bob's letter is the one basis he
did not use.

Seed discipline: trial k of role r draws from the substream (seed, r, k),
so adding or removing the interceptor never perturbs Alice's or Bob's
draws, and trials can run in any order.  `run_trial` draws them one at a
time from a `RandomStream`; the session endpoints and the relay take the
same draws from `TrialBlocks`, which evaluates BLOCK trials' substreams at
once with `rng.block_uniforms`, so every draw is the scalar stream's at the
same counter.  Each role's counters in one trial, which every path keeps:

- Alice: her letter x at counter 0, her indices at 1..c-1.
- Bob: his basis picks at 0..c-2, his measurements at c-1..2c-3.
- Eve, slot after slot: an interception draw only when the fraction is
  below 1, then, if she intercepts, her measurement draw.

One rule turns a round's draws into its record: `TrialOutcome.of` applies
`sift` and `infer_letter` and lists the index-error slots.  `run_trial`,
`BobSession.outcomes` and the batch engine's `trial_outcomes_batch` all
build their records through it.

`run_trial` measures each StateVector with `born_sample`.  Bob's session
and the relay measure with `hilbert.sample_row` on the same draw: a state
their reader holds comes as its CDF rows, any other as amplitude pairs.
`intercepts` is the one interception rule of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq

import numpy as np

from .errors import InvalidParameter, ProtocolError
from .hilbert import born_sample, sample_row
from .rates import ProtocolConfig
from .rng import RandomStream, block_uniforms, scaled_index

ALICE, BOB, EVE = "alice", "bob", "eve"

# session trials whose draws are computed together
BLOCK = 64


@dataclass(frozen=True)
class TrialOutcome:
    """Full record of one protocol round.

    `index_error_slots` lists the slots where Bob happened to measure in
    Alice's basis and saw a different index - the events counted by the
    index transmission error rate.
    """

    trial_id: int
    x: int
    a: tuple
    y: tuple
    b: tuple
    sifted: bool
    bob_letter: int | None
    index_error_slots: tuple

    @classmethod
    def of(cls, trial_id: int, x: int, a: tuple, y: tuple, b: tuple, c: int) -> "TrialOutcome":
        """The record of a round with Alice's letter x (-1 if unknown, which
        leaves no error slots), indices a, Bob's bases y and outcomes b."""
        sifted = sift(a, b)
        return cls(
            trial_id=trial_id,
            x=x,
            a=a,
            y=y,
            b=b,
            sifted=sifted,
            bob_letter=infer_letter(y, c) if sifted else None,
            index_error_slots=tuple(k for k in range(c - 1) if y[k] == x and b[k] != a[k]),
        )


def intercepts(draw, fraction: float) -> bool:
    """Eve's rule for the next in-flight state: she measures it always at
    fraction 1, with no draw, and else when one `draw()` falls below the
    fraction; if she does, her next draw measures it in her basis and the
    outcome's eigenstate is resent."""
    return fraction >= 1.0 or draw() < fraction


def alice_prepare(x: int, config: ProtocolConfig, rng: RandomStream):
    """Draw c-1 uniform i.i.d. indices (repeats allowed) and prepare the
    corresponding states |v_a> from basis x.  Returns (states, announcement)."""
    if not 0 <= x < config.c:
        raise InvalidParameter(f"letter {x} outside 0..{config.c - 1}")
    announcement = tuple(rng.randint(config.d) for _ in range(config.c - 1))
    basis = config.basis_set.bases[x]
    return [basis.vectors[a] for a in announcement], announcement


def bob_choose_bases(config: ProtocolConfig, rng: RandomStream) -> tuple:
    """Uniform ordered tuple of c-1 distinct letters (all c! tuples equally
    likely), drawn as a Fisher-Yates prefix with one uniform per slot."""
    pool = list(range(config.c))
    chosen = []
    for k in range(config.c - 1):
        chosen.append(pool.pop(rng.randint(len(pool))))
    return tuple(chosen)


def _lehmer_decode(picks: np.ndarray, step=None) -> None:
    """Bob's ordered distinct tuples from his (c-1, n) picks, in place.

    Pick k (0 <= pick < c-k) chooses the pick-th smallest letter not yet
    chosen, as bob_choose_bases pops it from a sorted pool, so the picks
    are a Lehmer code.  Decoding it from the right needs no pool: for i
    from the second-last slot down to the first, every later slot at or
    above slot i's value steps up by one, past slot i's letter.  Integers
    only, so the letters are exactly the pool's; every step goes through
    one bool vector of a slot's shape, `step`, made here when None, and is
    added as int8, so int8 picks take it with no cast."""
    if step is None:
        step = np.empty(picks.shape[1:], dtype=bool)
    for i in range(len(picks) - 2, -1, -1):
        for j in range(i + 1, len(picks)):
            picks[j] += np.greater_equal(picks[j], picks[i], out=step).view(np.int8)


def sift(a: tuple, b: tuple) -> bool:
    """A round survives iff every measured index differs from the
    announced one."""
    if len(a) != len(b):
        raise InvalidParameter(f"tuple lengths differ: {len(a)} vs {len(b)}")
    return not any(map(eq, a, b))


def infer_letter(y: tuple, c: int) -> int:
    """The unique letter of 0..c-1 absent from Bob's basis tuple."""
    missing = set(range(c)).difference(y)
    if len(y) != c - 1 or len(missing) != 1:
        raise InvalidParameter(f"{y} is not an ordered tuple of {c - 1} distinct letters")
    return missing.pop()


def run_trial(config: ProtocolConfig, trial_id: int, seed: int) -> TrialOutcome:
    """Execute one full round in-process."""
    alice_rng = RandomStream(seed, ALICE, trial_id)
    x = alice_rng.randint(config.c)
    states, announced = alice_prepare(x, config, alice_rng)

    if (eve := config.eve) is not None:
        eve_rng = RandomStream(seed, EVE, trial_id)
        for slot, state in enumerate(states):
            if intercepts(eve_rng.uniform, config.intercept_fraction):
                states[slot] = eve.vectors[born_sample(state, eve, eve_rng)]

    bob_rng = RandomStream(seed, BOB, trial_id)
    y = bob_choose_bases(config, bob_rng)
    outcomes = tuple(
        born_sample(state, config.basis_set.bases[basis_letter], bob_rng)
        for state, basis_letter in zip(states, y)
    )

    return TrialOutcome.of(trial_id, x, announced, y, outcomes, config.c)


class TrialBlocks:
    """Per-trial values made from the first `width` draws of the substreams
    (seed, role, t), computed BLOCK trials at a time.

    `rows` turns a block's (count, width) array of uniforms into a list
    with one value per trial.  A trial outside the current block gets the
    aligned block that holds it, so trials may come in any order.  When
    the session's trial count n is known, a block stops at n: it holds
    min(BLOCK, n - start) trials, so a short session computes no draws it
    never reads.  A trial at or past n still gets its aligned BLOCK.
    """

    def __init__(self, seed: int, role: str, width: int, rows, n_trials: int | None = None):
        self._seed = seed
        self._role = role
        self._width = width
        self._rows = rows
        self._n_trials = n_trials
        self._start = 0
        self._values: list = []

    def __getitem__(self, trial_id: int):
        offset = trial_id - self._start
        if not 0 <= offset < len(self._values):
            offset = trial_id % BLOCK
            self._start = trial_id - offset
            count = BLOCK
            if self._n_trials is not None and trial_id < self._n_trials:
                count = min(BLOCK, self._n_trials - self._start)
            block = block_uniforms(self._seed, self._role, self._start, count, self._width)
            self._values = self._rows(block)
        return self._values[offset]


class AliceSession:
    """Alice's side of a multi-trial session of `n_trials` trials, one
    trial at a time; the draw blocks are sized to the session."""

    def __init__(self, config: ProtocolConfig, seed: int, n_trials: int):
        self.raw_string: list[int] = []
        self.key: list[int] = []
        c, d = config.c, config.d

        def rows(u):
            # her counters, as the module docstring gives them
            indices = map(tuple, scaled_index(u[:, 1:], d).tolist())
            return list(zip(scaled_index(u[:, 0], c).tolist(), indices))

        self._draws = TrialBlocks(seed, ALICE, c, rows, n_trials)

    def states_for_trial(self, trial_id: int):
        """Draw this trial's letter x and indices a, which pick the states
        |v_a> of basis x; returns (x, a)."""
        if len(self.raw_string) != trial_id:
            raise InvalidParameter(f"trials must run in order, expected {len(self.raw_string)}")
        x, announced = self._draws[trial_id]
        self.raw_string.append(x)
        return x, announced

    def record_sift(self, trial_id: int, sifted: bool) -> None:
        if sifted:
            self.key.append(self.raw_string[trial_id])


class BobSession:
    """Bob's side of a multi-trial session, and the one place that knows
    the order of what he is sent.

    A trial is c-1 states in slot order, each measured as it arrives
    (`measure`), then Alice's announcement, which sifts it (`conclude`);
    one trial ends before the next begins.  After the last trial Alice may
    disclose her letters (`compare`), and after that only her Bye may come.
    Each method checks its message's place in that order and its fields
    once, and raises ProtocolError naming what is wrong.  `outcomes` gives
    the concluded trials' records, with Alice's letters once compared.

    A state comes to `measure` as its reader gives it: the CDF rows in
    his bases of a state the reader holds (the c*d states of his set, the
    only ones an honest sender sends), or the amplitude pairs of any other
    (an interceptor's resent one), which `hilbert.sample_row` measures
    one-off.  The draw blocks are sized to the session's `n_trials`.
    """

    def __init__(self, config: ProtocolConfig, seed: int, n_trials: int):
        self.config = config
        self._records: list[tuple] = []  # (a, y, b) of each concluded trial
        self._measured: list[int] = []  # the outcomes of the trial in progress
        self._y = self._u = None  # its basis tuple and measurement draws
        self._letters: tuple | None = None  # Alice's, once compared
        # read on every state: kept here, not looked up through config
        self._bases = config.basis_set.bases
        self._slots = slots = config.c - 1
        self._d = config.d

        def rows(u):
            # his counters, as the module docstring gives them: the basis
            # picks, then the measurement draws
            picks = scaled_index(u[:, :slots], config.c - np.arange(slots))
            _lehmer_decode(picks.T)
            return list(zip(map(tuple, picks.tolist()), u[:, slots:].tolist()))

        self._draws = TrialBlocks(seed, BOB, 2 * slots, rows, n_trials)

    def begin_trial(self, trial_id: int) -> tuple:
        """Load this trial's basis tuple and measurement draws; returns the
        tuple.  `measure` calls it for slot 0."""
        self._y, self._u = self._draws[trial_id]
        return self._y

    def measure(self, trial_id: int, slot: int, state) -> int:
        """Measure `state`, sent for this trial and slot, in the slot's
        basis: its CDF rows in his bases (a list) or its amplitude pairs
        ((re, im), ...); the same outcome as born_sample on that draw."""
        if self._letters is not None:
            raise ProtocolError("state after the key comparison")
        measured = self._measured
        trial, expected = len(self._records), len(measured)
        if trial_id != trial or slot != expected:
            raise ProtocolError(f"state for trial {trial_id} slot {slot}, expected trial {trial} slot {expected}")
        if slot == self._slots:
            raise ProtocolError(f"more than {slot} states in trial {trial}")
        # held rows are of his own set, so only pairs can be of another d
        if type(state) is tuple and len(state) != self._d:
            raise ProtocolError(f"state with {len(state)} amplitudes, expected {self._d}")
        if slot == 0:
            self.begin_trial(trial_id)
        outcome = sample_row(state, self._bases, self._y[slot], self._u[slot])
        measured.append(outcome)
        return outcome

    def conclude(self, trial_id: int, announced: tuple) -> bool:
        """Sift the trial on Alice's announced indices; returns whether it
        survived."""
        if self._letters is not None:
            raise ProtocolError("announcement after the key comparison")
        trial, measured, slots = len(self._records), len(self._measured), self._slots
        if trial_id != trial:
            raise ProtocolError(f"announcement for trial {trial_id}, expected {trial}")
        if measured != slots:
            raise ProtocolError(f"announcement after {measured} of {slots} states")
        # slots >= 1, so a tuple of that length has a least and a greatest index
        if len(announced) != slots or min(announced) < 0 or max(announced) >= self._d:
            raise ProtocolError(f"malformed announcement {announced!r}")
        b = tuple(self._measured)
        self._records.append((announced, self._y, b))
        self._measured = []
        return sift(announced, b)

    def compare(self, trial_id_range: tuple, letters: tuple) -> None:
        """Take Alice's letters for trials lo..hi-1 of `trial_id_range`
        (lo, hi), which must be every trial concluded so far."""
        if self._letters is not None:
            raise ProtocolError("key comparison after the key comparison")
        if trial_id_range != (0, len(self._records)) or len(letters) != len(self._records):
            raise ProtocolError(f"key comparison range {trial_id_range} does not match session")
        if not all(0 <= v < self.config.c for v in letters):
            raise ProtocolError(f"key comparison letters outside 0..{self.config.c - 1}")
        self._letters = letters

    def outcomes(self) -> list[TrialOutcome]:
        """The concluded trials' TrialOutcomes; Alice's compared letters fill
        the x and error-slot fields, else they stay at -1/empty."""
        letters = self._letters
        return [
            TrialOutcome.of(t, -1 if letters is None else letters[t], a, y, b, self.config.c)
            for t, (a, y, b) in enumerate(self._records)
        ]
