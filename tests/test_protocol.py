import math
from collections import Counter

import numpy as np
import pytest

import hselab.protocol as protocol
from conftest import Eve, freq_tolerance, intercept, make_random_basis, make_random_set
from hselab.bases import BasisSet, fourier_basis, standard_basis
from hselab.errors import InvalidParameter, ProtocolError
from hselab.hilbert import born_sample, cdf_rows
from hselab.protocol import (
    BLOCK,
    EVE,
    AliceSession,
    BobSession,
    TrialBlocks,
    alice_prepare,
    bob_choose_bases,
    infer_letter,
    run_trial,
    sift,
)
from hselab.rates import ProtocolConfig
from hselab.rng import RandomStream


@pytest.fixture(scope="module")
def cfg23(sixstate):
    return ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=None)


@pytest.fixture(scope="module")
def cfg23_eve(sixstate):
    return ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=sixstate.bases[0])


@pytest.fixture(scope="module")
def cfg34_eve(qutrit4):
    return ProtocolConfig(c=4, d=3, basis_set=qutrit4, eve=qutrit4.bases[0])


class TestAlicePrepare:
    def test_states_come_from_the_chosen_basis(self, qutrit4):
        config = ProtocolConfig(c=4, d=3, basis_set=qutrit4)
        states, announced = alice_prepare(2, config, RandomStream(3, "alice", 0))
        assert len(states) == 3 and len(announced) == 3
        for state, index in zip(states, announced):
            assert np.array_equal(state.amps, qutrit4.bases[2].matrix[:, index])

    def test_indices_uniform(self, cfg23):
        counts = Counter()
        n = 20_000
        for t in range(n):
            _, announced = alice_prepare(0, cfg23, RandomStream(11, "alice", t))
            counts.update(announced)
        total = 2 * n
        for index in range(2):
            assert abs(counts[index] / total - 0.5) < freq_tolerance(0.5, total)

    def test_deterministic(self, cfg23):
        one = alice_prepare(1, cfg23, RandomStream(5, "alice", 9))
        two = alice_prepare(1, cfg23, RandomStream(5, "alice", 9))
        assert one[1] == two[1]
        assert all(np.array_equal(a.amps, b.amps) for a, b in zip(one[0], two[0]))

    def test_rejects_bad_letter(self, cfg23):
        with pytest.raises(InvalidParameter):
            alice_prepare(3, cfg23, RandomStream(0))


class TestBobChooseBases:
    def test_two_letters(self):
        config = ProtocolConfig(
            c=2, d=2, basis_set=BasisSet([standard_basis(2), fourier_basis(2)])
        )
        draws = [bob_choose_bases(config, RandomStream(1, "bob", t)) for t in range(4000)]
        assert {d[0] for d in draws} == {0, 1}
        share = sum(d[0] for d in draws) / len(draws)
        assert abs(share - 0.5) < freq_tolerance(0.5, len(draws))

    def test_all_ordered_tuples_equally_likely(self, qutrit4):
        config = ProtocolConfig(c=4, d=3, basis_set=qutrit4)
        n = 100_000
        counts = Counter(
            bob_choose_bases(config, RandomStream(8, "bob", t)) for t in range(n)
        )
        assert len(counts) == 24
        for tup, hits in counts.items():
            assert len(set(tup)) == 3
            assert abs(hits / n - 1 / 24) < freq_tolerance(1 / 24, n)


class TestSiftAndInfer:
    def test_sift_examples(self):
        assert sift((0, 1), (1, 0))
        assert not sift((0, 1), (0, 0))
        assert not sift((2,), (2,))

    def test_sift_length_mismatch(self):
        with pytest.raises(InvalidParameter):
            sift((0, 1), (0,))

    def test_infer_examples(self):
        assert infer_letter((0, 1, 3), 4) == 2
        assert infer_letter((1,), 2) == 0
        assert infer_letter((2, 0), 3) == 1

    def test_infer_rejects_malformed(self):
        with pytest.raises(InvalidParameter):
            infer_letter((0, 0, 1), 4)
        with pytest.raises(InvalidParameter):
            infer_letter((0, 1), 4)


class TestEveIntercept:
    def test_eigenstate_passes_unchanged(self, sixstate):
        eve = Eve(sixstate.bases[0], RandomStream(0, "eve"))
        state = sixstate.bases[0].vectors[1]
        assert intercept(eve, state) == 1

    def test_unbiased_state_resent_uniformly(self, sixstate):
        n = 40_000
        counts = Counter()
        for t in range(n):
            eve = Eve(sixstate.bases[0], RandomStream(2, "eve", t))
            counts[intercept(eve, sixstate.bases[1].vectors[0])] += 1
        for k in range(2):
            assert abs(counts[k] / n - 0.5) < freq_tolerance(0.5, n)

    def test_hadamard_interception_of_ground_state(self):
        hadamard = fourier_basis(2)
        n = 40_000
        hits = Counter()
        for t in range(n):
            eve = Eve(hadamard, RandomStream(3, "eve", t))
            resent = hadamard.vectors[intercept(eve, standard_basis(2).vectors[0])]
            hits[round(float(resent.amps[1].real), 6)] += 1
        plus, minus = 1 / math.sqrt(2), -1 / math.sqrt(2)
        assert abs(hits[round(plus, 6)] / n - 0.5) < freq_tolerance(0.5, n)
        assert abs(hits[round(minus, 6)] / n - 0.5) < freq_tolerance(0.5, n)

    @pytest.mark.parametrize("fraction", [1.0, 0.5, 0.0])
    def test_the_rule_takes_a_draw_only_below_fraction_one(self, fraction):
        for t in range(200):
            rng, stream = RandomStream(6, EVE, t), RandomStream(6, EVE, t)
            expected = True if fraction == 1.0 else stream.uniform() < fraction
            assert protocol.intercepts(rng.uniform, fraction) == expected
            # the next draw, which measures the state, is the stream's next
            assert rng.uniform() == stream.uniform()


class TestRunTrial:
    def test_sifted_implies_correct_letter_without_eavesdropper(self, cfg23):
        for t in range(3000):
            outcome = run_trial(cfg23, t, seed=31)
            if outcome.sifted:
                assert outcome.bob_letter == outcome.x
            assert outcome.index_error_slots == ()

    def test_correctness_holds_for_random_sets(self):
        family = make_random_set(3, 3, seed=55)
        config = ProtocolConfig(c=3, d=3, basis_set=family)
        for t in range(1500):
            outcome = run_trial(config, t, seed=8)
            if outcome.sifted:
                assert outcome.bob_letter == outcome.x

    def test_deterministic(self, cfg23_eve):
        first = [run_trial(cfg23_eve, t, seed=77) for t in range(200)]
        second = [run_trial(cfg23_eve, t, seed=77) for t in range(200)]
        assert first == second

    def test_sift_frequency_without_eavesdropper(self, cfg23):
        n = 20_000
        sifted = sum(run_trial(cfg23, t, seed=13).sifted for t in range(n))
        assert abs(sifted / n - 1 / 12) < freq_tolerance(1 / 12, n)

    def test_key_error_frequency_under_attack(self, cfg23_eve):
        outcomes = [run_trial(cfg23_eve, t, seed=29) for t in range(20_000)]
        sifted = [o for o in outcomes if o.sifted]
        wrong = sum(o.bob_letter != o.x for o in sifted)
        assert abs(wrong / len(sifted) - 4 / 7) < freq_tolerance(4 / 7, len(sifted))

    def test_letter_frequencies_uniform(self, cfg23):
        n = 20_000
        counts = Counter(run_trial(cfg23, t, seed=17).x for t in range(n))
        for letter in range(3):
            assert abs(counts[letter] / n - 1 / 3) < freq_tolerance(1 / 3, n)

    def test_outcome_shape(self, cfg34_eve):
        outcome = run_trial(cfg34_eve, 5, seed=1)
        assert len(outcome.a) == len(outcome.b) == len(outcome.y) == 3
        assert outcome.sifted == all(a != b for a, b in zip(outcome.a, outcome.b))
        assert set(outcome.y) <= set(range(4)) and len(set(outcome.y)) == 3
        if outcome.sifted:
            assert outcome.bob_letter == infer_letter(outcome.y, 4)

    def test_partial_interception_bounds(self, sixstate):
        config = ProtocolConfig(
            c=3, d=2, basis_set=sixstate, eve=sixstate.bases[0], intercept_fraction=0.5
        )
        outcomes = [run_trial(config, t, seed=41) for t in range(6000)]
        sifted = [o for o in outcomes if o.sifted]
        wrong = sum(o.bob_letter != o.x for o in sifted) / len(sifted)
        # halfway interception causes roughly half the full-attack error rate
        assert 0.1 < wrong < 0.5


class TestSessions:
    def test_alice_runs_trials_in_order(self, cfg23):
        alice = AliceSession(cfg23, 1, 2)
        with pytest.raises(InvalidParameter, match="^trials must run in order, expected 0$"):
            alice.states_for_trial(1)

    def test_sessions_compose_to_run_trial(self, cfg23_eve):
        seed, n = 99, 150
        alice = AliceSession(cfg23_eve, seed, n)
        bob = BobSession(cfg23_eve, seed, n)
        for t in range(n):
            x, announced = alice.states_for_trial(t)
            eve = Eve(cfg23_eve.eve, RandomStream(seed, "eve", t))
            for slot, a in enumerate(announced):
                state = cfg23_eve.basis_set.bases[x].vectors[a]
                bob.measure(t, slot, cfg23_eve.eve.vectors[intercept(eve, state)].pairs())
            alice.record_sift(t, bob.conclude(t, announced))
        bob.compare((0, n), tuple(alice.raw_string))
        assert bob.outcomes() == [run_trial(cfg23_eve, t, seed) for t in range(n)]
        assert alice.key == [o.x for o in bob.outcomes() if o.sifted]

    def test_one_off_pairs_and_held_rows_measure_as_born_sample(self, cfg34_eve):
        # 3 slots x 30 trials of states outside the set, as pairs, then
        # honest ones, as the rows a reader holds for the c*d = 12 states of
        # the set: every outcome is born_sample's
        seed = 12
        bob = BobSession(cfg34_eve, seed, 34)
        honest = [v for basis in cfg34_eve.basis_set.bases for v in basis.vectors]
        rows = cdf_rows(cfg34_eve.basis_set.bases, honest)
        for t in range(34):
            y = bob.begin_trial(t)
            replica = RandomStream(seed, "bob", t)
            assert bob_choose_bases(cfg34_eve, replica) == y
            for slot in range(3):
                if t < 30:
                    state = make_random_basis(3, 1000 + t).vectors[slot]
                    sent = state.pairs()
                else:
                    k = (3 * t + slot) % len(honest)
                    state, sent = honest[k], rows[k]
                expected = born_sample(state, cfg34_eve.basis_set.bases[y[slot]], replica)
                assert bob.measure(t, slot, sent) == expected
            bob.conclude(t, (0, 0, 0))

    def test_trial_blocks_serve_any_trial_order(self):
        blocks = TrialBlocks(4, EVE, 3, lambda u: u.tolist())
        for t in (10**18 - 1, 3, BLOCK + 6, 3, 2**64 + 1):
            stream = RandomStream(4, EVE, t)
            assert blocks[t] == [stream.uniform() for _ in range(3)]

    @pytest.mark.parametrize("n", [0, 1, 10, BLOCK, BLOCK + 6, 2 * BLOCK + 5])
    def test_trial_blocks_stop_at_the_session_end(self, n, monkeypatch):
        starts = []
        block_uniforms = protocol.block_uniforms

        def recording(seed, role, start, count, width):
            starts.append((start, count))
            return block_uniforms(seed, role, start, count, width)

        monkeypatch.setattr(protocol, "block_uniforms", recording)
        blocks = TrialBlocks(4, EVE, 3, lambda u: u.tolist(), n)
        for t in [*range(n), n, n + 1, n + BLOCK, 10**18]:
            stream = RandomStream(4, EVE, t)
            assert blocks[t] == [stream.uniform() for _ in range(3)]
        # one block per BLOCK trials of the session, the last cut at n
        session_blocks = [(start, min(BLOCK, n - start)) for start in range(0, n, BLOCK)]
        assert starts[: len(session_blocks)] == session_blocks
        # past n, the aligned BLOCK that holds the trial
        assert starts[len(session_blocks) :] and all(count == BLOCK for _, count in starts[len(session_blocks) :])
        # and back inside n, the cut block again
        stream = RandomStream(4, EVE, 0)
        assert blocks[0] == [stream.uniform() for _ in range(3)]
        assert starts[-1] == ((0, min(BLOCK, n)) if n else (0, BLOCK))

    def test_sessions_sized_to_n_draw_the_scalar_streams(self, cfg34_eve):
        seed, n = 8, BLOCK + 5
        alice = AliceSession(cfg34_eve, seed, n_trials=n)
        bob = BobSession(cfg34_eve, seed, n_trials=n)
        for t in range(n):
            x, announced = alice.states_for_trial(t)
            alice_rng = RandomStream(seed, "alice", t)
            assert (x, announced) == (alice_rng.randint(4), alice_prepare(x, cfg34_eve, alice_rng)[1])
            bob_rng = RandomStream(seed, "bob", t)
            y = bob_choose_bases(cfg34_eve, bob_rng)
            assert bob.begin_trial(t) == y
            for slot, state in enumerate(cfg34_eve.basis_set.bases[(t + 1) % 4].vectors):
                expected = born_sample(state, cfg34_eve.basis_set.bases[y[slot]], bob_rng)
                assert bob.measure(t, slot, state.pairs()) == expected
            bob.conclude(t, announced)

    def test_sessions_across_blocks_draw_the_scalar_streams(self, cfg34_eve):
        # Bob is sent each state as the rows his reader holds for it
        seed, n = 8, 2 * BLOCK + 5
        alice = AliceSession(cfg34_eve, seed, n)
        bob = BobSession(cfg34_eve, seed, n)
        bases = cfg34_eve.basis_set.bases
        rows = cdf_rows(bases, [v for basis in bases for v in basis.vectors])
        for t in range(n):
            x, announced = alice.states_for_trial(t)
            alice_rng = RandomStream(seed, "alice", t)
            assert (x, announced) == (alice_rng.randint(4), alice_prepare(x, cfg34_eve, alice_rng)[1])
            bob_rng = RandomStream(seed, "bob", t)
            y = bob_choose_bases(cfg34_eve, bob_rng)
            assert bob.begin_trial(t) == y
            for slot, state in enumerate(bases[t % 4].vectors):
                expected = born_sample(state, bases[y[slot]], bob_rng)
                assert bob.measure(t, slot, rows[(t % 4) * 3 + slot]) == expected
            bob.conclude(t, announced)

    @pytest.mark.parametrize(
        "calls, text",
        [
            ([("measure", 1, 0)], "state for trial 1 slot 0, expected trial 0 slot 0"),
            ([("measure", 0, 1)], "state for trial 0 slot 1, expected trial 0 slot 0"),
            ([("measure", 0, 0), ("measure", 0, 0)], "state for trial 0 slot 0, expected trial 0 slot 1"),
            ([("measure", 0, 0), ("measure", 0, 1), ("measure", 0, 2)], "more than 2 states in trial 0"),
            ([("qutrit", 0, 0)], "state with 3 amplitudes, expected 2"),
            ([("conclude", 0, (0, 1))], "announcement after 0 of 2 states"),
            ([("measure", 0, 0), ("conclude", 0, (0, 1))], "announcement after 1 of 2 states"),
            ([("measure", 0, 0), ("measure", 0, 1), ("conclude", 1, (0, 1))], "announcement for trial 1, expected 0"),
            ([("measure", 0, 0), ("measure", 0, 1), ("conclude", 0, (0, 1, 1))], "malformed announcement (0, 1, 1)"),
            ([("measure", 0, 0), ("measure", 0, 1), ("conclude", 0, (0, 2))], "malformed announcement (0, 2)"),
            ([("measure", 0, 0), ("measure", 0, 1), ("conclude", 0, (-1, 0))], "malformed announcement (-1, 0)"),
            ([("compare",), ("conclude", 0, (0, 1))], "announcement after the key comparison"),
            ([("compare",), ("measure", 0, 0)], "state after the key comparison"),
            ([("compare",), ("compare",)], "key comparison after the key comparison"),
        ],
    )
    def test_error_texts_are_pinned(self, cfg23, sixstate, calls, text):
        """The exact ProtocolError of each out-of-place state, announcement
        and comparison, the last of `calls`; every earlier call is valid."""
        bob = BobSession(cfg23, 1, 2)
        state = sixstate.bases[0].vectors[0].pairs()
        actions = {
            "measure": lambda t, slot: bob.measure(t, slot, state),
            "qutrit": lambda t, slot: bob.measure(t, slot, ((1.0, 0.0), (0.0, 0.0), (0.0, 0.0))),
            "conclude": bob.conclude,
            "compare": lambda: bob.compare((0, 0), ()),
        }
        *valid, (last, *args) = calls
        for name, *before in valid:
            actions[name](*before)
        with pytest.raises(ProtocolError) as err:
            actions[last](*args)
        assert str(err.value) == text

    def test_measure_past_the_last_slot_rejected(self, cfg23, sixstate):
        bob = BobSession(cfg23, 1, 1)
        state = sixstate.bases[0].vectors[0].pairs()
        for slot in range(2):
            bob.measure(0, slot, state)
        with pytest.raises(ProtocolError, match="more than 2 states in trial 0"):
            bob.measure(0, 2, state)

    def test_out_of_order_trials_rejected(self, cfg23, sixstate):
        bob = BobSession(cfg23, 1, 1)
        with pytest.raises(ProtocolError, match="expected trial 0 slot 0"):
            bob.measure(3, 0, sixstate.bases[0].vectors[0].pairs())

    def test_announcement_before_states_rejected(self, cfg23):
        bob = BobSession(cfg23, 1, 1)
        with pytest.raises(ProtocolError, match="after 0 of 2 states"):
            bob.conclude(0, (0, 1))

    def test_wrong_length_announcement_rejected(self, cfg23, sixstate):
        bob = BobSession(cfg23, 1, 1)
        for slot in range(2):
            bob.measure(0, slot, sixstate.bases[0].vectors[0].pairs())
        with pytest.raises(ProtocolError, match="malformed announcement"):
            bob.conclude(0, (0, 1, 1))
