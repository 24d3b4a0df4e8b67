import csv
import dataclasses
import gc
import io
import itertools
import json
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hselab.montecarlo as mc
from conftest import bkb01_round, make_random_basis, make_random_set
from hselab.bases import (
    BasisSet,
    average_distance,
    breidbart_basis,
    fourier_basis,
    load_basis_set,
    mu_basis_set,
    save_basis_set,
    standard_basis,
)
from hselab.cli import emit
from hselab.errors import InvalidParameter
from hselab.hilbert import invert_cdf, transition_matrix
from hselab.protocol import run_trial
from hselab.rates import ProtocolConfig, rate_report, success_rate


@pytest.fixture(scope="module")
def cfg23_eve(sixstate):
    return ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=sixstate.bases[0])


@pytest.fixture(scope="module")
def cfg34(qutrit4):
    return ProtocolConfig(c=4, d=3, basis_set=qutrit4)


class TestBatchEngineEquality:
    @pytest.mark.parametrize("seed", (1, 2))
    def test_matches_per_trial_runner(self, sixstate, qutrit4, seed):
        pair = BasisSet([standard_basis(2), fourier_basis(2)])
        configs = [
            ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=None),
            ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=sixstate.bases[0]),
            ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=breidbart_basis()),
            ProtocolConfig(c=2, d=2, basis_set=pair, eve=pair.bases[0]),
            ProtocolConfig(c=4, d=3, basis_set=qutrit4, eve=qutrit4.bases[0]),
        ]
        for config in configs:
            batch = mc.trial_outcomes_batch(config, 300, seed)
            assert batch == [run_trial(config, t, seed) for t in range(300)]

    def test_matches_on_random_bases(self):
        family = make_random_set(3, 3, seed=42)
        config = ProtocolConfig(c=3, d=3, basis_set=family, eve=None)
        assert mc.trial_outcomes_batch(config, 200, 5) == [
            run_trial(config, t, 5) for t in range(200)
        ]

    def test_zero_interception_matches_per_trial_runner(self, sixstate):
        config = ProtocolConfig(
            c=3, d=2, basis_set=sixstate, eve=sixstate.bases[0], intercept_fraction=0.0
        )
        batch = mc.trial_outcomes_batch(config, 200, 3)
        assert batch == [run_trial(config, t, 3) for t in range(200)]

    def test_partial_interception_rejected(self, sixstate):
        config = ProtocolConfig(
            c=3, d=2, basis_set=sixstate, eve=sixstate.bases[0], intercept_fraction=0.5
        )
        with pytest.raises(InvalidParameter):
            mc.trial_outcomes_batch(config, 10, 1)

    # c >= 5 is where Bob's decode makes more than one pass
    @pytest.mark.parametrize("attacked", (False, True))
    @pytest.mark.parametrize("d,c", [(5, 6), (7, 8)])
    def test_matches_on_larger_mu_sets(self, d, c, attacked):
        family = mu_basis_set(d, c)
        config = ProtocolConfig(c=c, d=d, basis_set=family, eve=family.bases[0] if attacked else None)
        batch = mc.trial_outcomes_batch(config, 300, 4)
        assert batch == [run_trial(config, t, 4) for t in range(300)]

    def test_matches_on_random_set_with_random_eve(self):
        family = make_random_set(5, 4, seed=8)
        config = ProtocolConfig(c=4, d=5, basis_set=family, eve=make_random_basis(5, 99, label="eve"))
        batch = mc.trial_outcomes_batch(config, 300, 6)
        assert batch == [run_trial(config, t, 6) for t in range(300)]

    def test_small_chunks(self, monkeypatch):
        family = mu_basis_set(5, 6)
        config = ProtocolConfig(c=6, d=5, basis_set=family, eve=family.bases[0])
        monkeypatch.setattr(mc, "CHUNK", 137)
        batch = mc.trial_outcomes_batch(config, 500, 10)
        assert batch == [run_trial(config, t, 10) for t in range(500)]


class TestLargeDimensions:
    """At (13,14) and (31,32), with one born_rows call per basis, the batch
    engine equals run_trial and its estimates are within |z| <= 4 of the
    closed forms."""

    @pytest.fixture(scope="class")
    def mu_sets(self):
        return {(d, c): mu_basis_set(d, c) for d, c in [(13, 14), (31, 32)]}

    @pytest.mark.parametrize("attacked", (False, True))
    @pytest.mark.parametrize("d,c", [(13, 14), (31, 32)])
    def test_batch_matches_per_trial_runner(self, mu_sets, d, c, attacked):
        family = mu_sets[d, c]
        config = ProtocolConfig(c=c, d=d, basis_set=family, eve=family.bases[0] if attacked else None)
        assert mc.trial_outcomes_batch(config, 40, 12) == [run_trial(config, t, 12) for t in range(40)]

    @pytest.mark.parametrize("attacked", (False, True))
    def test_estimates_within_four_sigma_at_31_32(self, mu_sets, attacked):
        family = mu_sets[31, 32]
        config = ProtocolConfig(c=32, d=31, basis_set=family, eve=family.bases[0] if attacked else None)
        report = mc.estimate_rates(config, 30_000, seed=1)
        assert report.consistent, [(name, e.z) for name, e in report.estimates.items()]
        assert report.r_s.n == 30_000 and report.r_qb.n > 100


def pool_tuples(picks: np.ndarray, c: int) -> np.ndarray:
    """Bob's (n, c-1) tuples from his (n, c-1) picks through a per-trial
    pool of unused letters, narrowed by one take_along_axis per slot: the
    batch engine's former construction, kept as the decode's oracle."""
    count = picks.shape[0]
    y = np.empty((count, c - 1), dtype=np.int64)
    pool = np.broadcast_to(np.arange(c, dtype=np.int64), (count, c)).copy()
    for k in range(c - 1):
        pick = picks[:, k]
        y[:, k] = np.take_along_axis(pool, pick[:, None], axis=1)[:, 0]
        cols = np.arange(c - k - 1, dtype=np.int64)[None, :]
        pool = np.take_along_axis(pool, cols + (cols >= pick[:, None]), axis=1)
    return y


def decoded(picks: np.ndarray) -> np.ndarray:
    slot_major = picks.T.copy()
    mc._lehmer_decode(slot_major)
    return slot_major.T


@st.composite
def pick_rows(draw):
    c = draw(st.integers(2, 10))
    slots = st.tuples(*(st.integers(0, c - k - 1) for k in range(c - 1)))
    rows = draw(st.lists(slots, min_size=1, max_size=30))
    return c, np.array(rows, dtype=np.int64).reshape(-1, c - 1)


class TestLehmerDecode:
    @given(pick_rows())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_pool(self, case):
        c, picks = case
        assert np.array_equal(decoded(picks), pool_tuples(picks, c))

    @pytest.mark.parametrize("c", range(2, 8))
    def test_every_pick_sequence_gives_every_tuple_once(self, c):
        picks = np.array(list(itertools.product(*(range(c - k) for k in range(c - 1)))), dtype=np.int64)
        picks = picks.reshape(-1, c - 1)
        tuples = decoded(picks)
        assert tuples.tolist() == [list(t) for t in itertools.permutations(range(c), c - 1)]
        assert np.array_equal(tuples, pool_tuples(picks, c))


def chi_square_z(counts: np.ndarray, expected: np.ndarray | None = None) -> float:
    """Wilson-Hilferty z of Pearson's chi-square for `counts` against the
    `expected` counts (default: uniform over the cells), the cells expected
    below 5 pooled into one: about standard normal under that law."""
    counts = np.asarray(counts, dtype=float)
    if expected is None:
        expected = np.full(len(counts), counts.sum() / len(counts))
    small = expected < 5
    if small.any():
        counts = np.append(counts[~small], counts[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    k = len(counts) - 1
    return ((chi2 / k) ** (1 / 3) - (1 - 2 / (9 * k))) / math.sqrt(2 / (9 * k))


class TestLawOfTheDraws:
    """The law of a trial's draws, not only its marginals: Bob's ordered
    tuples are uniform over all c! of them, and Alice's (x, a) over all
    c * d^(c-1) cells.  A Bob who drew only the c cyclic tuples would keep
    every rate the other tests check."""

    SEED = 2021
    TRIALS = 50_000

    def outcomes(self, d, c):
        config = ProtocolConfig(c=c, d=d, basis_set=mu_basis_set(d, c))
        return mc.trial_outcomes_batch(config, self.TRIALS, self.SEED)

    @pytest.mark.parametrize("d,c", [(2, 3), (3, 4), (5, 6)])
    def test_bob_tuples_are_uniform(self, d, c):
        outcomes = self.outcomes(d, c)
        cells = {t: i for i, t in enumerate(itertools.permutations(range(c), c - 1))}
        counts = np.zeros(len(cells))
        for outcome in outcomes:
            counts[cells[outcome.y]] += 1  # a tuple outside the support raises KeyError
        assert abs(chi_square_z(counts)) <= 4.0

    @pytest.mark.parametrize("d,c", [(2, 3), (3, 4)])
    def test_alice_letters_and_indices_are_uniform(self, d, c):
        outcomes = self.outcomes(d, c)
        x = np.array([outcome.x for outcome in outcomes])
        a = np.array([outcome.a for outcome in outcomes])
        assert 0 <= x.min() and x.max() < c and 0 <= a.min() and a.max() < d
        cells = x * d ** (c - 1) + a @ d ** np.arange(c - 1)
        assert abs(chi_square_z(np.bincount(cells, minlength=c * d ** (c - 1)))) <= 4.0


@st.composite
def cdf_cases(draw):
    """CDF rows with zero-probability outcomes (repeated entries), and a
    few arbitrary draw numerators to invert on each."""
    d = draw(st.integers(2, 13))
    weight = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        w = np.array(draw(st.lists(weight, min_size=d, max_size=d)))
        if w.sum() == 0.0:
            w[draw(st.integers(0, d - 1))] = 1.0
        rows.append(np.cumsum(w / w.sum()).tolist())
    extra = draw(st.lists(st.integers(0, 2**53 - 1), max_size=4))
    return rows, extra


def edge_draws(cdf):
    """Draw numerators m on every side of each CDF entry e, floor(e * 2**53)
    and one either side, with 0 and 2**53 - 1, the draws 0.0 and the
    largest below 1."""
    floors = [math.floor(e * 2**53) for e in cdf]
    near = (f + step for f in floors for step in (-1, 0, 1))
    return [m for m in (*near, 0, 2**53 - 1) if 0 <= m < 2**53]


class TestInvertRows:
    """_invert_rows' threshold counts against hilbert.invert_cdf on the same
    CDF floats, at the draw u = m * 2**-53 of each numerator m."""

    @staticmethod
    def check(cdf_rows, extra=()):
        cdf = np.array(cdf_rows).T[:-1].copy()
        thresholds = mc._thresholds(cdf)
        # written in place, as _born_tensor relies on
        assert np.shares_memory(thresholds, cdf)
        d = len(cdf_rows[0])
        for r, row in enumerate(cdf_rows):
            draws = [*edge_draws(row), *extra]
            work = mc._Workspace(1, 2, d, len(draws), False)
            out = np.empty(len(draws), work.b.dtype)
            m = np.array(draws, dtype=np.uint64)
            mc._invert_rows(thresholds, np.full(len(draws), r, dtype=np.intp), m, out, work)
            assert out.tolist() == [invert_cdf(row, k * 2.0**-53) for k in draws], row

    @given(cdf_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_invert_cdf(self, case):
        self.check(*case)

    @pytest.mark.parametrize(
        "row",
        [
            [0.0, 0.0, 1.0],  # u = 0.0 passes both leading zeros
            [1.0, 1.0, 1.0],  # every entry at 1
            [0.5, 0.5, 0.99999999],  # the cdf ends below 1, so draws above it are capped
            [0.25, 0.5, 0.5, 1.0],
            [0.5, np.nextafter(1.0, 0.0), np.nextafter(1.0, 0.0)],  # ends a rounding step below 1
            [0.7, np.nextafter(1.0, 2.0), np.nextafter(1.0, 2.0)],  # an entry a rounding step above 1
            [0.2, 0.2, 0.2, 0.2, 0.6, 0.6, 1.0],  # repeated entries
            [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0],  # every entry a dyadic fraction
        ],
    )
    def test_edge_rows(self, row):
        self.check([row], [2**52, 3 * 2**51, math.floor(0.9999999 * 2**53)])


class TestRowIndicesInRange:
    """_invert_rows gathers its columns in "wrap" mode, which reads the rows
    "raise" or "clip" would only while every row index lies in the columns:
    each batch path checks that on every inversion it makes, and reaches
    the last row."""

    @pytest.fixture
    def widths(self, monkeypatch):
        """(largest row index, column length, trials) of every inversion."""
        invert, seen = mc._invert_rows, []

        def checked(columns, rows, m, out, work):
            assert 0 <= rows.min() and rows.max() < columns.shape[1]
            seen.append((int(rows.max()), columns.shape[1], len(rows)))
            invert(columns, rows, m, out, work)

        monkeypatch.setattr(mc, "_invert_rows", checked)
        return seen

    @staticmethod
    def reaches_the_last_row(widths):
        return any(top == width - 1 for top, width, _ in widths)

    @pytest.mark.parametrize("attacked", (False, True))
    @pytest.mark.parametrize("d,c", [(2, 3), (3, 4), (5, 6), (7, 8)])
    def test_mu_sets(self, widths, d, c, attacked):
        family = mu_basis_set(d, c)
        config = ProtocolConfig(c=c, d=d, basis_set=family, eve=family.bases[0] if attacked else None)
        mc.estimate_rates(config, 3000, seed=5)
        assert len(widths) == (c - 1) * (2 if attacked else 1)
        assert self.reaches_the_last_row(widths)

    def test_random_set_with_random_eve(self, widths):
        family = make_random_set(5, 4, seed=8)
        config = ProtocolConfig(c=4, d=5, basis_set=family, eve=make_random_basis(5, 99, label="eve"))
        mc.trial_outcomes_batch(config, 1000, 6)
        assert len(widths) == 6 and self.reaches_the_last_row(widths)

    @pytest.mark.parametrize("attacked", (False, True))
    def test_standard_and_fourier_pair(self, widths, attacked):
        pair = BasisSet([standard_basis(2), fourier_basis(2)])
        config = ProtocolConfig(c=2, d=2, basis_set=pair, eve=pair.bases[0] if attacked else None)
        mc.estimate_rates(config, 1000, seed=2)
        assert len(widths) == (2 if attacked else 1) and self.reaches_the_last_row(widths)

    def test_bkb01_on_sixstate_under_breidbart(self, widths, sixstate):
        mc.simulate_bkb01(sixstate, breidbart_basis(), 1000, seed=4)
        assert len(widths) == 2 and self.reaches_the_last_row(widths)

    def test_small_chunks(self, widths, monkeypatch):
        # 500 trials in chunks of 137: the last chunk is a cut workspace
        family = mu_basis_set(5, 6)
        config = ProtocolConfig(c=6, d=5, basis_set=family, eve=family.bases[0])
        monkeypatch.setattr(mc, "CHUNK", 137)
        mc.estimate_rates(config, 500, seed=10)
        assert [trials for _, _, trials in widths] == [137] * 30 + [89] * 10
        assert self.reaches_the_last_row(widths)


class TestChunking:
    def test_chunked_equals_whole(self, cfg23_eve, monkeypatch):
        whole = mc.estimate_rates(cfg23_eve, 5000, seed=3)
        monkeypatch.setattr(mc, "CHUNK", 137)
        chunked = mc.estimate_rates(cfg23_eve, 5000, seed=3)
        assert chunked.r_s == whole.r_s
        assert chunked.r_it == whole.r_it
        assert chunked.r_qb == whole.r_qb

    @pytest.mark.parametrize("offset", (-1, 0, 1))
    def test_counts_across_the_chunk_boundary_equal_the_outcomes(self, cfg23_eve, offset):
        n = mc.CHUNK + offset
        report = mc.estimate_rates(cfg23_eve, n, seed=5)
        outcomes = mc.trial_outcomes_batch(cfg23_eve, n, seed=5)
        sifted = [o for o in outcomes if o.sifted]
        wrong = sum(o.bob_letter != o.x for o in sifted)
        same_slots = sum(o.y.count(o.x) for o in outcomes)
        same_errors = sum(len(o.index_error_slots) for o in outcomes)
        assert report.r_s == mc._estimate(len(sifted), n, report.r_s.analytic)
        assert report.r_qb == mc._estimate(wrong, len(sifted), report.r_qb.analytic)
        assert report.r_it == mc._estimate(same_errors, same_slots, report.r_it.analytic)


class TestChunkReuse:
    """Every chunk of a run reuses one workspace: 3,500 trials in chunks of
    1,000 (the last one cut short) give the outcomes of run_trial and the
    counts of one unchunked run."""

    N = 3500

    @pytest.fixture(scope="class")
    def sets(self):
        return {
            "mu(5,6)": mu_basis_set(5, 6),
            "mu(2,3)": mu_basis_set(2, 3),
            "random(5,4)": make_random_set(5, 4, seed=23),
            "random(13,14)": make_random_set(13, 14, seed=31),
        }

    @pytest.mark.parametrize("attacked", (False, True))
    @pytest.mark.parametrize("name", ["mu(5,6)", "mu(2,3)", "random(5,4)", "random(13,14)"])
    def test_chunks_equal_one_run(self, sets, name, attacked, monkeypatch):
        family = sets[name]
        eve = make_random_basis(family.d, 77, label="eve") if attacked else None
        config = ProtocolConfig(c=family.c, d=family.d, basis_set=family, eve=eve)
        whole = mc.estimate_rates(config, self.N, seed=9)
        whole_bkb = mc.simulate_bkb01(family, eve, self.N, seed=9)
        monkeypatch.setattr(mc, "CHUNK", 1000)
        assert mc.trial_outcomes_batch(config, self.N, 9) == [run_trial(config, t, 9) for t in range(self.N)]
        chunked = mc.estimate_rates(config, self.N, seed=9)
        chunked_bkb = mc.simulate_bkb01(family, eve, self.N, seed=9)
        assert chunked.estimates == whole.estimates
        assert chunked_bkb.estimates == whole_bkb.estimates


def traced_peak(run) -> int:
    """Bytes allocated by run() at its peak, as tracemalloc sees them."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestMemory:
    """A run holds one workspace of a chunk and one copy of its tensors,
    however many trials it runs: these two read 3.26 and 2.04 MiB, and
    their bounds leave a fifth above that."""

    @pytest.mark.parametrize(
        ("d", "c", "attacked", "n", "bound_mib"),
        [(7, 8, True, 200_000, 4), (2, 3, False, 300_000, 2.5)],
    )
    def test_estimate_rates_peak_is_bounded(self, d, c, attacked, n, bound_mib):
        family = mu_basis_set(d, c)
        config = ProtocolConfig(c=c, d=d, basis_set=family, eve=family.bases[0] if attacked else None)
        assert traced_peak(lambda: mc.estimate_rates(config, n, seed=1)) < bound_mib * 2**20

    @pytest.fixture(scope="class")
    def attacked56(self):
        family = mu_basis_set(5, 6)
        config = ProtocolConfig(c=6, d=5, basis_set=family, eve=family.bases[0])
        return config, mc._hse_tensors(family, config.eve)

    @pytest.mark.parametrize(("d", "c"), [(2, 3), (3, 4), (5, 6), (7, 8)])
    @pytest.mark.parametrize("attacked", [False, True])
    def test_a_warm_chunk_allocates_nothing_per_trial(self, d, c, attacked):
        # a ufunc that mixes integer widths, or integers and floats, casts
        # through numpy's buffers of 8192 items: they once made a warm
        # chunk's peak 132 KB, and before that the trial ids were a fresh
        # vector of 8 bytes a trial.  Counting a block once allocated its
        # a != b and y == x flags, 121-321 KB at 20k trials
        family = mu_basis_set(d, c)
        config = ProtocolConfig(c=c, d=d, basis_set=family, eve=family.bases[0] if attacked else None)
        tensors = mc._hse_tensors(family, config.eve)
        work, counts = mc._Workspace(c - 1, c, d, mc.CHUNK, attacked), mc._Counts()

        def chunk(start):
            counts.add_block(*mc._hse_block(config, 7, start, tensors, work), work)

        chunk(0)
        assert traced_peak(lambda: chunk(mc.CHUNK)) < 2048
        assert counts.trials == 2 * mc.CHUNK

    def test_a_chunk_decodes_in_the_workspace(self, attacked56, monkeypatch):
        # the decode adds its flags as int8, so it casts nothing; its flags
        # were once a fresh vector of a byte a trial
        config, tensors = attacked56
        decode, peaks = mc._lehmer_decode, []

        def traced(*args):
            peaks.append(traced_peak(lambda: decode(*args)))

        monkeypatch.setattr(mc, "_lehmer_decode", traced)
        mc._hse_block(config, 7, 0, tensors, mc._Workspace(5, 6, 5, mc.CHUNK, True))
        assert len(peaks) == 1 and peaks[0] < 1024


class TestMemo:
    """Each (set, Eve) pair's CDF tables and analytic rates are built once,
    on the first run, and shared read-only by every run after it.  Each
    test takes a random set of its own, so its first run builds them."""

    @pytest.fixture
    def config(self):
        # a new object each time: the memo keys on identity
        family = make_random_set(3, 4, seed=100)
        return ProtocolConfig(c=4, d=3, basis_set=family, eve=family.bases[1])

    def test_two_runs_share_the_tables(self, config, monkeypatch):
        block, seen = mc._hse_block, []

        def spy(*args):
            seen.append(args[3])  # the tensors
            return block(*args)

        monkeypatch.setattr(mc, "_hse_block", spy)
        one, two = (mc.estimate_rates(config, 5000, seed=3) for _ in range(2))
        assert one.estimates == two.estimates
        assert len(seen) == 2 and seen[0] is seen[1]
        analytic = (one.r_s.analytic, one.r_it.analytic, one.r_qb.analytic)
        assert mc._hse_analytics(config.basis_set, config.eve) == analytic

    def test_the_tables_are_read_only(self, config):
        for eve in (None, config.eve):
            for columns in mc._hse_tensors(config.basis_set, eve):
                assert not columns.flags.writeable
                with pytest.raises(ValueError):
                    columns[0, 0] = 0

    def test_repeated_loads_do_not_grow_the_memo(self, config, tmp_path):
        path = tmp_path / "set.json"
        save_basis_set(config.basis_set, path)
        loaded = []
        for seed in range(3 * mc.MEMO_SIZE):
            family = load_basis_set(path)
            loaded.append(weakref.ref(family))
            mc.estimate_rates(ProtocolConfig(c=4, d=3, basis_set=family, eve=family.bases[0]), 200, seed)
        del family
        gc.collect()
        assert sum(ref() is not None for ref in loaded) <= mc.MEMO_SIZE
        for memo in (mc._hse_tensors, mc._hse_analytics):
            assert memo.cache_info().currsize <= mc.MEMO_SIZE

    def test_threads_on_one_config_agree(self, config):
        barrier, reports = threading.Barrier(4), []

        def run():
            barrier.wait(timeout=30)
            reports.append(mc.estimate_rates(config, 20_000, seed=5))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        serial = mc.estimate_rates(config, 20_000, seed=5)
        assert len(reports) == 4
        assert all(report.estimates == serial.estimates for report in reports)

    def test_batch_paths_match_on_the_second_call(self, config):
        scalar = [run_trial(config, t, seed=8) for t in range(300)]
        assert [mc.trial_outcomes_batch(config, 300, seed=8) for _ in range(2)] == [scalar, scalar]
        # BKB01 reads the same tables: a set of its own, so its first call builds them
        family = make_random_set(3, 4, seed=100)
        one, two = (mc.simulate_bkb01(family, family.bases[1], 5000, seed=8) for _ in range(2))
        assert one.estimates == two.estimates


class TestDegenerateEstimates:
    """An estimate of 0 or 1 has no spread of its own: its z is taken
    against the analytic rate's standard error, and is infinite only where
    that rate is itself 0 or 1."""

    def test_an_estimate_of_zero_or_one_has_a_finite_z(self):
        low, high = mc._estimate(0, 20, 0.25), mc._estimate(20, 20, 0.25)
        assert low.stderr == high.stderr == math.sqrt(0.25 * 0.75 / 20)
        assert low.z == -0.25 / low.stderr and high.z == 0.75 / high.stderr

    def test_an_exact_analytic_rate_keeps_the_sign_of_the_miss(self):
        assert mc._estimate(0, 5, 0.0).z == 0.0 and mc._estimate(5, 5, 1.0).z == 0.0
        assert mc._estimate(5, 5, 0.0).z == math.inf
        assert mc._estimate(0, 5, 1.0).z == -math.inf

    @pytest.mark.parametrize("n", (5, 20))
    def test_short_attacked_runs_print_valid_json(self, cfg23_eve, n):
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        for seed in range(1, 101):
            report = mc.estimate_rates(cfg23_eve, n, seed)
            for estimate in report.estimates.values():
                assert estimate.z is None or math.isfinite(estimate.z), (seed, estimate)
            for row in mc.report_rows(report):
                json.loads(json.dumps(row), parse_constant=reject)


class TestEstimateRates:
    def test_attack_rates_within_three_sigma(self, cfg23_eve):
        report = mc.estimate_rates(cfg23_eve, 200_000, seed=1)
        assert abs(report.r_qb.value - 4 / 7) < 3 * report.r_qb.stderr
        assert abs(report.r_it.value - 1 / 3) < 3 * report.r_it.stderr
        assert abs(report.r_s.value - 7 / 36) < 3 * report.r_s.stderr
        assert report.r_qb.analytic == pytest.approx(4 / 7, abs=1e-12)

    def test_clean_run_has_zero_errors(self, cfg34):
        report = mc.estimate_rates(cfg34, 200_000, seed=1)
        assert abs(report.r_s.value - 2 / 27) < 3 * report.r_s.stderr
        assert report.r_qb.value == 0.0
        assert report.r_it.value == 0.0
        assert report.consistent

    def test_high_dimension_attack(self):
        family = mu_basis_set(7, 8)
        config = ProtocolConfig(c=8, d=7, basis_set=family, eve=family.bases[0])
        report = mc.estimate_rates(config, 1_000_000, seed=2)
        assert abs(report.r_it.value - 3 / 4) < 3 * report.r_it.stderr

    def test_deterministic(self, cfg23_eve):
        one = mc.estimate_rates(cfg23_eve, 30_000, seed=9)
        two = mc.estimate_rates(cfg23_eve, 30_000, seed=9)
        assert (one.r_s, one.r_it, one.r_qb) == (two.r_s, two.r_it, two.r_qb)

    def test_eavesdropper_toggle_keeps_honest_draws(self, sixstate):
        with_eve = ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=sixstate.bases[0])
        without = ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=None)
        for t in range(200):
            attacked = run_trial(with_eve, t, seed=4)
            clean = run_trial(without, t, seed=4)
            assert attacked.x == clean.x
            assert attacked.a == clean.a
            assert attacked.y == clean.y

    def test_toggle_statistics(self, sixstate):
        clean = mc.estimate_rates(
            ProtocolConfig(c=3, d=2, basis_set=sixstate), 50_000, seed=6
        )
        assert clean.r_qb.value == 0.0 and clean.r_qb.z == 0.0
        assert abs(clean.r_s.value - 1 / 12) < 3 * clean.r_s.stderr

    def test_estimator_mean_over_seeds(self, cfg23_eve):
        estimates = [
            mc.estimate_rates(cfg23_eve, 50_000, seed=s).r_qb.value for s in range(20)
        ]
        mean = float(np.mean(estimates))
        stderr_of_mean = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        assert abs(mean - 4 / 7) < 2 * stderr_of_mean + 1e-12

    def test_missing_samples_reported_absent(self, cfg23_eve):
        # hunt for a trial whose basis tuple avoids the sent letter, so a
        # one-trial run has no same-basis slots
        seed = next(
            s
            for s in range(50)
            if run_trial(cfg23_eve, 0, seed=s).x not in run_trial(cfg23_eve, 0, seed=s).y
        )
        report = mc.estimate_rates(cfg23_eve, 1, seed=seed)
        assert report.r_it.value is None and report.r_it.z is None

    def test_partial_interception_falls_back(self, sixstate):
        config = ProtocolConfig(
            c=3, d=2, basis_set=sixstate, eve=sixstate.bases[0], intercept_fraction=0.5
        )
        with pytest.raises(InvalidParameter):
            mc.estimate_rates(config, 100, seed=1)

    def test_zero_interception_is_a_clean_run(self, sixstate):
        config = ProtocolConfig(
            c=3, d=2, basis_set=sixstate, eve=sixstate.bases[0], intercept_fraction=0.0
        )
        report = mc.estimate_rates(config, 20_000, seed=11)
        assert report.consistent
        clean = mc.estimate_rates(ProtocolConfig(c=3, d=2, basis_set=sixstate), 20_000, seed=11)
        assert report.estimates == clean.estimates

    def test_rejects_empty_run(self, cfg23_eve):
        with pytest.raises(InvalidParameter):
            mc.estimate_rates(cfg23_eve, 0, seed=1)

    def test_outcomes_of_no_trials(self, cfg23_eve):
        assert mc.trial_outcomes_batch(cfg23_eve, 0, seed=1) == []
        with pytest.raises(InvalidParameter):
            mc.trial_outcomes_batch(cfg23_eve, -1, seed=1)


class TestStageTimings:
    def test_every_stage_is_timed(self, cfg23_eve, sixstate, monkeypatch):
        monkeypatch.setattr(mc, "CHUNK", 1000)
        reports = [
            mc.estimate_rates(cfg23_eve, 5000, seed=1),
            mc.simulate_bkb01(sixstate, sixstate.bases[0], 5000, seed=1),
        ]
        for report in reports:
            assert list(report.stages) == list(mc.STAGES)
            assert all(seconds >= 0.0 for seconds in report.stages.values())
            assert report.stages["sampling"] > 0.0
            assert report.elapsed == math.fsum(report.stages.values())

    def test_machine_formats_carry_no_timings(self, cfg23_eve):
        report = mc.estimate_rates(cfg23_eve, 2000, seed=1)
        for row in mc.report_rows(report):
            assert list(row) == [*mc.CSV_COLUMNS, "n"]
        assert mc.CSV_COLUMNS == ["protocol", "d", "c", "metric", "analytic", "empirical", "stderr", "z"]


class TestSimulateBkb01:
    def test_qubit_three_bases(self, sixstate):
        report = mc.simulate_bkb01(sixstate, sixstate.bases[0], 200_000, seed=3)
        assert abs(report.r_qb.value - 1 / 3) < 3 * report.r_qb.stderr
        assert abs(report.r_s.value - 1 / 3) < 3 * report.r_s.stderr

    def test_high_dimension(self):
        family = mu_basis_set(7, 8)
        report = mc.simulate_bkb01(family, family.bases[0], 1_000_000, seed=4)
        assert abs(report.r_qb.value - 3 / 4) < 3 * report.r_qb.stderr

    def test_clean_channel_has_no_errors(self, sixstate):
        report = mc.simulate_bkb01(sixstate, None, 50_000, seed=5)
        assert report.r_qb.value == 0.0

    def test_no_rounds_is_an_error(self, sixstate):
        with pytest.raises(InvalidParameter, match="^n_trials must be >= 1$"):
            mc.simulate_bkb01(sixstate, None, 0, seed=5)

    @pytest.mark.parametrize(("d", "c", "seed"), [(2, 3, 5), (3, 4, 6), (5, 3, 7)])
    def test_qber_on_random_sets_and_eves(self, d, c, seed):
        # the analytic QBER is average_distance, exact for any set and Eve;
        # the MU form (c-1)(d-1)/(cd) misses here by tens of sigmas
        family = make_random_set(d, c, seed=seed)
        eve = make_random_basis(d, seed + 500, label="eve")
        report = mc.simulate_bkb01(family, eve, 200_000, seed=seed)
        assert report.r_qb.analytic == average_distance(eve, family)
        assert abs(report.r_qb.z) <= 4 and abs(report.r_s.z) <= 4

    def test_qber_under_breidbart(self, sixstate):
        eve = breidbart_basis()
        report = mc.simulate_bkb01(sixstate, eve, 200_000, seed=12)
        assert report.r_qb.analytic == average_distance(eve, sixstate)
        assert abs(report.r_qb.z) <= 4 and abs(report.r_s.z) <= 4


class TestBkb01CellLaw:
    """The whole law of a BKB01 round, not only its marginals: the count of
    each cell (g, x, h, outcome) against P = T_gh[x, outcome] / (c d c),
    with T_gh = transition_matrix(B_g, B_h), or T(B_g, eve) @ T(eve, B_h)
    when Eve measures and resends."""

    TRIALS = 50_000
    SETS = {
        "mu(2,3)": lambda: mu_basis_set(2, 3),
        "mu(3,4)": lambda: mu_basis_set(3, 4),
        "mu(5,6)": lambda: mu_basis_set(5, 6),
        "random(5,4)": lambda: make_random_set(5, 4, seed=31),
    }
    EVES = {
        "none": lambda family: None,
        "B0": lambda family: family.bases[0],
        "B1": lambda family: family.bases[1],
        "breidbart": lambda family: breidbart_basis(),
        "random": lambda family: make_random_basis(family.d, 77, label="eve"),
    }

    @staticmethod
    def law(family, eve):
        c, d = family.c, family.d
        p = np.empty((c, d, c, d))
        for g, bg in enumerate(family.bases):
            for h, bh in enumerate(family.bases):
                if eve is None:
                    hop = transition_matrix(bg, bh)
                else:
                    hop = transition_matrix(bg, eve) @ transition_matrix(eve, bh)
                p[g, :, h, :] = hop / (c * d * c)
        return p.reshape(-1)

    def counts(self, family, eve, seed):
        c, d = family.c, family.d
        counts = np.zeros(c * d * c * d, dtype=np.int64)
        config = ProtocolConfig(c, d, family, eve)
        for _, (g, (x,), (h,), (outcome,)), _ in mc._blocks(config, 1, self.TRIALS, seed, mc._Stopwatch()):
            cell = ((g.astype(np.intp) * d + x) * c + h) * d + outcome
            counts += np.bincount(cell, minlength=len(counts))
        return counts

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "name,eve",
        [
            ("mu(2,3)", "none"),
            ("mu(2,3)", "B0"),
            ("mu(2,3)", "breidbart"),
            ("mu(3,4)", "none"),
            ("mu(3,4)", "B0"),
            ("mu(3,4)", "B1"),
            ("mu(5,6)", "none"),
            ("mu(5,6)", "B0"),
            ("mu(5,6)", "B1"),
            ("random(5,4)", "none"),
            ("random(5,4)", "B1"),
            ("random(5,4)", "random"),
        ],
    )
    def test_cells_follow_the_exact_law(self, name, eve, seed):
        family = self.SETS[name]()
        eve = self.EVES[eve](family)
        law, counts = self.law(family, eve), self.counts(family, eve, seed)
        assert counts.sum() == self.TRIALS
        # a cell whose P is rounding noise (one basis to itself, directly or via Eve) is impossible
        impossible = law < 1e-12
        assert not counts[impossible].any()
        assert abs(chi_square_z(counts[~impossible], law[~impossible] * self.TRIALS)) <= 4.0


class TestHseCellLaw:
    """The whole law of an HSE trial, not only the rates it is summed
    into: the count of each cell (x, a, y, b) against
    P = (1/c) d^-(c-1) (1/c!) prod_k M_{x,y_k}[a_k, b_k], with
    M_{x,y} = transition_matrix(B_x, B_y), or T(B_x, eve) @ T(eve, B_y)
    when Eve measures and resends.  Bob's tuple y is coded in base c, so
    a cell whose y repeats a letter has P = 0; the others, c d^(c-1) c!
    d^(c-1) of them, are 288 cells at (2,3) and 1,458 at (3,3)."""

    TRIALS = 50_000

    @staticmethod
    def cells(family):
        """The (x, a, y, b) of every cell, a and y and b as (c-1)-stacks,
        over the cell grid in the order `counts` codes it."""
        c, d, slots = family.c, family.d, family.c - 1
        grid = np.indices((c, *(d,) * slots, *(c,) * slots, *(d,) * slots)).reshape(1 + 3 * slots, -1)
        return grid[0], grid[1 : 1 + slots], grid[1 + slots : 1 + 2 * slots], grid[1 + 2 * slots :]

    def law(self, family, eve):
        c, d, slots = family.c, family.d, family.c - 1
        hop = np.empty((c, c, d, d))
        for x, bx in enumerate(family.bases):
            for y, by in enumerate(family.bases):
                if eve is None:
                    hop[x, y] = transition_matrix(bx, by)
                else:
                    hop[x, y] = transition_matrix(bx, eve) @ transition_matrix(eve, by)
        x, a, y, b = self.cells(family)
        distinct = np.array([len(set(letters)) == slots for letters in y.T])
        slot_laws = [hop[x, y[k], a[k], b[k]] for k in range(slots)]
        return distinct * np.prod(slot_laws, axis=0) / (c * d**slots * math.factorial(c))

    def counts(self, family, eve, seed):
        c, d = family.c, family.d
        # a cell codes x, then the c-1 digits of a (base d), y (base c) and b (base d)
        counts = np.zeros(c**c * d ** (2 * c - 2), dtype=np.int64)
        config = ProtocolConfig(c, d, family, eve)
        for _, (x, a, y, b), _ in mc._blocks(config, c - 1, self.TRIALS, seed, mc._Stopwatch()):
            cell = x.astype(np.intp)
            for part, base in ((a, d), (y, c), (b, d)):
                for row in part:
                    cell = cell * base + row
            counts += np.bincount(cell, minlength=len(counts))
        return counts

    @pytest.mark.parametrize(("d", "c"), [(2, 3), (3, 3)])
    @pytest.mark.parametrize("attacked", [False, True])
    def test_the_law_sums_to_the_analytic_rates(self, d, c, attacked):
        # what estimate_rates compares its counts with: r_s (r_k under
        # attack), the QBER of the sifted trials, and the index error rate
        family = mu_basis_set(d, c)
        eve = family.bases[0] if attacked else None
        law = self.law(family, eve)
        x, a, y, b = self.cells(family)
        differ, same = a != b, y == x
        sifted = np.all(differ, axis=0)
        r_s = law[sifted].sum()
        r_qb = law[sifted & np.any(same, axis=0)].sum() / r_s
        r_it = (law * (same & differ).sum(axis=0)).sum() / (law * same.sum(axis=0)).sum()
        if eve is None:
            want = (success_rate(family), 0.0, 0.0)
        else:
            report = rate_report(family, eve)
            want = (report.r_k, report.r_qb, report.r_it)
        assert abs(law.sum() - 1.0) <= 1e-12
        assert np.allclose((r_s, r_qb, r_it), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(("d", "c"), [(2, 3), (3, 3)])
    @pytest.mark.parametrize("attacked", [False, True])
    def test_cells_follow_the_exact_law(self, d, c, attacked, seed):
        family = mu_basis_set(d, c)
        eve = family.bases[0] if attacked else None
        law, counts = self.law(family, eve), self.counts(family, eve, seed)
        assert counts.sum() == self.TRIALS
        # a cell whose P is 0 or rounding noise (a repeated letter, or a
        # state measured in its own basis giving another index) is impossible
        impossible = law < 1e-12
        assert not counts[impossible].any()
        assert abs(chi_square_z(counts[~impossible], law[~impossible] * self.TRIALS)) <= 4.0


class TestBkb01Oracle:
    """simulate_bkb01 counts what the scalar oracle bkb01_round draws,
    round for round, across chunks of 1,000 (the last one cut short)."""

    N = 3500

    @pytest.fixture(scope="class")
    def sets(self):
        return {
            "mu(2,3)": mu_basis_set(2, 3),
            "mu(5,6)": mu_basis_set(5, 6),
            "random(5,4)": make_random_set(5, 4, seed=29),
        }

    @pytest.mark.parametrize("eve_kind", ["none", "member", "random"])
    @pytest.mark.parametrize("name", ["mu(2,3)", "mu(5,6)", "random(5,4)"])
    def test_counts_equal_the_oracle(self, sets, name, eve_kind, monkeypatch):
        family = sets[name]
        eve = {
            "none": None,
            "member": family.bases[1],
            "random": make_random_basis(family.d, 88, label="eve"),
        }[eve_kind]
        monkeypatch.setattr(mc, "CHUNK", 1000)
        report = mc.simulate_bkb01(family, eve, self.N, seed=4)
        rounds = [bkb01_round(family, eve, t, seed=4) for t in range(self.N)]
        sifted = sum(s for s, _ in rounds)
        wrong = sum(w for _, w in rounds)
        assert report.r_s == mc._estimate(sifted, self.N, report.r_s.analytic)
        assert report.r_qb == mc._estimate(wrong, sifted, report.r_qb.analytic)
        if eve_kind != "none":
            assert wrong > 0


class TestPinnedReports:
    """Exact seeded figures; the sampled values must never drift."""

    PINNED = {
        ("hse", False): {
            "r_s": (0.08305, 0.0019513161904212244, 20000, 1 / 12),
            "r_qb": (0.0, 0.0, 1661, 0.0),
            "r_it": (0.0, 0.0, 13353, 0.0),
        },
        ("hse", True): {
            "r_s": (0.19455, 0.002799109657551844, 20000, 7 / 36),
            "r_qb": (0.5708044204574659, 0.00793488557954968, 3891, 4 / 7),
            "r_it": (0.3356549090092114, 0.004086522949533263, 13353, 1 / 3),
        },
        ("bkb01", False): {
            "r_s": (0.3341, 0.0033352450434713187, 20000, 1 / 3),
            "r_qb": (0.0, 0.0, 6682, 0.0),
        },
        ("bkb01", True): {
            "r_s": (0.3341, 0.0033352450434713187, 20000, 1 / 3),
            "r_qb": (0.3325351691110446, 0.005763413105258874, 6682, 1 / 3),
        },
    }

    @pytest.mark.parametrize("protocol,attacked", list(PINNED))
    def test_seeded_values(self, sixstate, protocol, attacked):
        eve = sixstate.bases[0] if attacked else None
        if protocol == "hse":
            config = ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=eve)
            report = mc.estimate_rates(config, 20_000, seed=11)
        else:
            report = mc.simulate_bkb01(sixstate, eve, 20_000, seed=11)
        pinned = self.PINNED[(protocol, attacked)]
        assert set(report.estimates) == set(pinned)
        for metric, (value, stderr, n, analytic) in pinned.items():
            est = report.estimates[metric]
            assert (est.value, est.stderr, est.n) == (value, stderr, n)
            assert est.analytic == pytest.approx(analytic, abs=1e-14)


class TestSerialization:
    def test_csv_round_trip(self, cfg23_eve, capsys):
        report = mc.estimate_rates(cfg23_eve, 10_000, seed=1)
        emit("csv", mc.report_rows(report), None, mc.CSV_COLUMNS)
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert {row["metric"] for row in rows} == {"r_s", "r_qb", "r_it"}
        for row in rows:
            assert row["protocol"] == "hse"
            assert (int(row["d"]), int(row["c"])) == (2, 3)
            metric = getattr(report, row["metric"])
            assert float(row["empirical"]) == metric.value
            assert float(row["stderr"]) == metric.stderr
            assert float(row["z"]) == metric.z

    def test_csv_columns(self, capsys):
        emit("csv", [], None, mc.CSV_COLUMNS)
        assert capsys.readouterr().out == "protocol,d,c,metric,analytic,empirical,stderr,z\n"

    def test_json_lines(self, cfg23_eve, capsys):
        report = mc.estimate_rates(cfg23_eve, 10_000, seed=1)
        emit("jsonl", mc.report_rows(report), None)
        objs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(objs) == 3
        assert {o["metric"] for o in objs} == {"r_s", "r_qb", "r_it"}
        assert all(o["protocol"] == "hse" for o in objs)

    def test_format_report_readable(self, cfg23_eve):
        text = mc.format_report(mc.estimate_rates(cfg23_eve, 5_000, seed=1))
        assert "r_qb" in text and "analytic" in text


class TestReportFromOutcomes:
    def test_matches_direct_estimation_counts(self, sixstate):
        config = ProtocolConfig(c=3, d=2, basis_set=sixstate)
        outcomes = mc.trial_outcomes_batch(config, 5_000, seed=8)
        rebuilt = mc.report_from_outcomes(config, outcomes, seed=8)
        direct = mc.estimate_rates(config, 5_000, seed=8)
        assert rebuilt.r_s == direct.r_s
        assert rebuilt.r_qb.value == direct.r_qb.value

    def test_unknown_letters_limit_metrics(self, sixstate):
        config = ProtocolConfig(c=3, d=2, basis_set=sixstate)
        outcomes = mc.trial_outcomes_batch(config, 500, seed=8)
        anonymized = [
            dataclasses.replace(o, x=-1, index_error_slots=()) for o in outcomes
        ]
        report = mc.report_from_outcomes(config, anonymized, seed=8)
        assert report.r_qb.value is None
        assert report.r_s.value is not None


class TestReportFromOutcomesPinned:
    """Exact reports of an attacked run read against no-attack theory,
    with every, some, or no letters disclosed."""

    PINNED = {
        "known": (3000, {
            "r_s": (0.185, 0.007089311203024828, 3000),
            "r_qb": (0.5531531531531532, 0.021103551740260056, 555),
            "r_it": (0.32962025316455695, 0.01057751955485366, 1975),
        }),
        "mixed": (3000, {
            "r_s": (0.185, 0.007089311203024828, 3000),
            "r_qb": (0.548051948051948, 0.02536440958264941, 385),
            "r_it": (0.32292460015232294, 0.0129043674089245, 1313),
        }),
        "unknown": (3000, {
            "r_s": (0.185, 0.007089311203024828, 3000),
            "r_qb": (None, None, 0),
            "r_it": (None, None, 0),
        }),
        "empty": (0, {
            "r_s": (None, None, 0),
            "r_qb": (None, None, 0),
            "r_it": (None, None, 0),
        }),
    }

    @pytest.fixture(scope="class")
    def outcome_lists(self, sixstate):
        attacked = ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=sixstate.bases[0])
        outcomes = mc.trial_outcomes_batch(attacked, 3000, seed=21)

        def hide(o):
            return dataclasses.replace(o, x=-1, index_error_slots=())

        return {
            "known": outcomes,
            "mixed": [o if o.trial_id % 3 else hide(o) for o in outcomes],
            "unknown": [hide(o) for o in outcomes],
            "empty": [],
        }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_seeded_values(self, sixstate, outcome_lists, name):
        config = ProtocolConfig(c=3, d=2, basis_set=sixstate)
        report = mc.report_from_outcomes(config, outcome_lists[name], seed=21)
        n_trials, pinned = self.PINNED[name]
        assert (report.protocol, report.eve_label, report.n_trials, report.elapsed) == ("hse", None, n_trials, 0.0)
        assert list(report.estimates) == ["r_s", "r_qb", "r_it"]
        analytic = {"r_s": 1 / 12, "r_qb": 0.0, "r_it": 0.0}
        for metric, (value, stderr, n) in pinned.items():
            est = report.estimates[metric]
            assert (est.value, est.stderr, est.n) == (value, stderr, n)
            assert est.analytic == pytest.approx(analytic[metric], abs=1e-14)


class TestCountsMatchScalarRule:
    """The batch engine counts with _Counts.add_block, not TrialOutcome.of:
    both must give the same totals."""

    @pytest.mark.parametrize("qutrits", (False, True))
    @pytest.mark.parametrize("attacked", (False, True))
    def test_block_counts_equal_outcome_fields(self, sixstate, qutrit4, qutrits, attacked):
        basis_set = qutrit4 if qutrits else sixstate
        c, d = basis_set.c, basis_set.d
        config = ProtocolConfig(c=c, d=d, basis_set=basis_set, eve=basis_set.bases[0] if attacked else None)
        n, seed = 2000, 13
        counts = mc._Counts()
        tensors = mc._hse_tensors(basis_set, config.eve)
        work = mc._Workspace(c - 1, c, d, n, attacked)
        counts.add_block(*mc._hse_block(config, seed, 0, tensors, work))
        outcomes = [run_trial(config, t, seed) for t in range(n)]
        sifted = [o for o in outcomes if o.sifted]
        assert (counts.trials, counts.sifted, counts.checked) == (n, len(sifted), len(sifted))
        assert counts.wrong == sum(o.bob_letter != o.x for o in sifted)
        assert counts.same_slots == sum(o.y.count(o.x) for o in outcomes)
        assert counts.same_errors == sum(len(o.index_error_slots) for o in outcomes)
        if attacked:
            assert counts.wrong > 0 and counts.same_errors > 0
        else:
            assert counts.wrong == counts.same_errors == 0
