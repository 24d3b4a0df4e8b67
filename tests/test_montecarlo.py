import csv
import io
import json
import math

import numpy as np
import pytest

import hselab.montecarlo as mc
from conftest import make_random_set
from hselab.bases import BasisSet, breidbart_basis, fourier_basis, mu_basis_set, standard_basis
from hselab.errors import InvalidParameter
from hselab.protocol import run_trial
from hselab.rates import ProtocolConfig


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

    def test_supplied_letters(self, cfg23_eve):
        letters = [t % 3 for t in range(100)]
        batch = mc.trial_outcomes_batch(cfg23_eve, 100, 7, letters=letters)
        assert batch == [run_trial(cfg23_eve, t, 7, letters=letters) for t in range(100)]


class TestChunking:
    def test_chunked_equals_whole(self, cfg23_eve, monkeypatch):
        whole = mc.estimate_rates(cfg23_eve, 5000, seed=3)
        monkeypatch.setattr(mc, "CHUNK", 137)
        chunked = mc.estimate_rates(cfg23_eve, 5000, seed=3)
        assert chunked.r_s == whole.r_s
        assert chunked.r_it == whole.r_it
        assert chunked.r_qb == whole.r_qb


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
        assert report.worst_abs_z <= 4.0
        clean = mc.estimate_rates(ProtocolConfig(c=3, d=2, basis_set=sixstate), 20_000, seed=11)
        assert report.estimates == clean.estimates

    def test_rejects_empty_run(self, cfg23_eve):
        with pytest.raises(InvalidParameter):
            mc.estimate_rates(cfg23_eve, 0, seed=1)


class TestSimulateBkb01:
    def test_qubit_three_bases(self, sixstate):
        report = mc.simulate_bkb01(3, 2, sixstate, sixstate.bases[0], 200_000, seed=3)
        assert abs(report.r_qb.value - 1 / 3) < 3 * report.r_qb.stderr
        assert abs(report.r_s.value - 1 / 3) < 3 * report.r_s.stderr

    def test_high_dimension(self):
        family = mu_basis_set(7, 8)
        report = mc.simulate_bkb01(8, 7, family, family.bases[0], 1_000_000, seed=4)
        assert abs(report.r_qb.value - 3 / 4) < 3 * report.r_qb.stderr

    def test_clean_channel_has_no_errors(self, sixstate):
        report = mc.simulate_bkb01(3, 2, sixstate, None, 50_000, seed=5)
        assert report.r_qb.value == 0.0

    def test_shape_mismatch_rejected(self, sixstate):
        with pytest.raises(InvalidParameter):
            mc.simulate_bkb01(4, 2, sixstate, None, 10, seed=1)


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
            report = mc.simulate_bkb01(3, 2, sixstate, eve, 20_000, seed=11)
        pinned = self.PINNED[(protocol, attacked)]
        assert set(report.estimates) == set(pinned)
        for metric, (value, stderr, n, analytic) in pinned.items():
            est = report.estimates[metric]
            assert (est.value, est.stderr, est.n) == (value, stderr, n)
            assert est.analytic == pytest.approx(analytic, abs=1e-14)


class TestSweep:
    def test_grid_consistency(self, sixstate, qutrit4):
        configs = [
            ProtocolConfig(c=3, d=2, basis_set=sixstate, eve=sixstate.bases[0]),
            ProtocolConfig(c=4, d=3, basis_set=qutrit4, eve=qutrit4.bases[0]),
        ]
        result = mc.sweep(configs, 100_000, seed=1)
        assert result.ok and result.worst_abs_z <= 4.0
        assert len(result.reports) == 2

    def test_empty_grid(self):
        result = mc.sweep([], 1000, seed=1)
        assert result.reports == [] and result.worst_abs_z == 0.0

    def test_repeatable(self, cfg23_eve):
        one = mc.sweep([cfg23_eve], 20_000, seed=2)
        two = mc.sweep([cfg23_eve], 20_000, seed=2)
        assert one.worst_abs_z == two.worst_abs_z


class TestSerialization:
    def test_csv_round_trip(self, cfg23_eve):
        report = mc.estimate_rates(cfg23_eve, 10_000, seed=1)
        rows = list(csv.DictReader(io.StringIO(mc.to_csv([report]))))
        assert {row["metric"] for row in rows} == {"r_s", "r_qb", "r_it"}
        for row in rows:
            assert row["protocol"] == "hse"
            assert (int(row["d"]), int(row["c"])) == (2, 3)
            metric = getattr(report, row["metric"])
            assert float(row["empirical"]) == metric.value
            assert float(row["stderr"]) == metric.stderr
            assert float(row["z"]) == metric.z

    def test_csv_columns(self):
        header = mc.to_csv([]).strip()
        assert header == "protocol,d,c,metric,analytic,empirical,stderr,z"

    def test_json_lines(self, cfg23_eve):
        report = mc.estimate_rates(cfg23_eve, 10_000, seed=1)
        lines = mc.to_json_lines([report]).strip().splitlines()
        objs = [json.loads(line) for line in lines]
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
        import dataclasses

        config = ProtocolConfig(c=3, d=2, basis_set=sixstate)
        outcomes = mc.trial_outcomes_batch(config, 500, seed=8)
        anonymized = [
            dataclasses.replace(o, x=-1, index_error_slots=()) for o in outcomes
        ]
        report = mc.report_from_outcomes(config, anonymized, seed=8)
        assert report.r_qb.value is None
        assert report.r_s.value is not None
