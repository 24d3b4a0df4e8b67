"""Tests of the benchmark itself (not part of hselab's tier-1 suite).

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
from array import array
import shutil
import subprocess
import sys

import pytest

import workloads
from conftest import BENCH_DIR, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def assert_result(done, section):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_end_to_end_metric(workload):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0", "--smoke")
    result = assert_result(done, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["sim", "session-mem"])
def test_tiny_traced_run_prints_every_layer_metric(workload):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "1", "--smoke")
    assert_result(done, "per_layer")
    details = json.loads(done.stdout.strip().splitlines()[-2])
    assert details["missing_layers"] == []


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "sim", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_jsonl_parsing_tolerates_extra_fields_and_lines():
    text = 'timing: 3 ms\n{"metric": "r_s", "z": 0.1, "extra": {"stage_ms": 2}}\n[1, 2]\n{bad json\n'
    assert workloads.json_rows(text) == [{"metric": "r_s", "z": 0.1, "extra": {"stage_ms": 2}}]


def test_percentile_is_nearest_rank():
    samples = list(range(1, 201))
    assert workloads.percentile(samples, 50) == 100
    assert workloads.percentile(samples, 95) == 190  # ten samples lie beyond it


def test_session_timings_take_the_session_with_the_fastest_median_trial():
    def session(size, trial_s, ok=True):
        return workloads.Call(0, 0, size, "plain", len(trial_s), sum(trial_s), ok,
                              trial_s=array("d", trial_s))

    slowed = [0.001, 0.001, 0.009, 0.009, 0.009]  # a neighbour slowed most of it
    calls = [
        session((3, 4), slowed),
        session((3, 4), [0.002, 0.002, 0.009, 0.002, 0.009]),  # a slow minority
        session((3, 4), [0.0001] * 5, ok=False),
        session((5, 6), [0.003] * 4),
    ]
    fastest = workloads._fastest_medians(calls, "plain", "trial_s")
    assert fastest == {(3, 4): 0.002, (5, 6): 0.003}
    assert workloads._pass_rate(fastest) == pytest.approx(2 / 0.005)
    assert workloads._pass_rate({}) == 0.0


def test_throughput_weighs_each_size_at_its_fastest_call():
    def call(size, wall, mode="plain", ok=True):
        return workloads.Call(0, 0, size, mode, 100, wall, ok)

    calls = [
        call((2, 3), 0.2), call((2, 3), 0.1), call((3, 4), 0.3),
        call((3, 4), 0.05, ok=False), call((3, 4), 0.01, mode="eve"),
    ]
    assert workloads._fastest_rate(calls, "plain") == pytest.approx(200 / 0.4)
    assert workloads._fastest_wall_ms(calls, (3, 4), "plain") == pytest.approx(300.0)
    assert workloads._fastest_wall_ms(calls, (5, 6), "plain") == 0.0


@pytest.fixture
def ledger():
    return workloads.Ledger()


@pytest.fixture
def sim_workload(ledger):
    workload = workloads.SimWorkload(seed=5, smoke=True, ledger=ledger)
    workload.import_modules()
    workload.prepare()
    yield workload
    workload.close()


def test_sim_rate_off_by_1e6_counts_as_failed(sim_workload, ledger):
    real_cli = sim_workload._cli

    def corrupted(argv):
        wall, out, problem = real_cli(argv)
        rows = [json.loads(line) for line in out.splitlines()]
        for row in rows:
            if row["metric"] == "r_s":
                row["analytic"] += 1e-6
        return wall, "\n".join(json.dumps(r) for r in rows), problem

    before = ledger.failed
    sim_workload._cli = corrupted
    calls = sim_workload.run_cycle(0)
    assert ledger.failed - before == len(calls) == 6
    assert not any(call.ok for call in calls)


def test_sim_z_beyond_four_counts_as_failed(sim_workload):
    closed = sim_workload.closed[(2, 3)]
    rows = [
        {"metric": "r_s", "d": 2, "c": 3, "analytic": closed.r_s, "z": 4.5},
        {"metric": "r_it", "d": 2, "c": 3, "analytic": 0.0, "z": 0.0},
        {"metric": "r_qb", "d": 2, "c": 3, "analytic": 0.0, "z": 0.0},
    ]
    assert "|z|" in workloads.check_sim_rows(rows, 2, 3, False, closed)
    rows[0]["z"] = -3.9
    assert workloads.check_sim_rows(rows, 2, 3, False, closed) is None


def test_rates_off_by_1e6_counts_as_failed(ledger):
    workload = workloads.RatesWorkload(seed=1, smoke=True, ledger=ledger)
    workload.import_modules()
    workload.prepare()
    assert ledger.failed == 0
    real_cli = workload._cli

    def corrupted(argv):
        wall, out, problem = real_cli(argv)
        row = json.loads(out)
        row["r_qb"] += 1e-6
        return wall, json.dumps(row) + "\nextra line\n", problem

    workload._cli = corrupted
    call = workload._command(0, 3, 4)
    assert not call.ok and ledger.failed == 1
    assert "r_qb" in ledger.reasons[0]


def test_rates_tolerance_accepts_enumeration_rounding():
    from hselab.rates import mub_closed_forms

    closed = mub_closed_forms(8, 7)
    row = {f: getattr(closed, f) for f in workloads.RATE_KEYS}
    row.update(d=7, c=8, r_qb=closed.r_qb + 3e-12, n_s=closed.n_s + 5e-11)
    assert workloads.check_rate_rows([row], 7, 8, closed) is None


@pytest.fixture
def mem_workload(ledger):
    workload = workloads.MemorySessionWorkload(seed=2, smoke=True, ledger=ledger)
    workload.import_modules()
    workload.prepare()
    yield workload
    workload.close()


@pytest.mark.parametrize("mode", ["plain", "eve"])
def test_flipped_sift_verdict_counts_as_failed(mem_workload, ledger, mode):
    real_run_session = mem_workload._run_session

    def flip_bob_verdict(role, transport, *args, **kwargs):
        result = real_run_session(role, transport, *args, **kwargs)
        if role == "bob":
            result[3] = dataclasses.replace(result[3], sifted=not result[3].sifted)
        return result

    mem_workload._run_session = flip_bob_verdict
    call = mem_workload._session(0, (2, 3), mode, 6)
    assert ledger.attempted == 2  # the warm-up session and this one
    assert ledger.failed == 1 and not call.ok
    assert "trial 3" in ledger.reasons[0]


def test_short_mitm_log_counts_as_failed(mem_workload, ledger, monkeypatch):
    ch = mem_workload.hs.channel
    real_pumps = ch.run_mitm_pumps

    def lose_one_record(*args, **kwargs):
        log = real_pumps(*args, **kwargs)
        log._records.pop()
        return log

    monkeypatch.setattr(ch, "run_mitm_pumps", lose_one_record)
    call = mem_workload._session(0, (3, 4), "eve", 5)
    assert call.intercepts == 3 * 5 - 1
    assert ledger.failed == 1 and "interceptions" in ledger.reasons[0]


def test_session_that_raises_counts_as_failed(mem_workload, ledger):
    real_run_session = mem_workload._run_session

    def bob_fails(role, transport, *args, **kwargs):
        if role == "bob":
            transport.close()
            raise mem_workload.hs.ProtocolError("injected")
        return real_run_session(role, transport, *args, **kwargs)

    mem_workload._run_session = bob_fails
    call = mem_workload._session(0, (2, 3), "plain", 3)
    assert not call.ok and call.wall < workloads.SESSION_TIMEOUT_S
    assert ledger.attempted == 2 and ledger.failed == 1
    assert "injected" in ledger.reasons[0] or "SessionError" in ledger.reasons[0]


def test_hung_session_is_reported_within_the_timeout():
    import threading

    gate = threading.Event()
    results, errors, wall = workloads.run_endpoints(
        [("stuck", lambda: gate.wait(10), None)], timeout=0.2, on_timeout=gate.set
    )
    assert "timeout" in errors and wall < 1.0
