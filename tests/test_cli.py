import functools
import json
import sys
import threading
import time
from pathlib import Path

import pytest

import hselab.channel as ch
from conftest import free_port
from hselab.bases import qubit_six_state_set, save_basis_set
from hselab.cli import NAMED_SETS, main
from hselab.errors import SessionError
from hselab.montecarlo import STAGES
from hselab.rates import bkb01_rates, mub_closed_forms

DATA = Path(__file__).parent / "data"

ROW_KEYS = ["protocol", "d", "c", "method", "r_qb", "r_it", "r_s", "r_t", "r_k", "r_be", "n_s", "note"]
RATE_KEYS = ["r_qb", "r_it", "r_s", "r_t", "r_k", "r_be", "n_s"]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def jsonl_row(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "jsonl")
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert list(row) == ROW_KEYS
    return row


class TestRatesCompute:
    @pytest.mark.parametrize("d,c", [(3, 4), (7, 8), (11, 10)])
    def test_explicit_set_matches_closed_forms(self, capsys, d, c):
        row = jsonl_row(
            capsys, "rates", "compute", "--protocol", "hse", "--set", "prime", "--d", str(d), "--c", str(c)
        )
        forms = mub_closed_forms(c, d)
        assert (row["protocol"], row["d"], row["c"], row["method"]) == ("hse", d, c, "enumeration")
        for key in RATE_KEYS:
            assert row[key] == pytest.approx(getattr(forms, key), abs=1e-12, rel=1e-12)

    def test_closed_forms(self, capsys):
        row = jsonl_row(capsys, "rates", "compute", "--protocol", "hse", "--d", "3", "--c", "4")
        forms = mub_closed_forms(4, 3)
        assert row["method"] == "closed_form_mub" and row["note"] == ""
        for key in RATE_KEYS:
            assert row[key] == getattr(forms, key)

    def test_closed_forms_flag_impossible_sets(self, capsys):
        row = jsonl_row(capsys, "rates", "compute", "--protocol", "hse", "--d", "2", "--c", "5")
        assert row["note"] == "c exceeds d+1: no such MU set exists"
        code, out, _ = run(capsys, "rates", "compute", "--protocol", "hse", "--d", "2", "--c", "5")
        assert code == 0
        assert out.splitlines()[0] == "hse (d=2, c=5) via closed_form_mub"
        assert out.splitlines()[-1] == "  note: c exceeds d+1: no such MU set exists"

    def test_kmb09_defaults_to_two_bases(self, capsys):
        row = jsonl_row(capsys, "rates", "compute", "--protocol", "kmb09", "--d", "3")
        assert (row["protocol"], row["c"]) == ("kmb09", 2)
        assert row["r_qb"] == mub_closed_forms(2, 3).r_qb

    def test_bkb01(self, capsys):
        row = jsonl_row(capsys, "rates", "compute", "--protocol", "bkb01", "--d", "3", "--c", "4")
        forms = bkb01_rates(4, 3)
        assert (row["protocol"], row["method"]) == ("bkb01", "closed_form_mub")
        assert (row["r_qb"], row["r_t"], row["n_s"]) == (forms.r_qb, forms.r_t, forms.n_s)
        assert row["r_it"] is row["r_s"] is row["r_k"] is row["r_be"] is None

    def test_bkb01_csv(self, capsys):
        code, out, _ = run(
            capsys, "rates", "compute", "--protocol", "bkb01", "--d", "2", "--c", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == [
            "protocol,d,c,method,r_qb,r_it,r_s,r_t,r_k,r_be,n_s",
            "bkb01,2,2,closed_form_mub,0.25,,,0.5,,,2.0",
        ]

    def test_kmb09_rejects_more_than_two_bases(self, capsys):
        code, out, err = run(capsys, "rates", "compute", "--protocol", "kmb09", "--d", "2", "--c", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: ")


class TestBases:
    def test_list_names_every_set(self, capsys):
        code, out, _ = run(capsys, "bases", "list")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == list(NAMED_SETS)

    def test_verify_sixstate(self, capsys):
        code, out, _ = run(capsys, "bases", "verify", "--set", "sixstate")
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[:2] for line in lines[:3]] == [["orthonormal", f"B{x}"] for x in range(3)]
        assert all(line.split()[2] == "ok" for line in lines[:3])
        assert [line.split(" (")[0] for line in lines[3:6]] == [
            "pair B0,B1: MU",
            "pair B0,B2: MU",
            "pair B1,B2: MU",
        ]

    def test_distance_jsonl(self, capsys):
        code, out, _ = run(capsys, "bases", "distance", "--set", "sixstate", "--format", "jsonl")
        assert code == 0
        (line,) = out.splitlines()
        row = json.loads(line)
        assert row["average_to_eve"] is None
        for x in range(3):
            for y in range(3):
                assert row["pairwise"][x][y] == pytest.approx(0.0 if x == y else 0.5, abs=1e-12)


class TestSim:
    def test_attacked_sixstate_jsonl(self, capsys):
        code, out, err = run(capsys, "sim", "--d", "2", "--c", "3", "--eve", "basis:0", "--format", "jsonl")
        assert code == 0, err
        rows = [json.loads(line) for line in out.splitlines()]
        assert [row["metric"] for row in rows] == ["r_s", "r_qb", "r_it"]
        forms = mub_closed_forms(3, 2)
        # under attack a trial survives sifting at the key rate r_k
        expected = {"r_s": forms.r_k, "r_qb": forms.r_qb, "r_it": forms.r_it}
        for row in rows:
            assert (row["protocol"], row["d"], row["c"]) == ("hse", 2, 3)
            assert row["analytic"] == pytest.approx(expected[row["metric"]], abs=1e-12, rel=1e-12)
            assert abs(row["z"]) <= 4

    # sampled fields of default (mub) runs: seeded draws must never drift
    PINNED = {
        ("2", "3", "none"): [
            ("r_s", 0.084, 0.005064385451365249, 3000),
            ("r_qb", 0.0, 0.0, 252),
            ("r_it", 0.0, 0.0, 1999),
        ],
        ("5", "6", "basis:0"): [
            ("r_s", 0.29133333333333333, 0.008295746344206012, 3000),
            ("r_qb", 0.8100686498855835, 0.013267940764338999, 874),
            ("r_it", 0.687007874015748, 0.009200908356734119, 2540),
        ],
        ("7", "8", "basis:0"): [
            ("r_s", 0.30233333333333334, 0.008385063881467826, 3000),
            ("r_qb", 0.8665931642778391, 0.011289976230745851, 907),
            ("r_it", 0.753062787136294, 0.008437664995081466, 2612),
        ],
    }

    @pytest.mark.parametrize("d,c,eve", list(PINNED))
    def test_default_set_runs_are_pinned(self, capsys, d, c, eve):
        code, out, err = run(
            capsys, "sim", "--d", d, "--c", c, "--eve", eve, "--trials", "3000", "--seed", "3", "--format", "jsonl"
        )
        assert code == 0, err
        rows = [json.loads(line) for line in out.splitlines()]
        assert [(r["metric"], r["empirical"], r["stderr"], r["n"]) for r in rows] == self.PINNED[(d, c, eve)]

    def test_table_header_names_the_stages(self, capsys):
        code, out, _ = run(capsys, "sim", "--d", "2", "--c", "3", "--trials", "1000")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("hse d=2 c=3 eve=none trials=1000 seed=1 (")
        assert [part.split()[0] for part in header.split(": ", 1)[1].split(", ")] == list(STAGES)

    @pytest.mark.parametrize(
        "flags",
        [
            ("--d", "5", "--c", "3", "--set", "sixstate"),
            ("--d", "2", "--c", "3", "--set", "fourier"),
        ],
    )
    def test_named_set_must_match_the_flags(self, capsys, flags):
        code, out, err = run(capsys, "sim", *flags, "--trials", "10")
        assert code == 2 and out == ""
        assert err.startswith("error: --set ") and "Traceback" not in err


class TestSetSizeFlags:
    """A named set whose (d, c) differ from --d or --c is a usage error in
    every command that runs at that size."""

    @pytest.mark.parametrize(
        "argv,given",
        [
            (("--protocol", "hse", "--set", "sixstate", "--d", "3"), "--d 3"),
            # kmb09 is the two-basis case, so it implies --c 2
            (("--protocol", "kmb09", "--set", "sixstate"), "--c 2"),
        ],
    )
    def test_rates_compute(self, capsys, argv, given):
        code, out, err = run(capsys, "rates", "compute", *argv)
        assert code == 2 and out == ""
        assert err == f"error: --set sixstate has d=2, c=3, not {given}\n"

    def test_rates_compute_without_size_flags_takes_the_set(self, capsys):
        row = jsonl_row(capsys, "rates", "compute", "--protocol", "hse", "--set", "qutrit4")
        assert (row["d"], row["c"]) == (3, 4)

    # the check runs before any socket is opened
    @pytest.mark.parametrize(
        "argv",
        [
            ["net", "serve", "--role", "bob", "--d", "3", "--c", "2", "--set", "qutrit4", "--port", "{port}"],
            ["net", "connect", "--role", "alice", "--d", "2", "--c", "2", "--set", "sixstate", "--port", "{port}"],
            ["net", "eve", "--listen", "{port}", "--forward", "127.0.0.1:{port}", "--basis", "basis:0",
             "--d", "3", "--c", "3", "--set", "sixstate"],
        ],
    )
    def test_net(self, capsys, argv):
        port = free_port()
        code, out, err = run(capsys, *(arg.format(port=port) for arg in argv))
        assert code == 2 and out == ""
        assert err.startswith("error: --set ") and "Traceback" not in err


EVE = ["--basis", "basis:0", "--d", "2", "--c", "3", "--set", "sixstate"]


class TestAddresses:
    """A bad port or address is a usage error: exit 2, no traceback, and
    no session started."""

    @pytest.mark.parametrize(
        "argv,bad",
        [
            (["net", "eve", "--listen", "7118", "--forward", "localhost", *EVE], "'localhost'"),
            (["net", "eve", "--listen", "7118", "--forward", "127.0.0.1:abc", *EVE], "'abc'"),
            (["net", "eve", "--listen", "7118", "--forward", "127.0.0.1:70000", *EVE], "'70000'"),
            (["net", "eve", "--listen", "70000", "--forward", "127.0.0.1:7117", *EVE], "'70000'"),
            (["net", "eve", "--listen", "-1", "--forward", "127.0.0.1:7117", *EVE], "'-1'"),
            (["net", "serve", "--role", "bob", "--port", "70000", "--d", "2", "--c", "3"], "'70000'"),
            (["net", "connect", "--role", "alice", "--port", "70000", "--d", "2", "--c", "3"], "'70000'"),
            (["net", "connect", "--role", "alice", "--port", "1e3", "--d", "2", "--c", "3"], "'1e3'"),
        ],
    )
    def test_usage_error(self, capsys, monkeypatch, argv, bad):
        def no_session(*args, **kwargs):
            raise AssertionError("a session was started")

        for name in ("run_mitm", "serve_session", "connect_session"):
            monkeypatch.setattr(ch, name, no_session)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert bad in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "forward,address",
        [("127.0.0.1:7117", ("127.0.0.1", 7117)), (":0", ("127.0.0.1", 0)), ("host:65535", ("host", 65535))],
    )
    def test_forward_is_parsed_before_the_relay_starts(self, capsys, monkeypatch, forward, address):
        seen = []

        def fake_mitm(listen, forward, eve_basis, seed):
            seen.append((listen, forward))
            return ch.MitmLog()

        monkeypatch.setattr(ch, "run_mitm", fake_mitm)
        code, out, _ = run(capsys, "net", "eve", "--listen", "7118", "--forward", forward, *EVE)
        assert code == 0 and out == "intercepted 0 states\n"
        assert seen == [(("127.0.0.1", 7118), address)]


class TestTable1:
    @pytest.mark.parametrize("fmt,name", [("jsonl", "table1.jsonl"), ("csv", "table1.csv"), ("table", "table1.txt")])
    def test_output_is_stable(self, capsys, fmt, name):
        code, out, _ = run(capsys, "rates", "table1", "--format", fmt)
        assert code == 0
        assert out == (DATA / name).read_text(encoding="utf-8")


class TestFileSpecs:
    def test_missing_eve_file_is_a_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out, err = run(capsys, "sim", "--d", "2", "--c", "3", "--trials", "10", "--eve", f"file:{missing}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_set_file_is_a_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out, err = run(capsys, "rates", "compute", "--protocol", "hse", "--set", f"file:{missing}")
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_non_integer_eve_index_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "six.json"
        save_basis_set(qubit_six_state_set(), path)
        code, out, err = run(capsys, "sim", "--d", "2", "--c", "3", "--trials", "10", "--eve", f"file:{path}#abc")
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_eve_file_with_index(self, capsys, tmp_path):
        path = tmp_path / "six.json"
        save_basis_set(qubit_six_state_set(), path)
        code, out, err = run(
            capsys, "sim", "--d", "2", "--c", "3", "--trials", "2000", "--eve", f"file:{path}#1", "--format", "jsonl"
        )
        assert code == 0, err
        rows = [json.loads(line) for line in out.splitlines()]
        assert {r["metric"] for r in rows} == {"r_s", "r_qb", "r_it"}


class ThreadOutput:
    """A sys.stdout / sys.stderr stand-in that keeps each thread's text
    apart, so that endpoints printing at the same time do not interleave."""

    def __init__(self):
        self._text = {}
        self._lock = threading.Lock()

    def write(self, text):
        name = threading.current_thread().name
        with self._lock:
            self._text[name] = self._text.get(name, "") + text
        return len(text)

    def flush(self):
        pass

    def of(self, name):
        return self._text.get(name, "")


def run_net(monkeypatch, parties):
    """Run `hselab net` commands at once, one thread per (name, argv) and
    in order; each starts once the one before listens (bob's listener is
    awaited, alice dials until her peer accepts).  Returns, per name, the
    exit code, stdout and stderr."""
    out, err = ThreadOutput(), ThreadOutput()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    listening = threading.Event()
    monkeypatch.setattr(ch, "serve_session", functools.partial(ch.serve_session, ready_event=listening))
    connect = ch.connect_session

    def dial(*args, **kwargs):
        for _ in range(100):
            try:
                return connect(*args, **kwargs)
            except SessionError as exc:
                if not isinstance(exc.__cause__, ConnectionRefusedError):
                    raise
                time.sleep(0.05)
        raise AssertionError("peer never came up")

    monkeypatch.setattr(ch, "connect_session", dial)
    codes = {}

    def party(name, argv):
        codes[name] = main(argv)

    threads = []
    for name, argv in parties:
        thread = threading.Thread(target=party, args=(name, argv), name=name)
        thread.start()
        threads.append(thread)
        if name == "bob":
            assert listening.wait(10.0)
    for thread in threads:
        thread.join(30.0)
        assert not thread.is_alive()
    return {name: (codes[name], out.of(name), err.of(name)) for name, _ in parties}


SESSION = ["--d", "2", "--c", "3", "--set", "sixstate", "--trials", "300", "--seed", "5"]


def bob_rows(stdout):
    return {row["metric"]: row for row in map(json.loads, stdout.splitlines())}


class TestNet:
    def test_serve_bob_connect_alice(self, monkeypatch):
        port = str(free_port())
        results = run_net(
            monkeypatch,
            [
                ("bob", ["net", "serve", "--role", "bob", "--port", port, *SESSION, "--format", "jsonl"]),
                ("alice", ["net", "connect", "--role", "alice", "--port", port, *SESSION]),
            ],
        )
        code, out, err = results["bob"]
        assert code == 0, err
        rows = bob_rows(out)
        assert list(rows) == ["r_s", "r_qb", "r_it"]
        assert all(row["n"] > 0 and abs(row["z"]) <= 4 for row in rows.values())
        assert rows["r_s"]["n"] == 300
        code, out, err = results["alice"]
        assert code == 0, err
        assert out.startswith("alice: 300 trials, ")

    def test_no_compare_leaves_error_rates_without_samples(self, monkeypatch):
        port = str(free_port())
        results = run_net(
            monkeypatch,
            [
                ("bob", ["net", "serve", "--role", "bob", "--port", port, *SESSION, "--format", "jsonl"]),
                ("alice", ["net", "connect", "--role", "alice", "--port", port, *SESSION, "--no-compare"]),
            ],
        )
        code, out, err = results["bob"]
        assert code == 0, err
        rows = bob_rows(out)
        assert rows["r_s"]["n"] == 300 and rows["r_s"]["empirical"] is not None
        for metric in ("r_qb", "r_it"):
            assert (rows[metric]["n"], rows[metric]["empirical"], rows[metric]["z"]) == (0, None, None)
        assert results["alice"][0] == 0

    def test_eavesdropper_is_detected(self, monkeypatch):
        bob_port, relay_port = str(free_port()), str(free_port())
        results = run_net(
            monkeypatch,
            [
                ("bob", ["net", "serve", "--role", "bob", "--port", bob_port, *SESSION, "--format", "jsonl"]),
                (
                    "eve",
                    [
                        "net", "eve", "--listen", relay_port, "--forward", f"127.0.0.1:{bob_port}",
                        "--basis", "basis:0", "--d", "2", "--c", "3", "--set", "sixstate", "--seed", "5",
                    ],
                ),
                ("alice", ["net", "connect", "--role", "alice", "--port", relay_port, *SESSION]),
            ],
        )
        code, out, err = results["eve"]
        assert code == 0, err
        assert out == f"intercepted {2 * 300} states\n"
        assert results["alice"][0] == 0
        code, out, err = results["bob"]
        assert code == 1, err
        assert bob_rows(out)["r_qb"]["z"] > 4
