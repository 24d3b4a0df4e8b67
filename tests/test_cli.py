import argparse
import csv
import functools
import io
import json
import math
import shutil
import socket
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import hselab.bases as bases_mod
import hselab.channel as ch
import hselab.cli as cli
from conftest import first_basis_doc, free_port, is_mutually_unbiased
from hselab.bases import named_basis_set, qubit_six_state_set, save_basis_set
from hselab.cli import COMMANDS, NAMED_SETS, build_parser, main
from hselab.errors import SessionError
from hselab.hilbert import TAU_NORM, transition_matrix
from hselab.montecarlo import STAGES
from hselab.rates import bkb01_rates, mub_closed_forms

DATA = Path(__file__).parent / "data"

ROW_KEYS = ["protocol", "d", "c", "method", "r_qb", "r_it", "r_s", "r_t", "r_k", "r_be", "n_s", "note"]
RATE_KEYS = ["r_qb", "r_it", "r_s", "r_t", "r_k", "r_be", "n_s"]


def six_state_doc(d, c) -> bytes:
    """The six-state set's basis-set file with `d` and `c` in its d and c fields."""
    bases = [
        {"label": b.label, "vectors": [[[z.real, z.imag] for z in v.amps.tolist()] for v in b.vectors]}
        for b in qubit_six_state_set().bases
    ]
    return json.dumps({"d": d, "c": c, "bases": bases}).encode()


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

    @pytest.mark.parametrize("eve", ["basis:0", "basis:2", "2"])
    def test_closed_forms_hold_for_eve_in_any_member_basis(self, capsys, eve):
        closed_forms = ["rates", "compute", "--protocol", "hse", "--d", "2", "--c", "3"]
        assert jsonl_row(capsys, *closed_forms, "--eve", eve) == jsonl_row(capsys, *closed_forms)

    @pytest.mark.parametrize("eve", ["breidbart", "none", "basis:3", "basis:", "file:eve.json", "basis:١", "٣", "²"])
    def test_other_eve_without_set_is_a_usage_error(self, capsys, eve):
        code, out, err = run(capsys, "rates", "compute", "--protocol", "hse", "--d", "2", "--c", "3",
                             "--eve", eve)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--set" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags", [("--set", "sixstate"), ("--set", "mub"), ("--eve", "basis:0")])
    def test_bkb01_rejects_set_and_eve(self, capsys, flags):
        code, out, err = run(capsys, "rates", "compute", "--protocol", "bkb01", "--d", "3", "--c", "4",
                             *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--set" in err

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

    @pytest.mark.parametrize("flags", [["--set", "prime", "--d", "7"], ["--set", "qutrit4"]])
    def test_verify_pairs_equal_the_one_pair_oracle(self, capsys, flags):
        # the deviations are rounding noise whose digits depend on the BLAS
        # kernel, so they are checked against the oracle on this machine
        family = named_basis_set(flags[1], 7)
        code, out, _ = run(capsys, "bases", "verify", *flags)
        assert code == 0
        expected = []
        peak = 0.0
        for x in range(family.c):
            for y in range(x + 1, family.c):
                bx, by = family.bases[x], family.bases[y]
                mu = is_mutually_unbiased(bx, by, max(TAU_NORM, 1e-9))
                tag = "MU" if mu.ok else "not MU"
                expected.append(f"pair B{x},B{y}: {tag} (max | |ov|^2 - 1/{family.d} | = {mu.max_dev:.2e})")
                peak = max(peak, float(np.max(transition_matrix(bx, by))))
        expected.append(f"max cross overlap: {math.sqrt(peak):.6f} (distinctness enforced)")
        assert out.splitlines()[family.c :] == expected

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--set", "mub", "--d", "5"], "--set mub needs --d and --c"),
            (["--set", "mub", "--c", "3"], "--set mub needs --d and --c"),
            (["--set", "prime"], "--set prime needs --d"),
            (["--set", "fourier"], "--set fourier needs --d"),
            (["--set", "standard"], "--set standard needs --d"),
            (["--set", "nope"], "unknown basis set spec 'nope'"),
        ],
    )
    def test_a_set_usage_error_names_the_flag(self, capsys, flags, message):
        code, out, err = run(capsys, "bases", "verify", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_a_nan_tolerance_is_a_usage_error(self, capsys):
        # NaN once slipped past the tolerance guard, so every member printed FAIL
        code, out, err = run(capsys, "bases", "verify", "--set", "sixstate", "--tol", "nan")
        assert (code, out, err) == (2, "", "error: tolerance must be positive\n")

    @pytest.mark.parametrize(
        "detail,line",
        [
            (
                "Unable to allocate 14.6 TiB for an array with shape (1000003, 1000003) and data type complex128",
                "error: out of memory: Unable to allocate 14.6 TiB for an array with shape (1000003, 1000003) "
                "and data type complex128\n",
            ),
            ("", "error: out of memory\n"),
        ],
        ids=["numpy-text", "bare"],
    )
    def test_an_allocation_past_memory_is_one_error_line(self, capsys, monkeypatch, detail, line):
        def too_large(d, c):
            raise MemoryError(detail)

        monkeypatch.setattr(bases_mod, "prime_complete_set", too_large)
        code, out, err = run(capsys, "bases", "verify", "--set", "prime", "--d", "1000003")
        assert (code, out, err) == (1, "", line)

    def test_distance_jsonl(self, capsys):
        code, out, _ = run(capsys, "bases", "distance", "--set", "sixstate", "--format", "jsonl")
        assert code == 0
        (line,) = out.splitlines()
        row = json.loads(line)
        assert row["average_to_eve"] is None
        for x in range(3):
            for y in range(3):
                assert row["pairwise"][x][y] == pytest.approx(0.0 if x == y else 0.5, abs=1e-12)

    def test_distance_csv_cells_are_plain_floats(self, capsys):
        argv = ("bases", "distance", "--set", "sixstate", "--eve", "breidbart")
        _, out, _ = run(capsys, *argv, "--format", "jsonl")
        row = json.loads(out)
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        cells = list(csv.DictReader(io.StringIO(out)))
        assert [(c["x"], c["y"]) for c in cells] == [(str(x), str(y)) for x in range(3) for y in range(3)] + [
            ("eve", "avg")
        ]
        expected = [v for line in row["pairwise"] for v in line] + [row["average_to_eve"]]
        assert [float(c["d_squared"]) for c in cells] == expected


class TestUsageErrorLines:
    """Usage errors no other test reaches: each exits 2 with one error line
    and no traceback."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("rates compute --protocol bkb01 --d 3", "bkb01 needs --d and --c"),
            ("rates compute --protocol hse --d 3", "closed forms need --d and --c (or --set)"),
            ("rates compute --protocol hse --set mub --d 3 --c 4 --eve none", "analytic attack rates need an eve basis"),
            ("net eve --listen 0 --forward 127.0.0.1:9 --basis none --d 2 --c 3", "the eve node needs a basis"),
            ("sim --set standard --d 2 --c 2", "simulation needs a basis set"),
            ("bases distance --set standard --d 3", "distance needs a basis set, not a single basis"),
            ("sim --d 4 --c 6", "need 2 <= c <= 5 for d=4, got c = 6"),
            ("rates compute --protocol hse --d 2 --c 1", "need c >= 2 and d >= 2"),
            ("rates compute --protocol bkb01 --d 1 --c 3", "need c >= 2 and d >= 2"),
        ],
    )
    def test_one_error_line(self, capsys, argv, message):
        assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")

    def test_a_session_error_exits_1_with_one_line(self, capsys):
        # nothing listens on a port free_port has just released
        port = free_port()
        code, out, err = run(capsys, "net", "connect", "--role", "alice", "--port", str(port), "--d", "2", "--c", "3")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: SessionError: cannot connect to 127.0.0.1:{port}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_serving_on_a_port_in_use_exits_1_with_one_line(self, capsys):
        with socket.create_server(("127.0.0.1", 0)) as taken:
            port = taken.getsockname()[1]
            code, out, err = run(capsys, "net", "serve", "--role", "bob", "--port", str(port), "--d", "2", "--c", "3")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: SessionError: cannot listen on 127.0.0.1:{port}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_verify_takes_a_single_basis(self, capsys):
        code, out, err = run(capsys, "bases", "verify", "--set", "standard", "--d", "3")
        assert (code, err) == (0, "")
        assert out.startswith("orthonormal standard(3) ok (")


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

    def test_csv_has_unix_line_endings(self, capsys):
        argv = ("sim", "--d", "2", "--c", "3", "--eve", "basis:0", "--trials", "2000")
        _, out, _ = run(capsys, *argv, "--format", "csv")
        assert "\r" not in out
        rows = list(csv.DictReader(io.StringIO(out)))
        _, out, _ = run(capsys, *argv, "--format", "jsonl")
        expected = [json.loads(line) for line in out.splitlines()]
        # a null reads back as an empty cell, and a float as its repr
        assert rows == [{key: "" if row[key] is None else str(row[key]) for key in rows[0]} for row in expected]

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


# argv that argparse rejects: (argv, the bad word its message quotes)
USAGE_ERRORS = [
    (["net", "eve", "--listen", "7118", "--forward", "localhost", *EVE], "'localhost'"),
    (["net", "eve", "--listen", "7118", "--forward", "127.0.0.1:abc", *EVE], "'abc'"),
    (["net", "eve", "--listen", "7118", "--forward", "127.0.0.1:70000", *EVE], "'70000'"),
    (["net", "eve", "--listen", "70000", "--forward", "127.0.0.1:7117", *EVE], "'70000'"),
    (["net", "eve", "--listen", "-1", "--forward", "127.0.0.1:7117", *EVE], "'-1'"),
    (["net", "serve", "--role", "bob", "--port", "70000", "--d", "2", "--c", "3"], "'70000'"),
    (["net", "connect", "--role", "alice", "--port", "70000", "--d", "2", "--c", "3"], "'70000'"),
    (["net", "connect", "--role", "alice", "--port", "1e3", "--d", "2", "--c", "3"], "'1e3'"),
    (["net", "serve", "--role", "bob", "--trials", "-1", "--d", "2", "--c", "3"], "'-1'"),
    (["net", "connect", "--role", "alice", "--trials", "-1", "--d", "2", "--c", "3"], "'-1'"),
    (["net", "serve", "--role", "bob", "--trials", "١٠", "--d", "2", "--c", "3"], "'١٠'"),
    # --d, --c, --seed and sim --trials take ASCII digits only
    (["sim", "--d", "٢", "--c", "3", "--trials", "10"], "'٢'"),
    (["sim", "--d", "2", "--c", "٣", "--trials", "10"], "'٣'"),
    (["sim", "--d", "2", "--c", "3", "--trials", "١٠"], "'١٠'"),
    (["sim", "--d", "2", "--c", "3", "--trials", "10", "--seed", "٧"], "'٧'"),
    (["sim", "--d", "2", "--c", "3", "--trials", "10", "--seed", "-٧"], "'-٧'"),
    (["rates", "compute", "--protocol", "hse", "--d", "٣", "--c", "4"], "'٣'"),
    (["rates", "compute", "--protocol", "hse", "--d", "3", "--c", "٤"], "'٤'"),
    (["bases", "verify", "--set", "mub", "--d", "²", "--c", "3"], "'²'"),
    (["net", "eve", "--listen", "7118", "--forward", "127.0.0.1:7117", *EVE[:4], "--c", "３"], "'３'"),
    (["net", "connect", "--role", "alice", "--d", "2", "--c", "3", "--seed", "٧"], "'٧'"),
    # a sim of no trials has no rates to estimate; net sessions may run none
    (["sim", "--d", "2", "--c", "3", "--trials", "0"], "argument --trials: expected at least 1 trial, got '0'"),
]


class TestAddresses:
    """A bad port, address, size, seed or trial count is a usage error:
    exit 2, no traceback, and no session started."""

    @pytest.mark.parametrize("seed", ["-7", "0", "007", "12345678901234567890"])
    def test_ascii_seeds_parse_as_int_does(self, seed):
        argv = ["sim", "--d", "2", "--c", "3", "--seed", seed]
        assert build_parser().parse_args(argv).seed == int(seed)

    @pytest.mark.parametrize("command", ["serve", "connect"])
    def test_a_session_may_run_no_trials(self, command):
        argv = ["net", command, "--role", "alice", "--trials", "0", "--d", "2", "--c", "3"]
        assert build_parser().parse_args(argv).trials == 0

    @pytest.mark.parametrize("argv,bad", USAGE_ERRORS)
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


# recorded stdout of one command per file, compared byte for byte
GOLDEN = {
    "rates_hse_3_4": ["rates", "compute", "--protocol", "hse", "--d", "3", "--c", "4"],
    "rates_hse_2_5": ["rates", "compute", "--protocol", "hse", "--d", "2", "--c", "5"],
    "rates_kmb09_3": ["rates", "compute", "--protocol", "kmb09", "--d", "3"],
    "rates_bkb01_3_4": ["rates", "compute", "--protocol", "bkb01", "--d", "3", "--c", "4"],
    "rates_prime_5_6": ["rates", "compute", "--protocol", "hse", "--set", "prime", "--d", "5", "--c", "6",
                        "--eve", "basis:2"],
    "distance_sixstate": ["bases", "distance", "--set", "sixstate", "--eve", "breidbart"],
    "sim_3_4": ["sim", "--d", "3", "--c", "4", "--trials", "2000", "--seed", "7"],
    "sim_3_4_eve": ["sim", "--d", "3", "--c", "4", "--trials", "2000", "--seed", "7", "--eve", "basis:0"],
    # (5,6) with Eve at 20k trials: the sampler on a full chunk
    "sim_5_6_eve": ["sim", "--d", "5", "--c", "6", "--trials", "20000", "--seed", "7", "--eve", "basis:0"],
    # the abstract's headline: r_qb 4/7 at (d,c) = (2,3) with three bases
    "sim_2_3_eve": ["sim", "--d", "2", "--c", "3", "--trials", "20000", "--seed", "7", "--eve", "basis:0"],
    # the largest d the sampler is pinned at: inversion over 7 columns
    "sim_7_8": ["sim", "--d", "7", "--c", "8", "--trials", "20000", "--seed", "7"],
}
SUFFIX = {"table": "txt", "csv": "csv", "jsonl": "jsonl"}


class TestGoldenOutput:
    # the sim table prints wall-clock stage timings, so only its machine formats are recorded
    @pytest.mark.parametrize(
        "name,fmt",
        [(name, fmt) for name in GOLDEN for fmt in SUFFIX if not (name.startswith("sim") and fmt == "table")],
    )
    def test_stdout_is_stable(self, capsys, name, fmt):
        code, out, _ = run(capsys, *GOLDEN[name], "--format", fmt)
        assert code == 0
        assert out.encode() == (DATA / f"{name}.{SUFFIX[fmt]}").read_bytes()


def parser_words(parser, words=()):
    """The words that reach each parser of the tree under `parser`, itself
    first; `parser` is a whole tree, in which every name has a parser."""
    yield words
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from parser_words(child, (*words, name))


PARSER_WORDS = list(parser_words(build_parser()))


class TestParserWidth:
    """Left to itself, argparse reads the terminal width for every argument
    and subcommand group a parser adds; build_parser reads it once and gives
    every parser of the tree that width.  The help texts were recorded
    before that change, under Python 3.11."""

    def test_the_tree_has_thirteen_parsers(self):
        assert len(PARSER_WORDS) == len(set(PARSER_WORDS)) == 13

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_build_parser_reads_the_terminal_once(self, monkeypatch, command):
        """The whole tree, or one command's parser alone."""
        calls = []
        read = shutil.get_terminal_size

        def counted(*args, **kwargs):
            calls.append(args)
            return read(*args, **kwargs)

        monkeypatch.setattr(shutil, "get_terminal_size", counted)
        build_parser(command)
        assert len(calls) == 1

    @pytest.mark.parametrize("columns", [80, 160])
    @pytest.mark.parametrize("words", PARSER_WORDS, ids=lambda words: " ".join(("hselab", *words)))
    def test_help_is_stable(self, capsys, monkeypatch, words, columns):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit) as done:
            main([*words, "-h"])
        out, err = capsys.readouterr()
        assert done.value.code == 0 and err == ""
        name = "_".join(("hselab", *words))
        assert out.encode() == (DATA / "help" / f"{name}_{columns}.txt").read_bytes()


def parsed(capsys, parse, argv):
    """What parse(argv) gives, the Namespace or the exit code, with the
    text it printed."""
    try:
        result = parse(argv)
    except SystemExit as done:
        result = done.code
    return result, *capsys.readouterr()


# argv whose first word names a command: every parser's help, every golden
# command and every usage error above, and errors argparse finds at each depth
COMMAND_ARGV = [
    *([*words, "-h"] for words in PARSER_WORDS if words),
    *GOLDEN.values(),
    *(argv for argv, _ in USAGE_ERRORS),
    ["sim"],
    ["rates"],
    ["rates", "nope"],
    ["bases", "verify"],
    ["net", "eve", "--listen", "1"],
    # abbreviated options, and values after '='
    ["sim", "--d=2", "--c", "3", "--tri", "10"],
    ["rates", "compute", "--prot=hse", "--d", "3", "--c=4", "--form", "csv"],
    ["net", "serve", "--ro", "bob", "--d=2", "--c", "3", "--no-comp", "--trials", "0"],
    ["sim", "--he"],
    # words the command leaves over, at each depth: the top-level parser
    # reports them, with its own usage line
    ["sim", "--d", "2", "--c", "3", "--bogus"],
    ["sim", "--d", "2", "--c", "3", "extra"],
    ["rates", "compute", "--protocol", "hse", "--bogus"],
    ["rates", "compute", "--protocol", "hse", "--d", "3", "--c", "4", "extra"],
    ["bases", "list", "extra"],
    ["net", "serve", "--role", "bob", "--d", "2", "--c", "3", "extra"],
    ["net", "eve", "--listen", "1", "--forward", ":2", *EVE, "extra"],
]


class TestOneCommandParser:
    """main parses a command with that command's parser alone, and builds
    the whole tree only when words are left over or no command is named;
    for any argv it gives what the whole tree gives: the same Namespace, or
    the same exit code, help and usage error."""

    @pytest.mark.parametrize(
        "argv,code,built",
        [
            (["sim", "--d", "2", "--c", "3", "--trials", "10"], 0, 1),
            (["rates", "compute", "--protocol", "hse", "--d", "2", "--c", "3"], 0, 3),
            (["bases", "verify", "--set", "sixstate"], 0, 4),
            # a usage error found after parsing, so that no session starts
            (["net", "serve", "--role", "bob", "--d", "2", "--c", "3", "--set", "standard"], 2, 4),
            (["-h"], 0, 13),
            # a word left over: the command's parser, then the whole tree
            (["sim", "--d", "2", "--c", "3", "--bogus"], 2, 1 + 13),
            (["rates", "compute", "--protocol", "hse", "--bogus"], 2, 3 + 13),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_parsers_built_per_call(self, capsys, monkeypatch, argv, code, built):
        init, made = argparse.ArgumentParser.__init__, []

        def counted(parser, *args, **kwargs):
            made.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        try:
            result = main(argv)
        except SystemExit as done:
            result = done.code
        capsys.readouterr()
        assert (result, len(made)) == (code, built)

    @pytest.mark.parametrize("argv", COMMAND_ARGV, ids=" ".join)
    def test_equals_the_whole_tree(self, capsys, monkeypatch, argv):
        # each command hands main the Namespace it was given, and runs nothing
        namespaces = []
        for name in ("cmd_bases", "cmd_rates", "cmd_sim", "cmd_net"):
            monkeypatch.setattr(cli, name, namespaces.append)

        def by_main(argv):
            assert main(argv) is None
            return namespaces.pop()

        assert parsed(capsys, by_main, argv) == parsed(capsys, build_parser().parse_args, argv)

    @pytest.mark.parametrize("words", [(), ("sim",)], ids=lambda words: " ".join(("hselab", *words)))
    def test_main_reads_sys_argv(self, capsys, monkeypatch, words):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(sys, "argv", ["hselab", *words, "-h"])
        with pytest.raises(SystemExit) as done:
            main()
        out, err = capsys.readouterr()
        assert done.value.code == 0 and err == ""
        assert out.encode() == (DATA / "help" / f"{'_'.join(('hselab', *words))}_80.txt").read_bytes()


class TestEveDimension:
    """An Eve basis whose dimension is not the set's is a usage error that
    names the flag and both dimensions, whichever command reads it."""

    @pytest.mark.parametrize("spec", ["breidbart", "file:{path}#1"], ids=["breidbart", "file"])
    @pytest.mark.parametrize(
        "command,flag",
        [
            (["sim", "--d", "3", "--c", "4", "--trials", "10"], "--eve"),
            (["bases", "distance", "--set", "mub", "--d", "3", "--c", "4"], "--eve"),
            (["rates", "compute", "--protocol", "hse", "--set", "mub", "--d", "3", "--c", "4"], "--eve"),
            (["net", "eve", "--listen", "0", "--forward", "127.0.0.1:1", "--d", "3", "--c", "4"], "--basis"),
        ],
        ids=["sim", "distance", "rates", "net-eve"],
    )
    def test_is_a_usage_error(self, capsys, monkeypatch, tmp_path, command, flag, spec):
        path = tmp_path / "six.json"
        save_basis_set(qubit_six_state_set(), path)
        spec = spec.format(path=path)

        def relay(*args):
            raise AssertionError("the relay started")

        monkeypatch.setattr(ch, "run_mitm", relay)
        code, out, err = run(capsys, *command, flag, spec)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} {spec!r} is a basis of d=2, but the basis set has d=3\n"


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

    # an index in digits other than ASCII: "#²" once crashed with a
    # traceback, and "#١" was read as 1; int() refuses more than 4300 digits
    @pytest.mark.parametrize(
        "spec",
        ["file:{path}#²", "file:{path}#١", "basis:١", "٣", pytest.param("file:{path}#" + "1" * 5000, id="5000-digits")],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["sim", "--d", "2", "--c", "3", "--trials", "10"],
            ["bases", "distance", "--set", "sixstate"],
            ["rates", "compute", "--protocol", "hse", "--set", "sixstate"],
            ["rates", "compute", "--protocol", "hse", "--d", "2", "--c", "3"],
        ],
        ids=["sim", "distance", "rates-set", "rates-closed-forms"],
    )
    def test_bad_eve_index_is_a_usage_error(self, capsys, tmp_path, command, spec):
        path = tmp_path / "six.json"
        save_basis_set(qubit_six_state_set(), path)
        spec = spec.format(path=path)
        code, out, err = run(capsys, *command, "--eve", spec)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and spec in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "doc",
        [
            b'\xff\xfe{"d": 2, "c": 2, "bases": []}',  # not UTF-8
            b'{"d": "x", "c": 2, "bases": []}',
            b'{"d": 1e400, "c": 2, "bases": []}',  # d parses as inf
            b'{"d": 2, "c": 2, "bases": 5}',
            b'{"d": 2, "c": 2, "bases": [{"label": "a", "vectors": 7}, {"label": "b", "vectors": 7}]}',
            b'{"d": 2, "c": 2, "bases": [[1, 0], [0, 1]]}',  # a basis that is a list
            six_state_doc(2.9, 3.5),  # the six-state set, but d and c are not integers
            six_state_doc(2, "3"),
            six_state_doc(2.0, 3),
            b"[]",
            b'{"d": 2, "c": 2}',
            first_basis_doc([[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]),
            first_basis_doc([[[1, 0]], [[0, 0]]]),
            first_basis_doc([[[1, 0], [0, 0]], [[1, 0]]]),
            # the standard basis written with booleans, and a basis unbiased to it
            first_basis_doc(
                [[[True, False], [False, False]], [[False, False], [True, False]]],
                second=[[[0.5, 0.5], [0.5, -0.5]], [[0.5, -0.5], [0.5, 0.5]]],
            ),
        ],
        ids=[
            "non-utf8", "d-not-a-number", "d-overflows", "bases-not-a-list", "vectors-not-a-list", "basis-is-a-list",
            "d-c-fractional", "c-a-string", "d-a-float", "top-level-list", "no-bases", "pair-of-three",
            "vectors-one-short", "ragged-vectors", "boolean-amplitudes",
        ],
    )
    @pytest.mark.parametrize("flag", ["--set", "--eve"])
    def test_malformed_file_is_a_usage_error(self, capsys, tmp_path, flag, doc):
        path = tmp_path / "bad.json"
        path.write_bytes(doc)
        if flag == "--set":
            argv = ["rates", "compute", "--protocol", "hse", "--set", f"file:{path}"]
        else:
            argv = ["sim", "--d", "2", "--c", "3", "--trials", "10", "--eve", f"file:{path}"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

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

    def test_machine_formats_for_both_roles(self, monkeypatch):
        port = str(free_port())
        results = run_net(
            monkeypatch,
            [
                ("bob", ["net", "serve", "--role", "bob", "--port", port, *SESSION, "--format", "csv"]),
                ("alice", ["net", "connect", "--role", "alice", "--port", port, *SESSION, "--format", "jsonl"]),
            ],
        )
        code, out, err = results["bob"]
        assert code == 0, err
        assert "\r" not in out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["metric"] for row in rows] == ["r_s", "r_qb", "r_it"]
        assert rows[0]["protocol"] == "hse" and float(rows[0]["empirical"]) > 0
        code, out, err = results["alice"]
        assert code == 0, err
        (line,) = out.splitlines()
        summary = json.loads(line)
        assert list(summary) == ["trials", "key_letters", "messages_sent"]
        assert summary["trials"] == 300 and summary["messages_sent"] > 300
        assert 0 < summary["key_letters"] <= 300

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
