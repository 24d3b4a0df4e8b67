"""Command-line interface: basis tools, rate tables, simulations, wire sessions.

Exit codes: 0 success, 1 check or session failure, 2 usage error.  Every
command is deterministic given --seed; machine formats (csv, jsonl) carry
full precision while table output follows the display rounding rules.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import bases as bases_mod
from . import channel, montecarlo, rates
from .errors import HselabError, InvalidParameter
from .hilbert import TAU_NORM, Basis, verify_orthonormal
from .rates import ProtocolConfig, display_ns, display_percent

FORMATS = ("table", "csv", "jsonl")

NAMED_SETS = {
    "qutrit4": "complete set of 4 MU qutrit bases (d=3, c=4)",
    "sixstate": "three MU qubit bases (d=2, c=3)",
    "fourier": "standard + Fourier pair (any d, c=2)",
    "prime": "quadratic-phase complete set (odd prime d, c<=d+1)",
    "mub": "best-known MU family for (d, c)",
    "standard": "single computational basis (verify only)",
    "file:<path>": "basis set from a JSON file",
}


def resolve_set(spec: str, d: int | None, c: int | None):
    """Turn a --set spec into a BasisSet (or a lone Basis for 'standard')."""
    if spec.startswith("file:"):
        return bases_mod.load_basis_set(spec[5:])
    if spec == "standard":
        if d is None:
            raise InvalidParameter("--set standard needs --d")
        return bases_mod.standard_basis(d)
    if spec == "fourier":
        if d is None:
            raise InvalidParameter("--set fourier needs --d")
        return bases_mod.BasisSet([bases_mod.standard_basis(d), bases_mod.fourier_basis(d)])
    if spec == "qutrit4":
        return bases_mod.qutrit_complete_set()
    if spec == "sixstate":
        return bases_mod.qubit_six_state_set()
    if spec == "prime":
        if d is None:
            raise InvalidParameter("--set prime needs --d")
        return bases_mod.prime_complete_set(d, c if c is not None else d + 1)
    if spec == "mub":
        if d is None or c is None:
            raise InvalidParameter("--set mub needs --d and --c")
        return bases_mod.mu_basis_set(d, c)
    raise InvalidParameter(f"unknown basis set spec {spec!r}")


def resolve_sized_set(spec: str, d: int | None, c: int | None, purpose: str) -> bases_mod.BasisSet:
    """resolve_set for a command that runs at --d and --c: a BasisSet
    whose size equals each flag that is given, so that a named or loaded
    set never silently overrides the flags."""
    basis_set = resolve_set(spec, d, c)
    if not isinstance(basis_set, bases_mod.BasisSet):
        raise InvalidParameter(f"{purpose} needs a basis set")
    flags = [(name, want) for name, want in (("d", d), ("c", c)) if want is not None]
    if any(getattr(basis_set, name) != want for name, want in flags):
        given = " ".join(f"--{name} {want}" for name, want in flags)
        raise InvalidParameter(f"--set {spec} has d={basis_set.d}, c={basis_set.c}, not {given}")
    return basis_set


def resolve_eve(spec: str, basis_set) -> Basis | None:
    """Turn an --eve spec (none | basis:<x> | breidbart | file:<path>[#k])
    into a Basis."""
    if spec == "none":
        return None
    if spec == "breidbart":
        return bases_mod.breidbart_basis()
    if spec.startswith("basis:") or spec.isdigit():
        try:
            idx = int(spec) if spec.isdigit() else int(spec.split(":", 1)[1])
        except ValueError:
            raise InvalidParameter(f"bad eve basis index in {spec!r}") from None
        if basis_set is None or not hasattr(basis_set, "bases"):
            raise InvalidParameter("--eve basis:<x> needs a basis set")
        if not 0 <= idx < basis_set.c:
            raise InvalidParameter(f"eve basis index {idx} outside 0..{basis_set.c - 1}")
        return basis_set.bases[idx]
    if spec.startswith("file:"):
        path, _, idx_txt = spec[5:].partition("#")
        loaded = bases_mod.load_basis_set(path)
        if idx_txt and not idx_txt.isdigit():
            raise InvalidParameter(f"bad eve basis index in {spec!r}")
        idx = int(idx_txt) if idx_txt else 0
        if not 0 <= idx < loaded.c:
            raise InvalidParameter(f"eve basis index {idx} outside 0..{loaded.c - 1}")
        return loaded.bases[idx]
    raise InvalidParameter(f"unknown eve spec {spec!r}")


def cmd_bases(args) -> int:
    if args.bases_cmd == "list":
        for name, blurb in NAMED_SETS.items():
            print(f"{name:12s} {blurb}")
        return 0

    target = resolve_set(args.set, args.d, args.c)
    if args.bases_cmd == "verify":
        return _bases_verify(target, args.tol)
    if args.bases_cmd == "distance":
        if not isinstance(target, bases_mod.BasisSet):
            raise InvalidParameter("distance needs a basis set, not a single basis")
        eve = resolve_eve(args.eve, target) if args.eve is not None else None
        report = bases_mod.distance_report(target, eve)
        if args.format == "jsonl":
            print(json.dumps({"pairwise": report.pairwise.tolist(), "average_to_eve": report.average_to_eve}))
        elif args.format == "csv":
            print("x,y,d_squared")
            for x in range(target.c):
                for y in range(target.c):
                    print(f"{x},{y},{report.pairwise[x, y]!r}")
            if report.average_to_eve is not None:
                print(f"eve,avg,{report.average_to_eve!r}")
        else:
            print("pairwise D^2:")
            for row in report.pairwise:
                print("  " + "  ".join(f"{v:7.4f}" for v in row))
            if report.average_to_eve is not None:
                print(f"average D^2 to eve: {report.average_to_eve:.6f}")
        return 0
    raise InvalidParameter(f"unknown bases subcommand {args.bases_cmd!r}")


def _bases_verify(target, tol: float) -> int:
    members = target.bases if isinstance(target, bases_mod.BasisSet) else [target]
    all_ok = True
    for member in members:
        report = verify_orthonormal(member, tol)
        all_ok &= report.ok
        print(f"orthonormal {member.label:10s} {'ok' if report.ok else 'FAIL'} (max dev {report.max_deviation:.2e})")
    if isinstance(target, bases_mod.BasisSet):
        d = target.d
        for x in range(target.c):
            for y in range(x + 1, target.c):
                mu = bases_mod.is_mutually_unbiased(target.bases[x], target.bases[y], tol=max(tol, 1e-9))
                tag = "MU" if mu.ok else "not MU"
                print(f"pair B{x},B{y}: {tag} (max | |ov|^2 - 1/{d} | = {mu.max_dev:.2e})")
        print(f"max cross overlap: {bases_mod.max_cross_overlap(target):.6f} (distinctness enforced)")
    return 0 if all_ok else 1


def format_table1(rows, fmt: str) -> str:
    if fmt == "jsonl":
        return "\n".join(json.dumps(dataclasses.asdict(r)) for r in rows)
    if fmt == "csv":
        lines = ["protocol,d,c,r_qb,r_it,r_t,n_s"]
        for r in rows:
            cells = [r.protocol, str(r.d), str(r.c)]
            for q in (r.r_qb, r.r_it, r.r_t, r.n_s):
                cells.append("" if q is None else repr(q))
            lines.append(",".join(cells))
        return "\n".join(lines)
    header = f"{'Protocol':16s} {'(d,c)':7s} {'R_QB':>7s} {'R_IT':>7s} {'R_t':>7s} {'N_s':>6s}"
    lines = [header, "-" * len(header)]
    notes = []
    for r in rows:
        mark = ""
        if r.note:
            notes.append(r.note)
            mark = f" [{len(notes)}]"
        lines.append(
            f"{r.protocol:16s} ({r.d},{r.c})  "
            f"{display_percent(r.r_qb):>7s} "
            f"{display_percent(r.r_it):>7s} "
            f"{display_percent(r.r_t):>7s} "
            f"{display_ns(r.n_s):>6s}{mark}"
        )
    for i, note in enumerate(notes, 1):
        lines.append(f"[{i}] {note}")
    return "\n".join(lines)


def cmd_rates(args) -> int:
    if args.rates_cmd == "table1":
        print(format_table1(rates.table1(), args.format))
        return 0
    if args.rates_cmd != "compute":
        raise InvalidParameter(f"unknown rates subcommand {args.rates_cmd!r}")

    if args.protocol == "bkb01":
        if args.d is None or args.c is None:
            raise InvalidParameter("bkb01 needs --d and --c")
        report = rates._bkb01_row("bkb01", args.d, args.c)
    elif args.protocol in ("hse", "kmb09"):
        c = args.c
        if args.protocol == "kmb09":
            if c is None:
                c = 2
            elif c != 2:
                raise InvalidParameter("kmb09 is the two-basis case; use --c 2")
        if args.set is not None:
            basis_set = resolve_sized_set(args.set, args.d, c, "rate computation")
            eve = resolve_eve(args.eve if args.eve is not None else "basis:0", basis_set)
            if eve is None:
                raise InvalidParameter("analytic attack rates need an eve basis")
            report = rates.rate_report(basis_set, eve, protocol=args.protocol)
        else:
            if args.d is None or c is None:
                raise InvalidParameter("closed forms need --d and --c (or --set)")
            note = "c exceeds d+1: no such MU set exists" if c > args.d + 1 else ""
            report = rates._hse_row(args.protocol, args.d, c, note=note)
    else:
        raise InvalidParameter(f"unknown protocol {args.protocol!r}")

    row = dataclasses.asdict(report)
    if args.format == "jsonl":
        print(json.dumps(row))
    elif args.format == "csv":
        keys = [k for k in row if k not in ("note",)]
        print(",".join(keys))
        print(",".join("" if row[k] is None else (repr(row[k]) if isinstance(row[k], float) else str(row[k])) for k in keys))
    else:
        print(f"{report.protocol} (d={report.d}, c={report.c}) via {report.method}")
        for key in ("r_qb", "r_it", "r_s", "r_t", "r_k", "r_be"):
            if row[key] is not None:
                print(f"  {key:5s} {display_percent(row[key]):>8s}  ({row[key]!r})")
        if row["n_s"] is not None:
            print(f"  n_s   {display_ns(row['n_s']):>8s}  ({row['n_s']!r})")
        if report.note:
            print(f"  note: {report.note}")
    return 0


def _print_sim_report(report, fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write(montecarlo.to_csv([report]))
    elif fmt == "jsonl":
        sys.stdout.write(montecarlo.to_json_lines([report]))
    else:
        print(montecarlo.format_report(report))


def cmd_sim(args) -> int:
    spec = args.set if args.set is not None else "mub"
    basis_set = resolve_sized_set(spec, args.d, args.c, "simulation")
    eve = resolve_eve(args.eve, basis_set)
    config = ProtocolConfig(c=basis_set.c, d=basis_set.d, basis_set=basis_set, eve=eve)
    report = montecarlo.estimate_rates(config, args.trials, args.seed)
    _print_sim_report(report, args.format)
    return 0 if report.consistent else 1


def cmd_net(args) -> int:
    spec = args.set if args.set is not None else "mub"
    basis_set = resolve_sized_set(spec, args.d, args.c, "sessions")

    if args.net_cmd == "eve":
        eve = resolve_eve(args.basis, basis_set)
        if eve is None:
            raise InvalidParameter("the eve node needs a basis")
        log = channel.run_mitm(("127.0.0.1", args.listen), args.forward, eve, args.seed)
        print(f"intercepted {len(log.records)} states")
        return 0

    config = ProtocolConfig(c=basis_set.c, d=basis_set.d, basis_set=basis_set, eve=None)
    runner = channel.serve_session if args.net_cmd == "serve" else channel.connect_session
    host = "127.0.0.1" if args.net_cmd == "serve" else args.host
    result = runner(
        host,
        args.port,
        args.role,
        config,
        args.trials,
        args.seed,
        basis_set_id=spec,
        compare=not args.no_compare,
    )
    if args.role == "bob":
        report = montecarlo.report_from_outcomes(config, result, args.seed)
        _print_sim_report(report, args.format)
        return 0 if report.consistent else 1
    print(f"alice: {result.trials} trials, {len(result.key)} key letters, {result.messages_sent} messages")
    return 0


def _port(text: str) -> int:
    """argparse type: a TCP port, 0-65535."""
    if not (text.isascii() and text.isdigit()) or int(text) > 65535:
        raise argparse.ArgumentTypeError(f"expected a port 0-65535, got {text!r}")
    return int(text)


def _host_port(text: str) -> tuple[str, int]:
    """argparse type: HOST:PORT, where an empty HOST is 127.0.0.1."""
    host, colon, port = text.rpartition(":")
    if not colon:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host or "127.0.0.1", _port(port)


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="table", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hselab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bases = sub.add_parser("bases", help="construct, verify, and measure bases")
    bases_sub = p_bases.add_subparsers(dest="bases_cmd", required=True)
    for name in ("verify", "distance"):
        p = bases_sub.add_parser(name)
        p.add_argument("--set", required=True, help="|".join(NAMED_SETS))
        p.add_argument("--d", type=int, help="dimension (for standard/fourier/prime/mub)")
        p.add_argument("--c", type=int, help="alphabet size (for prime/mub)")
        if name == "verify":
            p.add_argument("--tol", type=float, default=TAU_NORM)
        else:
            p.add_argument("--eve", help="eve basis: index, basis:<x>, breidbart, file:<path>[#k]")
            _add_format(p)
        p.set_defaults(func=cmd_bases)
    bases_sub.add_parser("list").set_defaults(func=cmd_bases)

    p_rates = sub.add_parser("rates", help="analytic rate computation")
    rates_sub = p_rates.add_subparsers(dest="rates_cmd", required=True)
    p_t1 = rates_sub.add_parser("table1")
    _add_format(p_t1)
    p_t1.set_defaults(func=cmd_rates)
    p_comp = rates_sub.add_parser("compute")
    p_comp.add_argument("--protocol", choices=("hse", "bkb01", "kmb09"), required=True)
    p_comp.add_argument("--d", type=int)
    p_comp.add_argument("--c", type=int)
    p_comp.add_argument("--set", help="explicit basis set (enumeration instead of closed forms)")
    p_comp.add_argument("--eve", help="eve basis spec (default basis:0)")
    _add_format(p_comp)
    p_comp.set_defaults(func=cmd_rates)

    p_sim = sub.add_parser("sim", help="Monte Carlo simulation vs theory")
    p_sim.add_argument("--d", type=int, required=True)
    p_sim.add_argument("--c", type=int, required=True)
    p_sim.add_argument("--set", help="basis set spec (default: mub for the given d, c)")
    p_sim.add_argument("--eve", default="none", help="none | basis:<x> | breidbart | file:<path>[#k]")
    p_sim.add_argument("--trials", type=int, default=200_000)
    p_sim.add_argument("--seed", type=int, default=1)
    _add_format(p_sim)
    p_sim.set_defaults(func=cmd_sim)

    p_net = sub.add_parser("net", help="run protocol endpoints over TCP")
    net_sub = p_net.add_subparsers(dest="net_cmd", required=True)
    for name in ("serve", "connect"):
        p = net_sub.add_parser(name)
        p.add_argument("--role", choices=("alice", "bob"), required=True)
        if name == "connect":
            p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=_port, default=channel.DEFAULT_PORT)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--c", type=int, required=True)
        p.add_argument("--set", help="basis set spec (default mub)")
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--no-compare", action="store_true", help="skip the public key comparison")
        _add_format(p)
        p.set_defaults(func=cmd_net)
    p_eve = net_sub.add_parser("eve")
    p_eve.add_argument("--listen", type=_port, required=True, help="port to accept the sender on")
    p_eve.add_argument("--forward", type=_host_port, required=True, help="host:port of the receiver")
    p_eve.add_argument("--basis", required=True, help="basis:<x> | breidbart | file:<path>[#k]")
    p_eve.add_argument("--d", type=int, required=True)
    p_eve.add_argument("--c", type=int, required=True)
    p_eve.add_argument("--set", help="basis set spec (default mub)")
    p_eve.add_argument("--seed", type=int, default=1)
    p_eve.set_defaults(func=cmd_net)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HselabError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
