"""Command-line interface: basis tools, rate tables, simulations, wire sessions.

Exit codes: 0 success, 1 check or session failure, 2 usage error.  Every
command is deterministic given --seed.  Each command with --format prints
through one writer, `emit`: jsonl is one JSON object per row and csv a
header and one line per row, both at full precision; table is the
command's own text, which follows the display rounding rules.  `bases
list`, `bases verify` and `net eve` print text only.

Parsing: `COMMANDS` lists the four top-level commands.  When argv's
first word names one, `main` parses the rest with that command's parser
alone (1 parser for `sim`, 3 for `rates`, 4 for `bases` and `net`), as
the whole tree's subparser action would.  Only `hselab -h`, an empty
argv, an unknown first word or words the command leaves over build the
whole tree of 13 parsers, so every help text and usage error reads as
the whole tree prints it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import shutil
import sys

from . import bases as bases_mod
from . import channel, montecarlo, rates
from .errors import HselabError, InvalidParameter
from .hilbert import TAU_NORM, Basis, verify_orthonormal
from .rates import ProtocolConfig, display_ns, display_percent

FORMATS = ("table", "csv", "jsonl")
EVE_HELP = "none | breidbart | basis:<x> | <x> | file:<path>[#x], x a basis index in ASCII digits"
TABLE1_COLUMNS = ["protocol", "d", "c", "r_qb", "r_it", "r_t", "n_s"]
RATE_COLUMNS = [field.name for field in dataclasses.fields(rates.RateReport) if field.name != "note"]

NAMED_SETS = {
    "qutrit4": "complete set of 4 MU qutrit bases (d=3, c=4)",
    "sixstate": "three MU qubit bases (d=2, c=3)",
    "fourier": "standard + Fourier pair (any d, c=2)",
    "prime": "quadratic-phase complete set (odd prime d, c<=d+1)",
    "mub": "best-known MU family for (d, c)",
    "standard": "single computational basis (verify only)",
    "file:<path>": "basis set from a JSON file",
}


def emit(fmt: str, rows: list[dict], table, columns=None) -> None:
    """Print one command's result in `fmt`; every --format command prints
    through here.  jsonl prints one JSON object per row; csv prints a
    header over `columns` (default: every key of the first row) and one
    line per row, None as an empty cell and floats by repr; table prints
    `table()`, the command's own text, rendered for this format alone."""
    if fmt == "jsonl":
        for row in rows:
            print(json.dumps(row))
    elif fmt == "csv":
        columns = columns or list(rows[0])
        print(",".join(columns))
        for row in rows:
            print(",".join(_cell(row[key]) for key in columns))
    else:
        print(table())


def _cell(value) -> str:
    if value is None:
        return ""
    # repr of the plain float: numpy scalars would print as np.float64(...)
    return repr(float(value)) if isinstance(value, float) else str(value)


def resolve_set(spec: str, d: int | None, c: int | None):
    """Turn a --set spec into a BasisSet (or a lone Basis for 'standard');
    the built-in names go to `bases.named_basis_set` once the flags they
    read are given, so that a usage error names the flag."""
    if spec.startswith("file:"):
        return bases_mod.load_basis_set(spec[5:])
    if spec not in NAMED_SETS:
        raise InvalidParameter(f"unknown basis set spec {spec!r}")
    if spec in ("standard", "fourier", "prime") and d is None:
        raise InvalidParameter(f"--set {spec} needs --d")
    if spec == "mub" and (d is None or c is None):
        raise InvalidParameter("--set mub needs --d and --c")
    if spec == "standard":
        return bases_mod.standard_basis(d)
    return bases_mod.named_basis_set(spec, d, c)


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


def resolve_eve(spec: str, basis_set: bases_mod.BasisSet, flag: str = "--eve") -> Basis | None:
    """Turn an --eve spec (none | breidbart | basis:<x> | <x> | file:<path>[#x])
    into a Basis of the set's dimension; x names a basis of `basis_set`, or
    of the file's set.  A usage error names `flag`, the option it came from."""
    if spec == "none":
        return None
    if spec == "breidbart":
        eve = bases_mod.breidbart_basis()
    else:
        source, digits = basis_set, spec.removeprefix("basis:")
        if spec.startswith("file:"):
            path, _, digits = spec[5:].partition("#")
            source, digits = bases_mod.load_basis_set(path), digits or "0"
        index = _digits(digits, source.c)
        if index is None:
            raise InvalidParameter(
                f"bad {flag} {spec!r}: expected none, breidbart, basis:<x>, <x> or file:<path>[#x], "
                f"x in 0..{source.c - 1} in ASCII digits"
            )
        eve = source.bases[index]
    if eve.dim != basis_set.d:
        raise InvalidParameter(f"{flag} {spec!r} is a basis of d={eve.dim}, but the basis set has d={basis_set.d}")
    return eve


def _digits(text: str, stop: float = math.inf) -> int | None:
    """The value of `text` if it is ASCII digits spelling a number below
    `stop`, else None: the one rule for every integer the CLI reads (port,
    size, seed, trial count and basis index)."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        value = int(text)
    except ValueError:  # more digits than int() converts
        return None
    return value if value < stop else None


def cmd_bases(args) -> int:
    if args.bases_cmd == "list":
        for name, blurb in NAMED_SETS.items():
            print(f"{name:12s} {blurb}")
        return 0

    target = resolve_set(args.set, args.d, args.c)
    if args.bases_cmd == "verify":
        return _bases_verify(target, args.tol)
    # distance, the one subcommand left (argparse's required choice)
    if not isinstance(target, bases_mod.BasisSet):
        raise InvalidParameter("distance needs a basis set, not a single basis")
    eve = resolve_eve(args.eve, target) if args.eve is not None else None
    to_eve = bases_mod.average_distance(eve, target) if eve is not None else None
    c, pairwise = target.c, target.distance
    cells = [{"x": x, "y": y, "d_squared": pairwise[x, y]} for x in range(c) for y in range(c)]
    if to_eve is not None:
        cells.append({"x": "eve", "y": "avg", "d_squared": to_eve})
    summary = {"pairwise": pairwise.tolist(), "average_to_eve": to_eve}
    emit(args.format, cells if args.format == "csv" else [summary], lambda: _distance_text(pairwise, to_eve))
    return 0


def _bases_verify(target, tol: float) -> int:
    members = target.bases if isinstance(target, bases_mod.BasisSet) else [target]
    all_ok = True
    for member in members:
        report = verify_orthonormal(member, tol)
        all_ok &= report.ok
        print(f"orthonormal {member.label:10s} {'ok' if report.ok else 'FAIL'} (max dev {report.max_deviation:.2e})")
    if isinstance(target, bases_mod.BasisSet):
        d, deviation = target.d, target.mu_deviation.tolist()
        for x in range(target.c):
            for y in range(x + 1, target.c):
                tag = "MU" if deviation[x][y] <= max(tol, 1e-9) else "not MU"
                print(f"pair B{x},B{y}: {tag} (max | |ov|^2 - 1/{d} | = {deviation[x][y]:.2e})")
        print(f"max cross overlap: {bases_mod.max_cross_overlap(target):.6f} (distinctness enforced)")
    return 0 if all_ok else 1


def _distance_text(pairwise, to_eve) -> str:
    lines = ["pairwise D^2:"]
    lines += ["  " + "  ".join(f"{v:7.4f}" for v in row) for row in pairwise]
    if to_eve is not None:
        lines.append(f"average D^2 to eve: {to_eve:.6f}")
    return "\n".join(lines)


def format_table1(rows) -> str:
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


def _rate_text(report: rates.RateReport) -> str:
    lines = [f"{report.protocol} (d={report.d}, c={report.c}) via {report.method}"]
    for key in ("r_qb", "r_it", "r_s", "r_t", "r_k", "r_be"):
        value = getattr(report, key)
        if value is not None:
            lines.append(f"  {key:5s} {display_percent(value):>8s}  ({value!r})")
    if report.n_s is not None:
        lines.append(f"  n_s   {display_ns(report.n_s):>8s}  ({report.n_s!r})")
    if report.note:
        lines.append(f"  note: {report.note}")
    return "\n".join(lines)


def cmd_rates(args) -> int:
    if args.rates_cmd == "table1":
        rows = rates.table1()
        emit(args.format, [dataclasses.asdict(r) for r in rows], lambda: format_table1(rows), TABLE1_COLUMNS)
        return 0
    # compute, the one subcommand left
    if args.protocol == "bkb01":
        if args.set is not None or args.eve is not None:
            raise InvalidParameter("bkb01 rates are MU closed forms: --set and --eve do not apply")
        if args.d is None or args.c is None:
            raise InvalidParameter("bkb01 needs --d and --c")
        report = rates.bkb01_rates(args.c, args.d)
    else:  # hse or kmb09, the choices argparse leaves
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
            # the closed forms hold for Eve in any member basis of an MU set;
            # any other --eve needs the set itself
            if args.eve is not None and _digits(args.eve.removeprefix("basis:"), c) is None:
                raise InvalidParameter(
                    f"closed forms take only --eve basis:<x> with 0 <= x < {c}; give --set to rate --eve {args.eve}"
                )
            report = dataclasses.replace(rates.mub_closed_forms(c, args.d), protocol=args.protocol)
    emit(args.format, [dataclasses.asdict(report)], lambda: _rate_text(report), RATE_COLUMNS)
    return 0


def _emit_sim_report(report, fmt: str) -> None:
    emit(fmt, montecarlo.report_rows(report), lambda: montecarlo.format_report(report), montecarlo.CSV_COLUMNS)


def cmd_sim(args) -> int:
    spec = args.set if args.set is not None else "mub"
    basis_set = resolve_sized_set(spec, args.d, args.c, "simulation")
    eve = resolve_eve(args.eve, basis_set)
    config = ProtocolConfig(c=basis_set.c, d=basis_set.d, basis_set=basis_set, eve=eve)
    report = montecarlo.estimate_rates(config, args.trials, args.seed)
    _emit_sim_report(report, args.format)
    return 0 if report.consistent else 1


def cmd_net(args) -> int:
    spec = args.set if args.set is not None else "mub"
    basis_set = resolve_sized_set(spec, args.d, args.c, "sessions")

    if args.net_cmd == "eve":
        eve = resolve_eve(args.basis, basis_set, "--basis")
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
        _emit_sim_report(report, args.format)
        return 0 if report.consistent else 1
    summary = {"trials": result.trials, "key_letters": len(result.key), "messages_sent": result.messages_sent}
    text = "alice: {trials} trials, {key_letters} key letters, {messages_sent} messages"
    emit(args.format, [summary], lambda: text.format_map(summary))
    return 0


def _port(text: str) -> int:
    """argparse type: a TCP port, 0-65535."""
    port = _digits(text, 65536)
    if port is None:
        raise argparse.ArgumentTypeError(f"expected a port 0-65535, got {text!r}")
    return port


def _whole(text: str) -> int:
    """argparse type: --d, --c or net's --trials, a whole number in ASCII
    digits; the constructions and sessions check its range."""
    value = _digits(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"expected a whole number in ASCII digits, got {text!r}")
    return value


def _trials(text: str) -> int:
    """argparse type: sim's --trials, a whole number from 1 up."""
    trials = _whole(text)
    if trials < 1:
        raise argparse.ArgumentTypeError(f"expected at least 1 trial, got {text!r}")
    return trials


def _seed(text: str) -> int:
    """argparse type: a seed, ASCII digits with an optional leading '-'."""
    seed = _digits(text.removeprefix("-"))
    if seed is None:
        raise argparse.ArgumentTypeError(f"expected an integer seed in ASCII digits, got {text!r}")
    return -seed if text.startswith("-") else seed


def _host_port(text: str) -> tuple[str, int]:
    """argparse type: HOST:PORT, where an empty HOST is 127.0.0.1."""
    host, colon, port = text.rpartition(":")
    if not colon:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host or "127.0.0.1", _port(port)


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="table", help="output format")


def _fill_bases(parser, parser_class) -> None:
    sub = parser.add_subparsers(dest="bases_cmd", required=True, parser_class=parser_class)
    for name in ("verify", "distance"):
        p = sub.add_parser(name)
        p.add_argument("--set", required=True, help="|".join(NAMED_SETS))
        p.add_argument("--d", type=_whole, help="dimension (for standard/fourier/prime/mub)")
        p.add_argument("--c", type=_whole, help="alphabet size (for prime/mub)")
        if name == "verify":
            p.add_argument("--tol", type=float, default=TAU_NORM)
        else:
            p.add_argument("--eve", help=EVE_HELP)
            _add_format(p)
        p.set_defaults(func=cmd_bases)
    sub.add_parser("list").set_defaults(func=cmd_bases)


def _fill_rates(parser, parser_class) -> None:
    sub = parser.add_subparsers(dest="rates_cmd", required=True, parser_class=parser_class)
    p_t1 = sub.add_parser("table1")
    _add_format(p_t1)
    p_t1.set_defaults(func=cmd_rates)
    p_comp = sub.add_parser("compute")
    p_comp.add_argument("--protocol", choices=("hse", "bkb01", "kmb09"), required=True)
    p_comp.add_argument("--d", type=_whole)
    p_comp.add_argument("--c", type=_whole)
    p_comp.add_argument("--set", help="explicit basis set (enumeration instead of closed forms)")
    p_comp.add_argument("--eve", help=EVE_HELP + " (default basis:0; without --set only basis:<x> or <x>)")
    _add_format(p_comp)
    p_comp.set_defaults(func=cmd_rates)


def _fill_sim(parser, parser_class) -> None:
    parser.add_argument("--d", type=_whole, required=True)
    parser.add_argument("--c", type=_whole, required=True)
    parser.add_argument("--set", help="basis set spec (default: mub for the given d, c)")
    parser.add_argument("--eve", default="none", help=EVE_HELP)
    parser.add_argument("--trials", type=_trials, default=200_000)
    parser.add_argument("--seed", type=_seed, default=1)
    _add_format(parser)
    parser.set_defaults(func=cmd_sim)


def _fill_net(parser, parser_class) -> None:
    sub = parser.add_subparsers(dest="net_cmd", required=True, parser_class=parser_class)
    for name in ("serve", "connect"):
        p = sub.add_parser(name)
        p.add_argument("--role", choices=("alice", "bob"), required=True)
        if name == "connect":
            p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=_port, default=channel.DEFAULT_PORT)
        p.add_argument("--d", type=_whole, required=True)
        p.add_argument("--c", type=_whole, required=True)
        p.add_argument("--set", help="basis set spec (default mub)")
        p.add_argument("--trials", type=_whole, default=1000)
        p.add_argument("--seed", type=_seed, default=1)
        p.add_argument("--no-compare", action="store_true", help="skip the public key comparison")
        _add_format(p)
        p.set_defaults(func=cmd_net)
    p_eve = sub.add_parser("eve")
    p_eve.add_argument("--listen", type=_port, required=True, help="port to accept the sender on")
    p_eve.add_argument("--forward", type=_host_port, required=True, help="host:port of the receiver")
    p_eve.add_argument("--basis", required=True, help=EVE_HELP.removeprefix("none | "))
    p_eve.add_argument("--d", type=_whole, required=True)
    p_eve.add_argument("--c", type=_whole, required=True)
    p_eve.add_argument("--set", help="basis set spec (default mub)")
    p_eve.add_argument("--seed", type=_seed, default=1)
    p_eve.set_defaults(func=cmd_net)


# the top-level commands: name, help, and the function that adds the
# command's arguments and subcommands to its parser
COMMANDS = {
    "bases": ("construct, verify, and measure bases", _fill_bases),
    "rates": ("analytic rate computation", _fill_rates),
    "sim": ("Monte Carlo simulation vs theory", _fill_sim),
    "net": ("run protocol endpoints over TCP", _fill_net),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole tree of 13 parsers when `command` is None, else the parser
    of that top-level command alone, as the tree holds it (prog `hselab
    <command>`), built on every call.  The terminal width is read once
    here, by argparse's own rule (columns - 2), and every parser built
    formats at it: left to itself, argparse reads the terminal again for
    each argument and subcommand group it adds."""
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser_class = functools.partial(argparse.ArgumentParser, formatter_class=formatter)
    if command is not None:
        parser = parser_class(prog=f"hselab {command}")
        COMMANDS[command][1](parser, parser_class)
        return parser
    # the help prints the module docstring up to its note on parsing (none under -OO)
    parser = parser_class(prog="hselab", description=__doc__ and __doc__.partition("\n\nParsing:")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)
    for name, (help_text, fill) in COMMANDS.items():
        fill(sub.add_parser(name, help=help_text), parser_class)
    return parser


def main(argv=None) -> int:
    """Run the command argv names and return its exit code.  That command's
    parser alone parses the rest of argv, as the whole tree's subparser
    action would; the whole tree parses argv only when words are left over
    or the first word names no command (-h, --, a typo), so that the top
    level reports them."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = left = None
    if argv and argv[0] in COMMANDS:
        args, left = build_parser(argv[0]).parse_known_args(argv[1:])
        args.command = argv[0]
    if args is None or left:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HselabError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's text names the allocation
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
