#!/usr/bin/env python3
"""hselab benchmark runner.

    python3 bench/run.py --workload sim --seed 1 --seconds 20 --trace 0

Runs one workload from the root of a source checkout (hselab is imported
from ./src), checks every output, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 a
separate traced run gives the per-layer metrics.  Lines before the last
describe the machine, the samples behind each figure and any failures.
Results (and, when traced, the spans) are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 9  # this process plus fresh processes that only set up
MIN_CYCLES = 3
PROBE_TIMEOUT_S = 120

sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402  (after the path fix above)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def checkout_problem() -> str | None:
    for required in (SRC / "hselab" / "__init__.py", ROOT / "BENCHMARK.json"):
        if not required.is_file():
            return f"{required.relative_to(ROOT)} not found: run from a full hselab checkout"
    return None


def set_up(args, ledger, tracer=None):
    """Import hselab, build the workload's basis sets and configs, and make
    one warm-up call.  Returns (workload, seconds)."""
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, ledger)
    workload.import_modules()
    loaded = Path(workload.hs.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise RuntimeError(f"hselab imported from {loaded}, not from {SRC}")
    if tracer is not None:
        tracer.install()
    workload.prepare()
    return workload, time.perf_counter() - started


def run_cycles(workload, seconds: float, first_cycle: int, min_cycles: int, between=None):
    """Closed loop: whole cycles until `seconds` have passed and at least
    `min_cycles` ran, or twice `seconds` passed.  `between(elapsed)` runs
    after each cycle, outside every call's timing."""
    calls = []
    cycle = first_cycle
    started = time.perf_counter()
    while True:
        calls.extend(workload.run_cycle(cycle))
        cycle += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and (cycle - first_cycle >= min_cycles or elapsed >= 2 * seconds):
            return calls, cycle
        if between is not None:
            between(elapsed)


def setup_probe(args, ledger) -> float | None:
    """Set-up time of one fresh process that only sets up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        ledger.record("setup probe", f"no answer within {PROBE_TIMEOUT_S} s")
        return None
    try:
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        problem = None if done.returncode == 0 and probe["failed"] == 0 else "; ".join(probe["reasons"])
    except (IndexError, ValueError, KeyError):
        probe, problem = None, f"exit {done.returncode}: {done.stderr.strip()[-300:]}"
    return probe["setup_s"] if ledger.record("setup probe", problem) else None


def pin_to_one_cpu() -> int | None:
    """Keep this process, and every thread and probe it starts, on one CPU.

    hselab's endpoints and relay pumps are threads that hand each other the
    GIL once per message.  Spread over two CPUs, each hand-over wakes the
    other CPU, which doubles an in-memory session's wall time and makes it
    swing with the neighbours' load; on one CPU the hand-over is a plain
    context switch.  Returns the CPU, or None where affinity is not available.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def git_commit():
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over src/, which identifies the code when no git metadata exists."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine(args, cpu) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def units(spec: dict, section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def emit(args, spec, section, values, ledger, details) -> None:
    unit_of = units(spec, section)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in unit_of.items()}
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    details = {**details, "failures": ledger.reasons}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**details, **result}, indent=1) + "\n")
    for reason in ledger.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))


def untraced_run(args, spec, cpu) -> int:
    ledger = workloads.Ledger()
    workload, setup_s = set_up(args, ledger)
    setup_samples = [setup_s]
    probes = 1 if args.smoke else SETUP_SAMPLES - 1
    # Probes spread over the run, at most one between two cycles, so that
    # their median is not one moment's load on the host.
    due = [args.seconds * (i + 0.5) / probes for i in range(probes)]

    def probe(elapsed=math.inf):
        # A run that already failed is not worth more set-up samples.
        if due and elapsed >= due[0] and not ledger.failed:
            due.pop(0)
            sample = setup_probe(args, ledger)
            if sample is not None:
                setup_samples.append(sample)

    try:
        calls, cycles = run_cycles(workload, args.seconds, 0, 1 if args.smoke else MIN_CYCLES, probe)
        workload.verify()
    finally:
        workload.close()
    values = workload.end_to_end(calls)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while due and not ledger.failed:
        probe()
    values["setup_s"] = statistics.median(setup_samples)
    details = {
        **machine(args, cpu),
        "cycles": cycles,
        "calls": len(calls),
        "setup_samples_s": setup_samples,
        **workload.details(calls),
    }
    emit(args, spec, "end_to_end", values, ledger, details)
    return 0


def traced_run(args, spec, cpu) -> int:
    import tracing

    ledger = workloads.Ledger()
    tracer = tracing.Tracer()
    workload, _ = set_up(args, ledger, tracer)
    try:
        tracer.uninstall()
        setup_spans, tracer.spans = tracer.spans, []
        half = args.seconds / 2
        min_cycles = 1 if args.smoke else 2
        untraced, cycle = run_cycles(workload, half, 0, min_cycles)
        tracer.install()
        workload.tracer = tracer
        try:
            traced, _ = run_cycles(workload, half, cycle, min_cycles)
        finally:
            workload.tracer = None
            tracer.uninstall()
        workload.verify()
    finally:
        workload.close()
    values = tracing.layer_metrics(setup_spans, tracer.spans, tracer.counts(), traced, untraced, args.workload)
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(span_file)
    details = {
        **machine(args, cpu),
        "untraced_cycles": len({c.cycle for c in untraced}),
        "traced_cycles": len({c.cycle for c in traced}),
        "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(ROOT)),
        "missing_layers": tracer.missing,
        "layer_map": tracing.LAYER_MAP,
    }
    emit(args, spec, "per_layer", values, ledger, details)
    return 0


def probe_run(args) -> int:
    """Set up once and report the time; used for the median set-up time."""
    ledger = workloads.Ledger()
    workload, setup_s = set_up(args, ledger)
    workload.close()
    print(json.dumps({"setup_s": setup_s, "failed": ledger.failed, "reasons": ledger.reasons}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = checkout_problem()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return probe_run(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cpu = pin_to_one_cpu()
    return traced_run(args, spec, cpu) if args.trace else untraced_run(args, spec, cpu)


if __name__ == "__main__":
    sys.exit(main())
