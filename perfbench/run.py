"""Benchmark of the soa-lab command-line verbs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a soa-lab checkout and imports the package from its
``src/``.  Every verb goes through ``soa_lab.cli.main(argv)`` inside this
one process.  A run sets its workload up several times, then repeats
rounds of the workload's verb calls until ``--seconds`` have passed
(finishing the round in progress), checks the outputs, and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  wall_s       median over rounds of the time from a round's first verb call
               to the end of its last one
  setup_s      median fresh-interpreter import of soa_lab.cli, plus median
               time of the workload's input preparation
  peak_rss_mb  peak resident memory of this process after the rounds
--trace 1 reports the per-layer metrics instead (see README.md).  Traced
and untraced rounds alternate, so the run also gives the tracing overhead;
spans and counters go to perfbench/traces/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PASSES = 3
# A traced run needs at least two traced and two untraced rounds.
MIN_TRACED_ROUNDS = 4


def pin_threads() -> None:
    """One BLAS thread; SOA_LAB_THREADS at 2 (the chain count), capped by nproc."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["SOA_LAB_THREADS"] = str(min(2, len(os.sched_getaffinity(0))))


def import_seconds() -> float:
    """Wall time for a fresh interpreter to import soa_lab.cli and exit."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import soa_lab.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def run_verb(cli, tracer, verb: str, config: str) -> bool:
    """One verb call; True when it exits 0.  Its stdout is discarded."""
    argv = [verb, "--config", config]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.timed(f"cli.{verb}", cli.main, (argv,), {}, True)
    except Exception:
        traceback.print_exc()
        return False
    if code != 0:
        print(f"{verb} --config {config} exited {code}", file=sys.stderr)
    return code == 0


def snapshot(directory: Path) -> dict[str, str]:
    """sha256 of every file under directory, by relative path."""
    return {str(p.relative_to(directory)):
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "soa_lab" / "cli.py").is_file():
        print(f"error: {SRC / 'soa_lab'} not found; run from the root of a "
              "soa-lab checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    import soa_lab.cli as cli
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    run_dir = HERE / "runs" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None

    os.chdir(run_dir)
    try:
        result = measure(cli, workload, tracer, args, run_dir)
    finally:
        os.chdir(ROOT)
    if result is None:
        return 1
    correct, attempted, failed, metrics = result
    if correct:
        shutil.rmtree(run_dir)
    else:
        print(f"outputs kept in {run_dir}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def measure(cli, workload, tracer, args, run_dir: Path):
    """Set-up passes, timed rounds and checks; None when set-up fails."""
    import_times, prepare_times, prepared = [], [], []
    for i in range(SETUP_PASSES):
        import_times.append(import_seconds())
        if tracer is not None:
            tracer.begin_pass(f"setup{i}", "setup")
            tracer.install()
        start = time.perf_counter()
        setup_calls, round_calls = workload.prepare(run_dir, args.seed)
        ok = all([run_verb(cli, tracer, verb, cfg) for verb, cfg in setup_calls])
        prepare_times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()
        if not ok:
            print("error: set-up failed", file=sys.stderr)
            return None
        prepared.append(snapshot(run_dir))

    untraced, traced, rounds = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline
           or (tracer is not None and len(rounds) < MIN_TRACED_ROUNDS)):
        # Alternate untraced and traced rounds as U T T U U T T U ...
        with_trace = tracer is not None and len(rounds) % 4 in (1, 2)
        gc.collect()  # start every round from a collected heap
        if with_trace:
            tracer.begin_pass(f"round{len(rounds)}", "round")
            tracer.install()
        start = time.perf_counter()
        for verb, cfg in round_calls:
            attempted += 1
            failed += not run_verb(cli, tracer if with_trace else None, verb, cfg)
        elapsed = time.perf_counter() - start
        (traced if with_trace else untraced).append(elapsed)
        print(f"round {len(rounds)}{' traced' if with_trace else ''}: "
              f"{elapsed:.3f} s", file=sys.stderr)
        if with_trace:
            tracer.uninstall()
        rounds.append(snapshot(run_dir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None and tracer.total("bayes_mnl.rw_metropolis.calls"):
        # Serial reference for the chain pool: one more traced round with a
        # single worker thread; its outputs must match the pooled ones.
        pooled_threads = os.environ["SOA_LAB_THREADS"]
        os.environ["SOA_LAB_THREADS"] = "1"
        tracer.begin_pass("serial_reference", "reference")
        tracer.install()
        try:
            for verb, cfg in round_calls:
                run_verb(cli, tracer, verb, cfg)
        finally:
            tracer.uninstall()
            os.environ["SOA_LAB_THREADS"] = pooled_threads
        rounds.append(snapshot(run_dir))

    try:
        problems, faults = workload.check(run_dir)
    except Exception:
        problems, faults = [traceback.format_exc()], []
    if any(s != prepared[0] for s in prepared):
        problems.append("set-up passes wrote different bytes")
    if any(s != rounds[0] for s in rounds):
        problems.append("rounds wrote different bytes")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    for line in faults:
        print(f"known fault (counted as failed): {line}", file=sys.stderr)
    failed += len(faults) * (len(untraced) + len(traced))

    if tracer is None:
        metrics = {"wall_s": (statistics.median(untraced), "s"),
                   "setup_s": (statistics.median(import_times)
                               + statistics.median(prepare_times), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(untraced), "s")
        tracer.write(HERE / "traces" / f"{workload.name}-seed{args.seed}.json",
                     {"workload": workload.name, "seed": args.seed,
                      "untraced_round_s": untraced, "traced_round_s": traced,
                      "metrics": metrics})
    return not problems, attempted, failed, metrics


if __name__ == "__main__":
    sys.exit(main())
