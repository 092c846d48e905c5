#!/usr/bin/env python3
"""Benchmark of cdfdamage: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload sent_coarse --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one process each

Run from the repository root; the package is imported from ``src``. A run
builds the workload's inputs from the seed, warms up, then repeats identical
rounds of the workload's operations until ``--seconds`` have passed (at least
one round), checks the outputs of the last round, and prints one JSON object
as its last line. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the layer wrappers of ``layers.py`` are installed for the
timed rounds and the metrics are the per-layer ones. All times are corrected
for the machine's momentary speed (``speed.py``).
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SetupClock, SpeedClock  # imports no numpy

# Single-threaded BLAS/OpenMP, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def _process_age_s() -> float:
    """Seconds since this process started, from /proc; 0 where that is unavailable."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
WORKLOAD_NAMES = ("sent_coarse", "sent_smoke_kinds", "bar_certified", "law_tables")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_one(args) -> int:
    if not (REPO / "src" / "cdfdamage").is_dir():
        print(f"error: the cdfdamage sources are not under {REPO / 'src'}", file=sys.stderr)
        return 2
    setup_clock = SetupClock(_process_age_s())
    sys.path.insert(0, str(REPO / "src"))
    import workloads  # imports numpy, scipy and cdfdamage
    from layers import Tracer

    workdir = Path.cwd() / ".bench_out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s, raw_setup_s = setup_clock.stop()
        wl.warm_up()

        clock = SpeedClock()
        clock.install()
        tracer = Tracer(clock=clock.now) if args.trace else None
        if tracer:
            tracer.install()
        walls, cpus, raw_walls, raw_cpus = [], [], [], []
        attempted = failed = 0
        t_phase = time.perf_counter()
        while not walls or time.perf_counter() - t_phase < args.seconds:
            clock.start()
            failed += wl.run_round(clock.tick)
            clock.stop()
            walls.append(clock.wall_s)
            cpus.append(clock.cpu_s)
            raw_walls.append(clock.raw_wall_s)
            raw_cpus.append(clock.raw_cpu_s)
            attempted += wl.ops_per_round
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
        clock.uninstall()
        if tracer:
            tracer.require(args.workload, wl.layers)

        problems = wl.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if tracer:
        metrics = tracer.metrics(len(walls), statistics.median(walls), statistics.median(raw_walls))
        trace_file = workdir.parent / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"rounds": len(walls), "round_s": walls, "raw_round_wall_s": raw_walls,
             "raw_setup_s": raw_setup_s, "calls": tracer.calls,
             "total_s": tracer.total_s, "self_s": tracer.self_s, "counts": tracer.count},
            indent=1, sort_keys=True))
    else:
        # the uncorrected seconds, so that the speed correction can be cross-checked
        print(json.dumps({"raw": {"setup_s": raw_setup_s, "run_s": statistics.median(raw_walls),
                                  "cpu_s": statistics.median(raw_cpus)}}), file=sys.stderr)
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "run_s": _metric(statistics.median(walls), "s"),
            "cpu_s": _metric(statistics.median(cpus), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; prints a table and one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
