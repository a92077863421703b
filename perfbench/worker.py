"""Run one workload batch in a fresh interpreter and report it as JSON.

``run.py`` starts this script once per repetition, so every batch begins
with cold ``lru_cache``s, as a command-line user's process does:

    PYTHONPATH=src python3 perfbench/worker.py --workload scans --seed 1 --mode run

Set-up (imports, input generation, tables, golden outputs) happens
first; the line ``READY`` marks its end.  Modes: ``setup`` stops there,
``run`` times the jobs and, between them, slices of a calibration loop
that give the host's speed during the batch (see ``calibrate``),
``trace`` times the jobs with spans installed, and
``golden`` prints each job's output for ``make_golden.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time


# Host-speed calibration.  Shared hosts change a process's speed by 15-25%
# from minute to minute, so timed runs interleave a fixed pure-Python loop
# (integer arithmetic, gcd, tuple keys in a dict; no library code) with the
# jobs and report the loop's rate next to the job times.
CAL_ITERS = 40_000  # one slice, about 40 ms
CAL_EVERY_S = 0.3   # a slice after any job that ends this long after the last one


def calibrate() -> float:
    """Seconds for one slice of the calibration loop."""
    t = time.perf_counter()
    counts: dict = {}
    x = 12345
    acc = 0
    for i in range(CAL_ITERS):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        key = (i & 2047, x & 63)
        counts[key] = counts.get(key, 0) + 1
        acc += math.gcd(x, 9699690 * (i | 1))
    return time.perf_counter() - t


def cli_start_s(samples: int = 5) -> float:
    """Median time to start an interpreter and import the command line module."""
    times = []
    for _ in range(samples):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import modmatroid.cli"], check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="realize, scans or cli; or a part of scans (check, sweeps)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "golden"), default="run")
    ap.add_argument("--inprocess", action="store_true",
                    help="cli: call cli.main in this process instead of starting one per job")
    ap.add_argument("--smoke", action="store_true", help="reduced-size batch")
    ap.add_argument("--inject", action="store_true",
                    help="corrupt the first job's expected output (self-test)")
    args = ap.parse_args()

    import spans
    import workloads

    if args.mode == "golden":
        workloads.GOLDEN_DIR = os.devnull  # record outputs, expect nothing
    files = None
    try:
        if args.workload == "cli":
            files = workloads.CliFiles()
            inprocess = args.inprocess or args.mode in ("trace", "golden")
            jobs = workloads.build_cli(args.seed, args.smoke, files, inprocess)
        else:
            jobs = getattr(workloads, f"build_{args.workload}")(args.seed, args.smoke)
        if args.inject:
            jobs[0].expect = "injected " + jobs[0].expect
        print("READY", flush=True)
        if args.mode == "setup":
            return 0

        tracer = None
        if args.mode == "trace":
            tracer = spans.Tracer()
            tracer.install()
        calibrated = args.mode == "run"
        cal = []
        if calibrated:
            calibrate()  # warm-up, not counted
            cal.append(calibrate())
        before = spans.cache_counts()
        clock = time.perf_counter
        results = []
        t0 = last_cal = clock()
        for job in jobs:
            t = clock()
            try:
                out = tracer.job(job.run) if tracer else job.run()
            except Exception as exc:  # a failed job is counted, never fatal
                out = f"error {type(exc).__name__}: {exc}"
            end = clock()
            results.append((job, (end - t) * 1000.0, out))
            if calibrated and end - last_cal >= CAL_EVERY_S:
                cal.append(calibrate())
                last_cal = clock()
        wall = sum(ms for _, ms, _ in results) / 1000.0 if calibrated else clock() - t0
        after = spans.cache_counts()

        if args.mode == "golden":
            print(json.dumps({job.name: out for job, _, out in results}))
            return 0
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" and not inprocess \
            else resource.RUSAGE_SELF
        report = {
            "wall_s": wall,
            "jobs": [],
            "failures": [],
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
            "counts": {k: after[k] - before[k] for k in after},
        }
        if calibrated:
            report["cal_rate"] = len(cal) * CAL_ITERS / sum(cal)  # loop iterations per second
        for job, ms, out in results:
            failed = workloads.is_error(out) or out != job.expect
            report["jobs"].append([job.name, ms, failed])
            if failed:
                report["failures"].append({"name": job.name, "input": job.desc, "output": out,
                                           "expect": job.expect, "known": job.known})
        if tracer:
            layers = tracer.metrics(wall)
            if args.workload == "cli":
                layers["cli.start_s"] = cli_start_s()
            report["layers"] = layers
            tracer.write(os.path.join(workloads.SCRATCH_DIR,
                                      f"trace-{args.workload}-{args.seed}.json"))
        print(json.dumps(report))
        return 0
    finally:
        if files:
            files.close()


if __name__ == "__main__":
    sys.exit(main())
