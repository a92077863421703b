"""Layered benchmark of modmatroid: end-to-end numbers and traced per-layer numbers.

Run from the root of a source checkout (the package is taken from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload scans --seed 1 --seconds 30 --trace 0

Workloads: realize, scans, cli (see workloads.py and
BENCHMARK.json).  Each repetition of a workload's fixed batch runs in a
fresh single-threaded interpreter (worker.py), so the library's caches
start cold.  With ``--trace 0`` the run starts batches until ``--seconds`` have
been spent (so the last one ends past that) and sets up without running
jobs until it has three set-up times:

    wall_s        seconds for the batch, set-up excluded (mean over batches)
    setup_s       interpreter start, imports, inputs, golden load (median)
    job_p90_ms    90th-percentile latency of one job, over every job of
                  every batch
    job_p50_ms    median latency of one job, likewise
    peak_rss_mb   peak resident memory of the worker (cli: largest child;
                  median over batches)

The times are given at reference host speed.  Shared hosts change a
process's speed in bursts and drifts: on the 2-core host the benchmark
was written on, one batch of the same jobs took 4.8 s in one minute and
6.5 s a few minutes later, so ten runs of one workload, which take five
minutes, spread by more than a 25% bound on drift alone.  Each worker
therefore runs a slice of a fixed pure-Python loop (worker.calibrate;
integer arithmetic and a dict, no library code) before its first job and
after every job that ends 0.3 s or more after the last slice, and
reports the loop's rate.  A batch's times are multiplied by that rate
over REFERENCE_RATE, and set-up times by the median of the batches'
factors.  Over twelve batches of the same realize jobs, the measured
time spread 18% and the scaled time 3% (quartile distance over median);
over ten runs (seeds 1-10) of each workload, wall_s spread 0.07-0.15
measured and 0.02-0.08 scaled.  The measured times are printed too, not
gated.  Every sample counts, not
the fastest: taking each job's fastest time made realize's figures
spread about twice as much.

Failed jobs (an exception or an output other than the expected one)
are listed with their inputs; ``failed``/``attempted`` is the failure
share.  ``correct`` is false when a job fails that the seed commit did
not fail.

With ``--trace 1`` the batch runs once untraced and once with spans
around every call into the library modules (spans.py); the output is
the per-layer metrics of the traced batch.  The call and miss counts of
the library's caches must agree exactly between the two batches.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("realize", "scans", "cli")
MIN_SETUPS = 3  # set-ups without jobs are added until setup_s is a median of three
# Rate of worker.calibrate's loop (iterations per second) that the reported
# times are scaled to; about that of the 2-core Xeon host the benchmark was
# written on (0.95-1.1 million, median of 40 slices, three processes).
REFERENCE_RATE = 1_000_000.0
TIME_LIMIT = 170.0  # seconds for the whole run


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, smoke: bool = False, inject: bool = False):
        self.workload = workload
        self.seed = seed
        self.flags = (["--smoke"] if smoke else []) + (["--inject"] if inject else [])
        self.deadline = time.monotonic() + TIME_LIMIT
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")

    def spawn(self, mode: str, *extra: str) -> dict:
        """One worker process; returns its report plus the measured setup_s."""
        cmd = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, *self.flags, *extra]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, text=True, start_new_session=True)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and any cli process it started
            proc.communicate()
            raise BenchError(f"{self.workload} worker ran past the time limit") from None
        if proc.returncode != 0 or ready.strip() != "READY":
            tail = err.strip().splitlines()[-5:]
            raise BenchError(f"{self.workload} worker failed ({proc.returncode}): "
                             + " | ".join(tail))
        report = json.loads(out.strip().splitlines()[-1]) if mode != "setup" else {}
        report["setup_s"] = setup_s
        return report


def summarize_failures(reports: list[dict]) -> tuple[int, int, bool, list[dict]]:
    attempted = sum(len(r["jobs"]) for r in reports)
    failed = sum(1 for r in reports for _, _, bad in r["jobs"] if bad)
    seen = {}
    for r in reports:
        for f in r["failures"]:
            seen.setdefault(f["name"], f)
    correct = all(f["known"] for f in seen.values())
    return attempted, failed, correct, list(seen.values())


def percentile90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(runner: Runner, seconds: int) -> tuple[dict, list[dict]]:
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(runner.spawn("run"))
        if time.perf_counter() - start >= seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.spawn("setup")["setup_s"])
    # each batch's times at reference speed: seconds x (host rate / reference rate)
    for r in reps:
        r["speed"] = r["cal_rate"] / REFERENCE_RATE
    run_speed = statistics.median(r["speed"] for r in reps)
    latencies = [ms * r["speed"] for r in reps for _, ms, _ in r["jobs"]]
    metrics = {
        "wall_s": (statistics.mean(r["wall_s"] * r["speed"] for r in reps), "s"),
        "setup_s": (statistics.median(setups) * run_speed, "s"),
        "job_p50_ms": (statistics.median(latencies), "ms"),
        "job_p90_ms": (percentile90(latencies), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    raw = [ms for r in reps for _, ms, _ in r["jobs"]]
    print(f"{runner.workload}: {len(reps)} batch(es) of {len(reps[0]['jobs'])} jobs, "
          f"{len(setups)} set-ups; host speed {run_speed:.3f} x reference (median batch)")
    print(f"  {'measured wall_s':36s} {statistics.mean(r['wall_s'] for r in reps):14.6f} s "
          f"(not gated)")
    print(f"  {'measured setup_s':36s} {statistics.median(setups):14.6f} s (not gated)")
    print(f"  {'measured job_p90_ms':36s} {percentile90(raw):14.6f} ms (not gated)")
    return metrics, reps


def traced(runner: Runner) -> tuple[dict, list[dict], list[str]]:
    plain = runner.spawn("run", "--inprocess")
    tr = runner.spawn("trace")
    layers = dict(tr["layers"])
    layers["trace.overhead_s"] = layers["trace.wall_s"] - plain["wall_s"]
    layers.setdefault("cli.start_s", 0.0)
    problems = []
    for key, value in plain["counts"].items():
        if tr["counts"][key] != value:
            problems.append(f"cache count {key} differs: untraced {value}, traced {tr['counts'][key]}")
        if key in layers and layers[key] != value:
            problems.append(f"{key}: spans count {layers[key]}, cache counts {value}")
    if layers["trace.self_sum_s"] > layers["trace.wall_s"]:
        problems.append("self times add up to more than the traced wall time")
    metrics = {name: (layers[name], unit) for name, (unit, _) in spans.METRICS.items()}
    return metrics, [plain, tr], problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30, help="measuring time; 0 runs one batch")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced-size batches")
    ap.add_argument("--inject", action="store_true",
                    help="corrupt one expected output, to see it counted")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "modmatroid", "__init__.py")):
        print("error: run from the root of a modmatroid checkout (src/modmatroid not found)",
              file=sys.stderr)
        return 2
    # byte-compile once, untimed, so every worker imports from a warm cache
    for path in (os.path.join("src", "modmatroid"), HERE):
        compileall.compile_dir(path, quiet=1)

    runner = Runner(args.workload, args.seed, args.smoke, args.inject)
    try:
        if args.trace:
            metrics, reports, problems = traced(runner)
        else:
            metrics, reports = end_to_end(runner, args.seconds)
            problems = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, correct, failures = summarize_failures(reports)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    print(f"  {'fail_share':36s} {failed / attempted:14.6f} ({failed} of {attempted} jobs)")
    for f in failures:
        tag = "known at the seed commit" if f["known"] else "NEW"
        print(f"FAILED {f['name']} [{tag}]: got {f['output']!r}, expected {f['expect']!r}; "
              f"input: {f['input']}")
    for p in problems:
        print(f"TRACE CHECK FAILED: {p}")
    result = {
        "correct": correct and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
