"""Self-test of the benchmark itself; run from the root of the checkout:

    python3 perfbench/selftest.py

- a reduced-size run of every workload, untraced and traced, must pass
  its output checks and report every metric;
- two traced runs of one seed must give identical counts;
- a corrupted expected verdict (scans) and a corrupted expected CLI
  stdout (cli) must each add exactly one failed job;
- a traced square decision that raises (the witness search out of
  budget) must count as one distinct quadruple and one
  ``surjections.fail.error``, in agreement with the library's cache;
- outside a checkout (only BENCHMARK.json and perfbench/) the benchmark
  must exit with a non-zero code and print no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from run import WORKLOADS  # noqa: E402

END_TO_END = ("wall_s", "setup_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb")


def bench(workload: str, trace: int, *extra: str, cwd: str = ".") -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def raising_square_counts() -> tuple[int, int, int]:
    """(traced distinct squares, traced fail.error, cache misses) for an
    is_matroid whose witness search runs out of budget at once."""
    sys.path.insert(0, os.path.abspath("src"))
    import gen
    import workloads
    from modmatroid import matroids, surjections

    m = matroids.from_realization(workloads.realization(gen.KNOWN_NO_WITNESS_PAIR))
    tracer = spans.Tracer()
    tracer.install()
    guard, surjections._SEARCH_GUARD = surjections._SEARCH_GUARD, 0
    try:
        matroids.is_matroid(m)
    except RuntimeError:
        pass
    finally:
        surjections._SEARCH_GUARD = guard
    layers = tracer.metrics(1.0)
    misses = spans.cache_counts()["surjections.square_distinct"] \
        - tracer.baseline["surjections.square_distinct"]
    return layers["surjections.square_distinct"], layers["surjections.fail.error"], misses


def main() -> int:
    problems = []

    def expect(ok: bool, what: str):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    base = {}
    for w in WORKLOADS:
        code, r = bench(w, 0)
        base[w] = r
        expect(code == 0 and r is not None and r["correct"] and r["attempted"] > 0
               and all(r["metrics"][k]["value"] > 0 for k in END_TO_END),
               f"{w}: smoke run passes its checks and reports every end-to-end metric")
        runs = [bench(w, 1)[1] for _ in range(2)]
        expect(all(t is not None and t["correct"] and set(t["metrics"]) == set(spans.METRICS)
                   for t in runs),
               f"{w}: traced smoke runs pass the trace checks and report every layer metric")
        if all(runs):
            differ = [k for k in spans.EXACT
                      if runs[0]["metrics"][k]["value"] != runs[1]["metrics"][k]["value"]]
            expect(not differ, f"{w}: counts repeat exactly between traced runs {differ or ''}")

    for w in ("scans", "cli"):
        code, r = bench(w, 0, "--inject")
        expect(code == 0 and r is not None and base[w] is not None and not r["correct"]
               and r["failed"] == base[w]["failed"] + 1
               and r["attempted"] == base[w]["attempted"],
               f"{w}: a wrong expected output is counted as one failed job")

    distinct, errors, misses = raising_square_counts()
    expect(errors == 1 and distinct == misses > 0,
           f"a raising square decision is counted (distinct {distinct}, cache misses {misses},"
           f" fail.error {errors})")

    bare = os.path.join(".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    code, r = bench("scans", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and r is None, "outside a checkout: non-zero exit and no result")

    print("self-test " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
