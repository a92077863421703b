"""Record the golden outputs the benchmark compares against.

Goldens must come from the seed commit of the benchmark (the commit that
added it), never from a later one, or they would bless a regression.
Run from the root of that checkout:

    python3 perfbench/make_golden.py

For every part (the scans workload has two: check and sweeps) and every
input variant (``gen.VARIANTS`` of them) it runs the full batch once and
stores each job's output line in perfbench/golden/<part>.json.  The cli
outputs come from ``cli.main`` called in-process; the benchmark compares
them with the stdout of real ``python -m modmatroid`` processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
PARTS = ("realize", "check", "sweeps", "cli")


def outputs(part: str, variant: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", part,
         "--seed", str(variant), "--mode", "golden"],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    os.makedirs(os.path.join(HERE, "golden"), exist_ok=True)
    for part in PARTS:
        found = [outputs(part, v) for v in range(gen.VARIANTS)]
        golden = {str(v): out for v, out in enumerate(found)}
        with open(os.path.join(HERE, "golden", f"{part}.json"), "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{part}: {sum(map(len, found))} outputs for {gen.VARIANTS} variants", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
