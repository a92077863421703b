"""Collect evidence for the full multi-element exchange family.

The single-element exchange relations are theorems for verified tables;
the full flag family is only conjectured.  This sweep localizes random
realization tables at each support prime, runs the exhaustive flag scan
over a range of horizons, and tallies how often the minimum is attained
at least twice.  Any violation would be a counterexample and is printed
in full.

Usage:
    python3 scripts/flag_evidence.py --count 100 --horizons 1,2,3,INF --log /tmp/flag.log
"""

from __future__ import annotations

import argparse
import random

from modmatroid.abgroups import INF
from modmatroid.matroids import (
    from_realization,
    localize_matroid,
    matroid_support_primes,
    random_realization,
)
from modmatroid.tropical import FLAG_SCAN_MAX_LABELS, flag_pluecker_scan, heights


def parse_horizons(text: str):
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        n = INF if chunk.upper() == "INF" else int(chunk)
        if n < 1:
            raise argparse.ArgumentTypeError("horizon must be at least 1 or INF")
        out.append(n)
    return out


def int_in(lo: int, hi: int | None = None):
    """An argparse type: an integer of at least lo, and at most hi if given."""
    def integer(text: str) -> int:
        n = int(text)
        if n < lo or hi is not None and n > hi:
            raise argparse.ArgumentTypeError(
                f"{n} is not at least {lo}" if hi is None else f"{n} is not from {lo} to {hi}")
        return n
    return integer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int_in(1), default=100)
    ap.add_argument("--seed", type=int, default=20260813)
    ap.add_argument("--max-labels", type=int_in(1, FLAG_SCAN_MAX_LABELS), default=5,
                    help=f"flag scan is capped at {FLAG_SCAN_MAX_LABELS}")
    ap.add_argument("--horizons", type=parse_horizons, default="1,2,3,INF")
    ap.add_argument("--log", default=None, metavar="FILE", help="write every relation line")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    relations = 0
    violations = []
    fh = None
    if args.log:
        fh = open(args.log, "w", encoding="utf-8")

    def logged(line: str) -> None:
        nonlocal relations
        relations += 1
        if fh:
            print(line, file=fh)

    try:
        for _ in range(args.count):
            r = random_realization(rng, 4, args.max_labels, 9)
            m = from_realization(r)
            for p in matroid_support_primes(m):
                loc = localize_matroid(m, p)
                for n in args.horizons:
                    verdict = flag_pluecker_scan(heights(loc, n), logged)
                    for v in verdict.violations:
                        violations.append((r, p, n, v))
    finally:
        if fh:
            fh.close()

    print(f"relations checked: {relations}")
    print(f"violations: {len(violations)}")
    for r, p, n, v in violations:
        print(f"COUNTEREXAMPLE p={p} n={n} {v.relation}: terms {v.terms}, {v.argmin}")
        print(f"  realization: {r}")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
