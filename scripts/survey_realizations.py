"""Survey random integer vector configurations.

Builds a batch of random realizations, verifies the axiom on every
table, and prints distribution statistics: ground set sizes, essential
split ranks, support primes, torsion mass at the empty set, and how
often the quasi-arithmetic axioms hold (they always should).  A table
that fails the axiom or whose Tutte class does not have mass 2^e is
printed and counted, and makes the exit code 1.

Usage:
    python3 scripts/survey_realizations.py --count 300 --seed 7
"""

from __future__ import annotations

import argparse
import random
from collections import Counter

from modmatroid.matroids import (
    essentialize,
    from_realization,
    is_matroid,
    matroid_support_primes,
    random_realization,
)
from modmatroid.qam import check_axioms, to_qam
from modmatroid.tutte import tutte_class


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20260813)
    ap.add_argument("--max-dim", type=int, default=4)
    ap.add_argument("--max-labels", type=int, default=6)
    ap.add_argument("--max-entry", type=int, default=9)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    sizes: Counter = Counter()
    splits: Counter = Counter()
    primes: Counter = Counter()
    qam_ok = 0
    failures = 0
    mass_failures = 0
    mass_total = 0
    for _ in range(args.count):
        r = random_realization(rng, args.max_dim, args.max_labels, args.max_entry)
        m = from_realization(r)
        verdict = is_matroid(m)
        if not verdict.ok:
            failures += 1
            print(f"UNEXPECTED violation: {verdict.violation.describe(m.labels)}")
            print(f"  realization: {r}")
            continue
        sizes[len(m.labels)] += 1
        essential, split = essentialize(m)
        splits[split] += 1
        for p in matroid_support_primes(m):
            primes[p] += 1
        mass_total += m.table[0].torsion_order
        if check_axioms(to_qam(m)).ok:
            qam_ok += 1
        mass = tutte_class(essential).mass
        if mass != 1 << len(m.labels):
            mass_failures += 1
            print(f"UNEXPECTED Tutte mass {mass}, expected 2^{len(m.labels)}")
            print(f"  realization: {r}")

    print(f"checked {args.count} realizations, axiom failures: {failures}")
    print("ground set sizes:", dict(sorted(sizes.items())))
    print("essential split ranks:", dict(sorted(splits.items())))
    print("support prime frequency:", dict(sorted(primes.items())))
    print(f"mean torsion order at empty set: {mass_total / max(1, args.count - failures):.1f}")
    print(f"quasi-arithmetic axioms OK: {qam_ok}/{args.count - failures}")
    print(f"Tutte mass failures: {mass_failures}")
    return 1 if failures or mass_failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
