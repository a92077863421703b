"""Seeded input generator for the benchmark; plain data only.

Nothing here imports the library: every function returns lists, tuples
and dicts, and the workloads turn them into library objects.  The
configuration generator is the one the unit tests use (random integer
vector configurations with entries in [-9, 9]), with the shape passed in
explicitly so that every seed does the same amount of work.

A seed selects one of ``VARIANTS`` input sets (``seed % VARIANTS``);
golden outputs are stored for each of them.
"""

from __future__ import annotations

import random
import string

VARIANTS = 32
LABELS = string.ascii_lowercase[:16]


def variant(seed: int) -> int:
    return seed % VARIANTS


def rng_for(workload: str, seed: int, part: str = "") -> random.Random:
    """Independent stream per workload, input variant and input slot."""
    return random.Random(f"{workload}/{variant(seed)}/{part}")


def configuration(rng: random.Random, n_labels: int, dim: int, n_rel: int,
                  max_entry: int = 9) -> dict:
    """Integer configuration: ``dim`` x ``n_rel`` relations, one generator per label.

    Matrices are row major, as ``Realization`` takes them.
    """
    return {
        "labels": tuple(LABELS[:n_labels]),
        "relations": [[rng.randint(-max_entry, max_entry) for _ in range(n_rel)]
                      for _ in range(dim)],
        "vectors": [[rng.randint(-max_entry, max_entry) for _ in range(n_labels)]
                    for _ in range(dim)],
    }


def prime_power_configuration(rng: random.Random, p: int, n_labels: int, dim: int,
                              max_exp: int, max_entry: int) -> dict:
    """Ambient diag(p^k_1, ..., p^k_dim) with 1 <= k_i <= max_exp."""
    ks = [rng.randint(1, max_exp) for _ in range(dim)]
    return {
        "labels": tuple(LABELS[:n_labels]),
        "relations": [[p ** ks[i] if i == j else 0 for j in range(dim)]
                      for i in range(dim)],
        "vectors": [[rng.randint(-max_entry, max_entry) for _ in range(n_labels)]
                    for _ in range(dim)],
    }


# The smallest known realization the seed rejects although a realization
# always satisfies the axiom: reported as "A={e} b=f c=i: no-witness-pair
# p=2 n=7".  Kept in the check workload so the defect is always counted.
KNOWN_NO_WITNESS_PAIR = {
    "labels": ("e", "f", "i"),
    "relations": [[256, 0, 0, 0], [0, 64, 0, 0], [0, 0, 16, 0], [0, 0, 0, 128]],
    "vectors": [[-64, 20, -6], [-46, -43, -61], [24, 10, -24], [18, 63, -58]],
}


def perturbation(rng: random.Random, n_labels: int, slot: int, slots: int,
                 kinds: tuple[str, ...]) -> tuple:
    """(mask, kind, q): one entry to change, where the scan meets it at a
    point that moves from early to late as ``slot`` runs over ``slots``.

    The scan first meets the entry at mask M in the square (A, b, c) with
    A = M minus its two highest elements, so no single entry is seen past
    A = 2^(n-2).  The corner A is drawn from the ``slot``-th of ``slots``
    equal parts of [0, 2^(n-2)) and M = A plus the two highest labels.
    """
    size = 1 << (n_labels - 2)
    lo = size * slot // slots
    hi = max(lo + 1, size * (slot + 1) // slots)
    mask = rng.randrange(lo, hi) | 3 << (n_labels - 2)
    kind = rng.choice(kinds)
    q = rng.choice((2, 3))
    return mask, kind, q


def canonical_chain(rng: random.Random, max_len: int = 3) -> list[int]:
    """Random invariant-factor chain n_1 | n_2 | ... with every n_i >= 2."""
    chain: list[int] = []
    f = 1
    for _ in range(rng.randint(0, max_len)):
        f *= rng.choice((2, 2, 3, 4, 5, 6))
        chain.append(f)
    return chain


def table_document(rng: random.Random, n_labels: int) -> dict:
    """Matroid document with random canonical entries (not a matroid in general).

    Used only for commands that read a table without verifying it.
    """
    labels = list(LABELS[:n_labels])
    modules = {}
    for mask in range(1 << n_labels):
        key = ",".join(sorted(a for i, a in enumerate(labels) if mask >> i & 1))
        modules[key] = {"rank": rng.randint(0, 3), "torsion": canonical_chain(rng)}
    return {"ground_set": labels, "modules": modules}


def realization_document(config: dict) -> dict:
    """The JSON realization document of a configuration (columns, not rows)."""
    rel = config["relations"]
    vec = config["vectors"]
    n_rel = len(rel[0]) if rel else 0
    return {
        "ambient_relations": [[row[k] for row in rel] for k in range(n_rel)],
        "generators": {a: [row[j] for row in vec] for j, a in enumerate(config["labels"])},
    }
