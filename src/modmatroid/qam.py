"""Rank-and-multiplicity shadow of a module table.

Forgetting everything except the generic rank function and the torsion
cardinality m(A) of each entry leaves a quasi-arithmetic matroid.  The
axioms checked here:

  (A1)  adding b to A divides m one way or the other, depending on
        whether b is dependent on A;
  (A2a) modular pairs satisfy m(A) m(B) | m(A u B) m(A n B);
  (A2b) if B = A + F + T and the rank grows by exactly |C n F| on every
        intermediate C, then m(A) m(B) = m(A u F) m(A u T).

For a matroid rank function such a molecule is exactly T inside the
closure cl(A) and F independent over A (submodularity covers the
intermediate sets), so each D = B - A has one candidate, F = D - cl(A).
check_axioms raises ValueError on any other rank table.

The scan runs A1, then A2b, then A2a over A < B, each with A ascending.
It skips only instances that hold whatever the multiplicities are, so
its first violation is the full scan's.  Three rules:

  - A2b skips an A whose closure is empty or covers its whole
    complement, and inside any other A the D with F or T empty: there
    both sides of the identity are the same product.
  - A2a at a unit A walks only the non-unit B of positive rank.
  - A2a at an A of rank 0 walks only the non-unit B.

Any other A walks every B > A.  The A2a rules hold because A2a runs
once A1 has passed everywhere: then m(X) | m(A n B) for a side X of the
meet's rank (A1 along a chain from A n B up to X that adds no rank).
So a pair with a unit side fails only if its other side is not a unit
and is ranked above the meet; a B of rank 0, and an A of rank 0, have
the meet's rank.  A2a tests divisibility before modularity: divisibility
rarely fails, while on a table of rank 0 every pair is modular.

The stronger positivity property of arithmetic matroids is intentionally
out of scope.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations

from .intmat import Record
from .matroids import Verdict, ZMatroid, generic_rank, subset_key, subsets, verify


class QamData(Record):
    __slots__ = ("labels", "rk", "mult")

    def __init__(self, labels: tuple[str, ...], rk: tuple[int, ...], mult: tuple[int, ...]):
        # rk and mult are indexed by subset bitmask
        if len(rk) != 1 << len(labels) or len(rk) != len(mult):
            raise ValueError("tables must cover every subset")
        if any(v < 1 for v in mult):
            raise ValueError("multiplicities must be positive")
        Record.__init__(self, labels, rk, mult)


class QamViolation(Record):
    __slots__ = ("axiom", "detail")


def to_qam(m: ZMatroid) -> QamData:
    m = verify(m)
    mult = [g.torsion_order for g in m.entries]
    return QamData(m.labels, tuple(generic_rank(m).values()), tuple(map(mult.__getitem__, m.code)))


def check_axioms(q: QamData) -> Verdict:
    """First violation in a deterministic scan, or OK.  Raises ValueError
    unless rk is a matroid rank function, which the A2b lookup needs."""
    e = len(q.labels)
    rk, mu = q.rk, q.mult
    key = lambda s: "{" + subset_key(q.labels, s) + "}"
    _require_rank_function(q, key)

    for a in subsets(e):
        for i in range(e):
            if a >> i & 1:
                continue
            ab = a | 1 << i
            if rk[ab] == rk[a]:
                if mu[a] % mu[ab]:
                    return Verdict((QamViolation(
                        "A1",
                        f"A={key(a)} b={q.labels[i]}: {mu[ab]} does not divide {mu[a]}",
                    ),))
            elif mu[ab] % mu[a]:
                return Verdict((QamViolation(
                    "A1",
                    f"A={key(a)} b={q.labels[i]}: {mu[a]} does not divide {mu[ab]}",
                ),))

    full = (1 << e) - 1
    for a in subsets(e):
        rest = full ^ a
        cl = sum(1 << i for i in range(e) if rest >> i & 1 and rk[a | 1 << i] == rk[a])
        if cl == 0 or cl == rest:
            continue  # F or T is empty on every D: both sides are one product
        d = 0  # ascends over the subsets of the complement
        while True:
            f, t = d & ~cl, d & cl
            if f and t and rk[a | f] == rk[a] + f.bit_count() and (
                mu[a] * mu[a | d] != mu[a | f] * mu[a | t]
            ):
                return Verdict((QamViolation(
                    "A2b",
                    f"A={key(a)} B={key(a | d)} F={key(f)} T={key(t)}: "
                    f"{mu[a]}*{mu[a | d]} != {mu[a | f]}*{mu[a | t]}",
                ),))
            if d == rest:
                break
            d = (d - rest) & rest

    # both conditions are symmetric in A and B, and A = B always passes; the
    # B an A walks are in the module docstring
    nonunit = [s for s in range(full + 1) if mu[s] != 1]
    ranked = [s for s in nonunit if rk[s]]
    for a in subsets(e):
        bs = ranked if mu[a] == 1 else nonunit if rk[a] == 0 else range(full + 1)
        for b in bs[bisect_right(bs, a):]:
            if (mu[a | b] * mu[a & b]) % (mu[a] * mu[b]) and (
                rk[a | b] + rk[a & b] == rk[a] + rk[b]
            ):
                return Verdict((QamViolation(
                    "A2a",
                    f"A={key(a)} B={key(b)}: {mu[a]}*{mu[b]} does not divide "
                    f"{mu[a | b]}*{mu[a & b]}",
                ),))
    return Verdict()


def _require_rank_function(q: QamData, key) -> None:
    """rk({}) = 0, unit steps and submodular diamonds make a matroid rank function."""
    e, rk = len(q.labels), q.rk
    for a in subsets(e):
        up = [a | 1 << i for i in range(e) if not a >> i & 1]
        if rk[0] or any(rk[x] - rk[a] not in (0, 1) for x in up) or any(
            rk[x] + rk[y] < rk[x | y] + rk[a] for x, y in combinations(up, 2)
        ):
            raise ValueError(f"rk is not a matroid rank function at A={key(a)}")
