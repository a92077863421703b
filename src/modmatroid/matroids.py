"""Subset-indexed module tables over the integers and their verification.

A table assigns a finitely generated abelian group to every subset of a
ground set (at most 16 labels; subsets are bitmasks over label
positions).  The defining axiom is checked pairwise: for every subset A
and elements b, c outside it, the four groups at A, Ab, Ac, Abc must
admit a compatible square of cyclic-kernel surjections.  Tables built
from an integer vector configuration satisfy this by construction.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

from .abgroups import (
    DMod,
    FgAbGroup,
    canonicalize,
    cokernel,  # not called here; perfbench/spans.py traces calls through this name
    group_sum,
    localize,
    subset_cokernels,
    support_primes,
    tensor_group,
)
from .intmat import Mat, shape
from .surjections import (
    SquareVerdict,
    check_m1,
    check_square,
    m1_failure_dvr,
    square_failure_dvr,
)

MAX_GROUND = 16


def subsets(n_labels: int) -> range:
    return range(1 << n_labels)


def popcount(mask: int) -> int:
    return mask.bit_count()


def mask_of(labels: tuple[str, ...], subset) -> int:
    mask = 0
    for a in subset:
        try:
            mask |= 1 << labels.index(a)
        except ValueError:
            raise KeyError(f"unknown label {a!r}") from None
    return mask


def labels_of(labels: tuple[str, ...], mask: int) -> tuple[str, ...]:
    return tuple(a for i, a in enumerate(labels) if mask >> i & 1)


def subset_key(labels: tuple[str, ...], mask: int) -> str:
    """Canonical document key: comma-joined lexicographically sorted labels."""
    return ",".join(sorted(labels_of(labels, mask)))


def _check_ground(labels: tuple[str, ...]):
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate ground set labels")
    if len(labels) > MAX_GROUND:
        raise ValueError(f"ground set larger than {MAX_GROUND}")


@dataclass(frozen=True)
class ZMatroid:
    """Total mapping from subset bitmasks to groups, one entry per subset."""

    labels: tuple[str, ...]
    table: tuple[FgAbGroup, ...]
    verified: bool = field(default=False, compare=False)

    def __post_init__(self):
        _check_ground(self.labels)
        if len(self.table) != 1 << len(self.labels):
            raise ValueError("table size does not match ground set")

    @property
    def full(self) -> int:
        return (1 << len(self.labels)) - 1

    def entry(self, subset) -> FgAbGroup:
        return self.table[mask_of(self.labels, subset)]


@dataclass(frozen=True)
class DvrMatroid:
    """The same table shape with one-prime local modules as entries."""

    labels: tuple[str, ...]
    table: tuple[DMod, ...]
    verified: bool = field(default=False, compare=False)

    def __post_init__(self):
        _check_ground(self.labels)
        if len(self.table) != 1 << len(self.labels):
            raise ValueError("table size does not match ground set")

    @property
    def full(self) -> int:
        return (1 << len(self.labels)) - 1


@dataclass(frozen=True)
class Realization:
    """Integer vector configuration: ambient Z^n modulo relation columns,
    one generator column per label."""

    labels: tuple[str, ...]
    relations: Mat  # n x m, columns span the ambient relations
    vectors: Mat  # n x len(labels)

    def __post_init__(self):
        _check_ground(self.labels)
        n, m = shape(self.relations)
        nv, e = shape(self.vectors)
        if e != len(self.labels):
            raise ValueError("one generator column per label required")
        if self.labels and n != nv:
            raise ValueError("relation and generator row counts differ")


def random_realization(rng: random.Random, max_dim: int = 4, max_labels: int = 6,
                       max_entry: int = 9, n_labels: int | None = None) -> Realization:
    """A random configuration: 1..max_dim ambient rows, up to as many
    relation columns, labels a, b, c, ... (``n_labels`` of them, else
    1..max_labels) and entries in [-max_entry, max_entry]."""
    n = rng.randint(1, max_dim)
    e = n_labels if n_labels is not None else rng.randint(1, max_labels)
    m = rng.randint(0, n)
    labels = tuple(string.ascii_lowercase[:e])
    relations = [[rng.randint(-max_entry, max_entry) for _ in range(m)]
                 for _ in range(n)]
    vectors = [[rng.randint(-max_entry, max_entry) for _ in range(e)]
               for _ in range(n)]
    return Realization(labels, relations, vectors)


@dataclass(frozen=True)
class Violation:
    mask: int
    b: str
    c: str
    kind: str
    prime: int | None = None
    index: int | None = None

    def describe(self, labels: tuple[str, ...]) -> str:
        where = subset_key(labels, self.mask)
        msg = f"A={{{where}}} b={self.b} c={self.c}: {self.kind}"
        if self.prime is not None:
            msg += f" p={self.prime}"
        if self.index is not None:
            msg += f" n={self.index}"
        return msg


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violation: Violation | None = None


class MatroidError(ValueError):
    """Raised where a verified table is required but the axiom fails."""

    def __init__(self, m, violation: Violation):
        self.violation = violation
        super().__init__("not a matroid: " + violation.describe(m.labels))


def from_realization(r: Realization) -> ZMatroid:
    """Table of cokernels N/(relations + chosen generator columns).

    The output satisfies the axiom by construction, so it is marked
    verified; the test suite re-verifies anyway.
    """
    columns = [[row[j] for row in r.vectors] for j in range(len(r.labels))]
    table = subset_cokernels(r.relations, columns)
    return ZMatroid(r.labels, tuple(table), verified=True)


def _scan(labels, table, m1_check, square_check) -> Verdict:
    """Shared axiom scan; deterministic first-violation order.

    Subsets ascend by bitmask; within a subset, pairs (b, c) ascend by
    label position with b <= c.  The b = c diagonal is the single-element
    check.  Swapping b and c gives the same square, so scanning ordered
    pairs would locate the same first failure.

    The table's distinct entries are numbered once, and each distinct
    pair and quadruple of numbers is decided once per call.
    """
    e = len(labels)
    ids: dict = {}
    code = [ids.setdefault(g, len(ids)) for g in table]
    entries = list(ids)
    k = len(entries)
    pairs: dict[int, SquareVerdict] = {}
    squares: dict[int, SquareVerdict] = {}
    for mask in subsets(e):
        a = code[mask]
        outside = [i for i in range(e) if not mask >> i & 1]
        above = [code[mask | 1 << i] for i in outside]
        for x, bi in enumerate(outside):
            b = above[x]
            key = a * k + b
            vb = pairs.get(key)
            if vb is None:
                vb = pairs[key] = m1_check(entries[a], entries[b])
            if not vb.ok:
                return Verdict(
                    False,
                    Violation(mask, labels[bi], labels[bi], vb.kind, vb.prime, vb.index),
                )
            base = key * k
            bmask = mask | 1 << bi
            for y in range(x + 1, len(outside)):
                ci = outside[y]
                c = above[y]
                bc = code[bmask | 1 << ci]
                key = ((base + c) * k) + bc
                vs = squares.get(key)
                if vs is None:
                    vs = squares[key] = square_check(
                        entries[a], entries[b], entries[c], entries[bc]
                    )
                if not vs.ok:
                    return Verdict(
                        False,
                        Violation(
                            mask, labels[bi], labels[ci], vs.kind, vs.prime, vs.index
                        ),
                    )
    return Verdict(True)


def is_matroid(m: ZMatroid) -> Verdict:
    """Check the axiom on every (A, b, c), including b = c."""
    return _scan(m.labels, m.table, check_m1, check_square)


def is_matroid_dvr(m: DvrMatroid) -> Verdict:
    return _scan(m.labels, m.table, m1_failure_dvr, square_failure_dvr)


def verify(m: ZMatroid) -> ZMatroid:
    """Return m flagged verified, or raise MatroidError with the violation."""
    if m.verified:
        return m
    verdict = is_matroid(m)
    if not verdict.ok:
        raise MatroidError(m, verdict.violation)
    return ZMatroid(m.labels, m.table, verified=True)


def _drop_label(labels: tuple[str, ...], a: str) -> tuple[tuple[str, ...], int]:
    if a not in labels:
        raise KeyError(f"unknown label {a!r}")
    pos = labels.index(a)
    return labels[:pos] + labels[pos + 1 :], pos


def _embed(mask: int, pos: int) -> int:
    low = mask & ((1 << pos) - 1)
    return low | (mask >> pos) << (pos + 1)


def delete(m: ZMatroid, a: str) -> ZMatroid:
    labels, pos = _drop_label(m.labels, a)
    table = tuple(m.table[_embed(s, pos)] for s in subsets(len(labels)))
    return ZMatroid(labels, table, verified=m.verified)


def contract(m: ZMatroid, a: str) -> ZMatroid:
    labels, pos = _drop_label(m.labels, a)
    table = tuple(m.table[_embed(s, pos) | 1 << pos] for s in subsets(len(labels)))
    return ZMatroid(labels, table, verified=m.verified)


def direct_sum(m: ZMatroid, m2: ZMatroid) -> ZMatroid:
    if set(m.labels) & set(m2.labels):
        raise ValueError("ground sets overlap; relabel one summand first")
    labels = m.labels + m2.labels
    e1 = len(m.labels)
    table = tuple(
        group_sum(m.table[s & ((1 << e1) - 1)], m2.table[s >> e1])
        for s in subsets(len(labels))
    )
    return ZMatroid(labels, table, verified=m.verified and m2.verified)


def relabel(m: ZMatroid, mapping: dict[str, str]) -> ZMatroid:
    labels = tuple(mapping.get(a, a) for a in m.labels)
    return ZMatroid(labels, m.table, verified=m.verified)


def essentialize(m: ZMatroid) -> tuple[ZMatroid, int]:
    """Strip the free summand shared by the whole table.

    The split rank is the rank at the full subset; every entry loses that
    much free rank.  Entries of a matroid can never have less, so a
    negative remainder signals a non-matroid input.
    """
    split = m.table[m.full].rank
    if split == 0:
        return m, 0
    for g in m.table:
        if g.rank < split:
            raise ValueError("table rank dips below the rank at the full subset")
    table = tuple(FgAbGroup(g.rank - split, g.factors) for g in m.table)
    return ZMatroid(m.labels, table, verified=m.verified), split


def generic_rank(m: ZMatroid) -> dict[int, int]:
    """Rank function of the matroid seen by the rational numbers."""
    r0 = m.table[0].rank
    return {s: r0 - m.table[s].rank for s in subsets(len(m.labels))}


def residue_matroid(m: ZMatroid, p: int) -> dict[int, int]:
    """Corank function mod p: minimal generator count of each entry at p."""
    out = {}
    for s in subsets(len(m.labels)):
        loc = localize(m.table[s], p)
        out[s] = loc.rank + len(loc.exps)
    return out


def localize_matroid(m: ZMatroid, p: int) -> DvrMatroid:
    table = tuple(localize(g, p) for g in m.table)
    return DvrMatroid(m.labels, table, verified=m.verified)


def tensor_mod(m: ZMatroid, k: int) -> dict[int, FgAbGroup]:
    """Entrywise reduction mod k; all values become finite."""
    return {s: tensor_group(m.table[s], k) for s in subsets(len(m.labels))}


def matroid_support_primes(m: ZMatroid) -> tuple[int, ...]:
    return support_primes(*m.table)


def generic_loops_coloops(m: ZMatroid) -> tuple[tuple[str, ...], tuple[str, ...]]:
    r0 = m.table[0].rank
    full = m.full
    loops = tuple(
        a for i, a in enumerate(m.labels) if m.table[1 << i].rank == r0
    )
    coloops = tuple(
        a
        for i, a in enumerate(m.labels)
        if m.table[full & ~(1 << i)].rank > m.table[full].rank
    )
    return loops, coloops
