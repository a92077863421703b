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
from functools import lru_cache
from itertools import compress

from .abgroups import (
    DMod,
    FgAbGroup,
    cokernel,  # not called here; perfbench/spans.py traces calls through this name
    localize,
    subset_cokernels,
    support_primes,
)
from .intmat import Mat, Record, setfield, shape
from .surjections import (
    NO_PAIR,
    check_m1,
    check_square,
    exact_cap,
    square_screen,
)

MAX_GROUND = 16


def subsets(n_labels: int) -> range:
    return range(1 << n_labels)


def popcount(mask: int) -> int:
    return mask.bit_count()


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


class ZMatroid(Record, compare=("labels", "table")):
    """Total mapping from subset bitmasks to groups, one entry per subset.
    ``verified`` does not take part in equality or the hash."""

    __slots__ = ("labels", "table", "verified")

    def __init__(self, labels: tuple[str, ...], table: tuple[FgAbGroup, ...],
                 verified: bool = False):
        _check_ground(labels)
        if len(table) != 1 << len(labels):
            raise ValueError("table size does not match ground set")
        setfield(self, "labels", labels)
        setfield(self, "table", table)
        setfield(self, "verified", verified)

    @property
    def full(self) -> int:
        return (1 << len(self.labels)) - 1


class DvrMatroid(Record):
    """The same table shape with one-prime local modules as entries."""

    __slots__ = ("labels", "table")

    def __init__(self, labels: tuple[str, ...], table: tuple[DMod, ...]):
        _check_ground(labels)
        if len(table) != 1 << len(labels):
            raise ValueError("table size does not match ground set")
        setfield(self, "labels", labels)
        setfield(self, "table", table)

    @property
    def full(self) -> int:
        return (1 << len(self.labels)) - 1


class Realization(Record):
    """Integer vector configuration: ambient Z^n modulo relation columns
    (``relations``, n x m), one generator column per label (``vectors``,
    n x len(labels))."""

    __slots__ = ("labels", "relations", "vectors")

    def __init__(self, labels: tuple[str, ...], relations: Mat, vectors: Mat):
        _check_ground(labels)
        n, m = shape(relations)
        nv, e = shape(vectors)
        if e != len(labels):
            raise ValueError("one generator column per label required")
        if labels and n != nv:
            raise ValueError("relation and generator row counts differ")
        setfield(self, "labels", labels)
        setfield(self, "relations", relations)
        setfield(self, "vectors", vectors)


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


class Violation(Record):
    __slots__ = ("mask", "b", "c", "kind", "prime", "index")

    def __init__(self, mask: int, b: str, c: str, kind: str,
                 prime: int | None = None, index: int | None = None):
        setfield(self, "mask", mask)
        setfield(self, "b", b)
        setfield(self, "c", c)
        setfield(self, "kind", kind)
        setfield(self, "prime", prime)
        setfield(self, "index", index)

    @property
    def undecided(self) -> bool:
        """A no-witness-pair: the witness search found no pair, which does
        not prove that none exists, so this is no verified negative."""
        return self.kind == NO_PAIR

    def describe(self, labels: tuple[str, ...]) -> str:
        where = subset_key(labels, self.mask)
        msg = f"A={{{where}}} b={self.b} c={self.c}: {self.kind}"
        if self.prime is not None:
            msg += f" p={self.prime}"
        if self.index is not None:
            msg += f" n={self.index}"
        return msg


class Verdict(Record):
    __slots__ = ("ok", "violation")

    def __init__(self, ok: bool, violation: Violation | None = None):
        setfield(self, "ok", ok)
        setfield(self, "violation", violation)


class MatroidError(ValueError):
    """Raised where a verified table is required but the axiom fails or
    a square is left undecided."""

    def __init__(self, m, violation: Violation):
        self.violation = violation
        verdict = "undecided" if violation.undecided else "not a matroid"
        super().__init__(f"{verdict}: {violation.describe(m.labels)}")


def from_realization(r: Realization) -> ZMatroid:
    """Table of cokernels N/(relations + chosen generator columns).

    The output satisfies the axiom by construction, so it is marked
    verified; the test suite re-verifies anyway.
    """
    columns = [[row[j] for row in r.vectors] for j in range(len(r.labels))]
    table = subset_cokernels(r.relations, columns)
    return ZMatroid(r.labels, tuple(table), verified=True)


def _walk(labels, code, entries, lo, hi, squares):
    """The axiom in scan order over the subsets lo <= A < hi.

    Subsets ascend by bitmask; within a subset, pairs (b, c) ascend by
    label position with b <= c.  The b = c diagonal is the degenerate
    square (A, Ab, Ab, Ab), the single-element check, decided by
    check_m1.  Swapping b and c gives the same square, so scanning
    ordered pairs would locate the same first failure.  ``code`` numbers
    the table's entries; ``entries`` maps numbers back.  Square keys
    (tuples of numbers) in ``squares`` are known to pass; any other key
    is decided and added when it passes.  Returns the first violation,
    or None.
    """
    e = len(labels)
    for mask in range(lo, hi):
        a = code[mask]
        outside = [i for i in range(e) if not mask >> i & 1]
        above = [code[mask | 1 << i] for i in outside]
        for x, bi in enumerate(outside):
            b = above[x]
            bmask = mask | 1 << bi
            for y in range(x, len(outside)):
                ci = outside[y]
                key = (a, b, above[y], code[bmask | 1 << ci])
                if key not in squares:
                    if y == x:
                        v = check_m1(entries[a], entries[b])
                    else:
                        v = check_square(*(entries[n] for n in key))
                    if not v.ok:
                        return Violation(mask, labels[bi], labels[ci], v.kind, v.prime, v.index)
                    squares.add(key)
    return None


class _Memo:
    """What the certifier keeps between calls, under integer names.

    Groups are numbered in order of first sight, with their support
    primes; the square keys (tuples of group numbers, the degenerate
    (A, Ab, Ab, Ab) among them) certified to pass are kept.  Local
    modules are numbered too: ``local[p]`` maps a group number to the
    number of its localization at p, or at the generic point (its free
    part) for p None.  Stage 1-2 decisions are kept per (cap, local
    quadruple).  Tables that share entries (a table and edited copies of
    it, say) share the work.
    """

    def __init__(self):
        self.ids: dict[tuple, int] = {}
        self.groups: list[FgAbGroup] = []
        self.primes: list[tuple[int, ...]] = []
        self.squares: set[tuple] = set()
        self.mod_ids: dict[DMod, int] = {}
        self.mods: list[DMod] = []
        self.local: dict[int | None, dict[int, int]] = {None: {}}
        self.square: dict[tuple, bool] = {}

    def size(self) -> int:
        return (len(self.groups) + len(self.squares) + len(self.mods) + len(self.square)
                + sum(map(len, self.local.values())))

    def number(self, table) -> list[int]:
        # keyed by (rank, factors), not by the group: a tuple hashes and
        # compares in C, a group through Record's Python-level __hash__ and
        # __eq__, which made numbering 10-label tables about 5x slower
        ids = self.ids
        keys = [(g.rank, g.factors) for g in table]
        code = list(map(ids.get, keys))
        if None in code:
            for k, g in zip(keys, table):
                if k not in ids:
                    ids[k] = len(self.groups)
                    self.groups.append(g)
                    self.primes.append(support_primes(g))
            code = list(map(ids.__getitem__, keys))
        return code

    def localized(self, p: int | None, gids) -> dict[int, int]:
        of = self.local.setdefault(p, {})
        generic = self.local[None]
        for i in gids:
            if i not in of:
                g = self.groups[i]
                if p is not None and p not in self.primes[i]:
                    of[i] = generic[i]  # numbered at the generic point first
                    continue
                m = DMod(g.rank) if p is None else localize(g, p)
                j = self.mod_ids.get(m)
                if j is None:
                    j = self.mod_ids[m] = len(self.mods)
                    self.mods.append(m)
                of[i] = j
        return of

    def screen(self, squares: set[tuple]) -> bool:
        """Certify new keys at stages 1-2: at the generic point, and at
        every prime of their entries (at any other prime a key's local
        modules are its free parts, as at the generic point).  Returns
        whether all of them passed."""
        primes, mods, seen = self.primes, self.mods, self.square
        work = {None: squares}
        for k in squares:
            for p in {*primes[k[0]], *primes[k[1]], *primes[k[2]], *primes[k[3]]}:
                work.setdefault(p, []).append(k)
        bad: set[tuple] = set()
        for p, qs in work.items():
            of = self.localized(p, set().union(*qs))
            cap = exact_cap(p)
            for k in qs:
                key = cap, of[k[0]], of[k[1]], of[k[2]], of[k[3]]
                ok = seen.get(key)
                if ok is None:
                    ok = seen[key] = square_screen(cap, *(mods[j] for j in key[1:]))
                if not ok:
                    bad.add(k)
        self.squares.update(squares - bad)
        return not bad


# Bound on what the certifier keeps between calls (groups, keys, local
# modules and decisions), as for the check_square cache; checked after
# each call.
_MEMO_BOUND = 1 << 18
_memo = _Memo()


@lru_cache(maxsize=1 << 10)  # t <= 11 and m has at most two bits: about 300 keys
def _avoiding(t: int, m: int) -> bytes:
    """Marks of the L < 2^t that share no bit with m."""
    return bytes(not L & m for L in range(1 << t))


def _block_keys(code, lo, t, e):
    """The distinct square keys of the subsets A = lo + L, L < 2^t (lo a
    multiple of 2^t), gathered from slices of ``code``; b = c gives the
    degenerate key (A, Ab, Ab, Ab) of the single-element check.

    Slice entry L of the window at offset d is code[lo + d + L]; a
    square of labels with low bits m keeps the entries at the L avoiding
    m.
    """
    size = 1 << t
    windows: dict[int, list[int]] = {}

    def window(d: int) -> list[int]:
        w = windows.get(d)
        if w is None:
            w = windows[d] = code[lo + d:lo + d + size]
        return w

    free = [1 << i for i in range(e) if not lo >> i & 1]
    low = size - 1
    base = window(0)
    squares: set[tuple] = set()
    for x, b in enumerate(free):
        above_b = window(b)
        for c in free[x:]:
            squares.update(compress(zip(base, above_b, window(c), window(b | c)),
                                    _avoiding(t, (b | c) & low)))
    return squares


def _scan(labels, table, memo: _Memo) -> Verdict:
    """The axiom over the integers: a local-global certifier, then the
    scan order to name the first failure.

    The subsets A ascend in at most 32 blocks.  A block's distinct square
    keys, the degenerate b = c ones included, that no earlier call
    certified are screened at the generic point (free ranks) and at each
    prime of their entries, at stages 1-2 of the local decision
    (sequence conditions and summand supply).  A key that passes
    everywhere passes check_square, so a block whose keys all pass needs
    no more.  Otherwise the block is walked in scan order, and the keys
    not certified go to check_m1 (b = c) and check_square, which may
    still pass them through the witness search.
    The walk stops at the first violation, which is therefore the same,
    found by the same witness searches, as a walk over every key.
    """
    code = memo.number(table)
    e = len(labels)
    t = max(e - 5, min(e, 3))  # blocks of 2^t subsets, at most 32 of them
    for lo in range(0, 1 << e, 1 << t):
        if memo.screen(_block_keys(code, lo, t, e) - memo.squares):
            continue
        v = _walk(labels, code, memo.groups, lo, lo + (1 << t), memo.squares)
        if v is not None:
            return Verdict(False, v)
    return Verdict(True)


def is_matroid(m: ZMatroid) -> Verdict:
    """Check the axiom on every (A, b, c), including b = c."""
    global _memo
    try:
        return _scan(m.labels, m.table, _memo)
    except BaseException:  # an interrupted update may leave the memo inconsistent
        _memo = _Memo()
        raise
    finally:
        if _memo.size() > _MEMO_BOUND:
            _memo = _Memo()


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


def localize_matroid(m: ZMatroid, p: int) -> DvrMatroid:
    table = tuple(localize(g, p) for g in m.table)
    return DvrMatroid(m.labels, table)


def matroid_support_primes(m: ZMatroid) -> tuple[int, ...]:
    return support_primes(*m.table)
