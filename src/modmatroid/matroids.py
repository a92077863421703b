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
from collections.abc import Iterator, Sequence
from functools import cache, reduce
from itertools import chain, compress
from operator import itemgetter, or_

from .abgroups import (
    DMod,
    FgAbGroup,
    cokernel,  # not called here; perfbench/spans.py traces calls through this name
    local_exps,
    localize,
    subset_cokernels,
    support_primes,
)
from .intmat import Mat, Record, setfield, shape
from .surjections import (
    NO_WITNESS,
    audited,
    check_m1,  # not called here; perfbench/spans.py traces calls through this name
    check_square,
    exact_cap,
    square_screen,
)

MAX_GROUND = 16


def subsets(n_labels: int) -> range:
    return range(1 << n_labels)


def labels_of(labels: tuple[str, ...], mask: int) -> tuple[str, ...]:
    return tuple(a for i, a in enumerate(labels) if mask >> i & 1)


def subset_key(labels: tuple[str, ...], mask: int) -> str:
    """Canonical document key: comma-joined lexicographically sorted labels."""
    return ",".join(sorted(labels_of(labels, mask)))


def subset_keys(labels: tuple[str, ...]) -> list[str]:
    """``subset_key(labels, mask)`` for every mask, indexed by mask.

    The labels are taken in sorted order and each is appended to the keys
    built so far, so every key is one concatenation.
    """
    keys, masks = [""], [0]
    for i in sorted(range(len(labels)), key=labels.__getitem__):
        a, bit = labels[i], 1 << i
        tail = "," + a
        keys += [a] + [k + tail for k in keys[1:]]
        masks += [m | bit for m in masks]
    out = [""] * len(keys)
    for m, k in zip(masks, keys):
        out[m] = k
    return out


def _pick(values, keys) -> tuple:
    """``tuple(values[k] for k in keys)``, by one ``itemgetter`` call when
    there are two keys or more (it returns a bare item for one key)."""
    return itemgetter(*keys)(values) if len(keys) > 1 else tuple(values[k] for k in keys)


def _check_ground(labels: tuple[str, ...]):
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate ground set labels")
    if len(labels) > MAX_GROUND:
        raise ValueError(f"ground set larger than {MAX_GROUND}")


class _Table(Record):
    """A total mapping from subset bitmasks to entries, stored interned:
    ``entries`` lists the distinct values in order of first sight by
    mask and ``code`` holds the entry number of each mask, so equal
    tables have equal fields, and an operation on entries runs once per
    distinct one.  ``table`` is a read-only view of the entry of each
    mask, not a stored copy.  The constructor interns a sequence of
    entries, objects first by identity, then by value."""

    __slots__ = ("labels", "entries", "code")
    __init__ = object.__init__  # __new__ binds the fields; nothing to rebind

    def __new__(cls, labels: tuple[str, ...], table, *flags):
        _check_ground(labels)
        if len(table) != 1 << len(labels):
            raise ValueError("table size does not match ground set")
        ids = tuple(map(id, table))
        return cls._intern(labels, dict(zip(ids, table)).items(), ids, *flags)

    @classmethod
    def from_code(cls, labels: tuple[str, ...], value, code, *flags):
        """The table whose entry at mask s is ``value(code[s])``: ``value``
        runs once per distinct item of ``code``, and equal values are one
        entry."""
        return cls._intern(labels, ((c, value(c)) for c in dict.fromkeys(code)), code, *flags)

    @classmethod
    def _intern(cls, labels, firsts, code, *flags):
        # firsts: each distinct item of code and its value, in order of first sight
        index: dict = {}
        number = {c: index.setdefault(v, len(index)) for c, v in firsts}
        t = object.__new__(cls)
        fields = (labels, tuple(index), _pick(number, code), *flags)
        for name, field in zip(cls._fields, fields, strict=True):
            setfield(t, name, field)
        return t

    def __reduce__(self):
        flags = (getattr(self, f) for f in self._fields[3:])
        return type(self), (self.labels, self.table[:], *flags)

    @property
    def table(self) -> "_View":
        return _View(self.entries, self.code)

    @property
    def full(self) -> int:
        return (1 << len(self.labels)) - 1


class _View(Sequence):
    """The entry of each mask, read through the code: an index is one
    lookup, a slice a tuple, and the view equals the tuple of its items."""

    __slots__ = ("entries", "code")

    def __init__(self, entries: tuple, code: tuple[int, ...]):
        self.entries, self.code = entries, code

    def __len__(self) -> int:
        return len(self.code)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _pick(self.entries, self.code[i])
        return self.entries[self.code[i]]

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other) -> bool:
        return self[:] == other

    def __repr__(self) -> str:
        return repr(self[:])


class ZMatroid(_Table, compare=_Table.__slots__):
    """Groups as entries.  ``verified`` does not take part in equality or
    the hash."""

    __slots__ = ("verified",)

    def __new__(cls, labels: tuple[str, ...], table, verified: bool = False):
        return super().__new__(cls, labels, table, verified)


class DvrMatroid(_Table):
    """One-prime local modules as entries."""

    __slots__ = ()


class Realization(Record):
    """Integer vector configuration: ambient Z^n modulo relation columns
    (``relations``, n x m), one generator column per label (``vectors``,
    n x len(labels))."""

    __slots__ = ("labels", "relations", "vectors")

    def __init__(self, labels: tuple[str, ...], relations: Mat, vectors: Mat):
        _check_ground(labels)
        # row-major, so a 0 x e generator matrix has no room for its columns
        if labels and not vectors:
            raise ValueError("a realization of labels needs at least one ambient row")
        n, m = shape(relations)
        nv, e = shape(vectors)
        if e != len(labels):
            raise ValueError("one generator column per label required")
        if labels and n != nv:
            raise ValueError("relation and generator row counts differ")
        Record.__init__(self, labels, relations, vectors)


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
    _defaults = {"prime": None, "index": None}

    @property
    def undecided(self) -> bool:
        """A no-witness-pair: the witness search found no pair, past the
        order where exhaustive search settles a miss, which does not
        prove that none exists, so this is no verified negative."""
        return self.kind == NO_WITNESS

    def describe(self, labels: tuple[str, ...]) -> str:
        where = subset_key(labels, self.mask)
        msg = f"A={{{where}}} b={self.b} c={self.c}: {self.kind}"
        if self.prime is not None:
            msg += f" p={self.prime}"
        if self.index is not None:
            msg += f" n={self.index}"
        return msg


class Verdict(Record):
    """The report of every table-level check (the axiom, the
    quasi-arithmetic axioms, the tropical sweeps): its violations in scan
    order, none when the check holds.  ``is_matroid`` and
    ``qam.check_axioms`` stop at the first violation, so theirs hold at
    most one."""

    __slots__ = ("violations",)
    _defaults = {"violations": ()}

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violation(self):
        """The first violation, or None."""
        return self.violations[0] if self.violations else None


class MatroidError(ValueError):
    """Raised where a verified table is required but the axiom fails or
    a square is left undecided.  The message is the line ``check``
    prints: ``violation <description>`` or ``undecided <description>``."""

    def __init__(self, m, violation: Violation):
        self.violation = violation
        verdict = "undecided" if violation.undecided else "violation"
        super().__init__(f"{verdict} {violation.describe(m.labels)}")


def from_realization(r: Realization) -> ZMatroid:
    """Table of cokernels N/(relations + chosen generator columns).

    The output satisfies the axiom by construction, so it is marked
    verified; the test suite re-verifies anyway.
    """
    columns = [[row[j] for row in r.vectors] for j in range(len(r.labels))]
    groups, code = subset_cokernels(r.relations, columns)
    return ZMatroid.from_code(r.labels, groups.__getitem__, code, True)


def _walk(labels, code, entries, masks, bad):
    """The axiom in scan order over the subsets ``masks``, ascending.

    Within a subset, pairs (b, c) ascend by label position with b <= c.
    The b = c diagonal is the degenerate square (A, Ab, Ab, Ab), the
    single-element check, which check_square decides like any other.
    Swapping b and c gives the same square, so scanning ordered pairs
    would locate the same first failure.  ``code`` numbers the table's
    entries; ``entries`` maps numbers back.  Only square keys (tuples of
    numbers) in ``bad`` are decided, in full, all others being known to
    pass; a key that passes leaves ``bad``.  A subset left out of
    ``masks`` must hold no key of ``bad`` (``_candidates``): the walk
    then decides the same keys in the same order as one over every
    subset.  Returns the first violation, or None.
    """
    e = len(labels)
    for mask in masks:
        a = code[mask]
        outside = [i for i in range(e) if not mask >> i & 1]
        above = [code[mask | 1 << i] for i in outside]
        for x, bi in enumerate(outside):
            b = above[x]
            bmask = mask | 1 << bi
            for y in range(x, len(outside)):
                ci = outside[y]
                key = (a, b, above[y], code[bmask | 1 << ci])
                if key in bad:
                    v = check_square(*map(entries.__getitem__, key))
                    if not v.ok:
                        return Violation(mask, labels[bi], labels[ci], v.kind, v.prime, v.index)
                    bad.discard(key)
    return None


@cache
def _label_flags(t: int) -> tuple[int, ...]:
    """For each label i < t, the set of the L < 2^t that hold i, written
    as ``_candidates`` writes sets of L."""
    return tuple(int.from_bytes(bytes(L >> i & 1 for L in range(1 << t)), "little")
                 for i in range(t))


def _candidates(code, lo: int, t: int, e: int, bad: set[tuple]) -> Iterator[int]:
    """The subsets of block lo (lo + L, L < 2^t) that can hold a key of
    ``bad``, ascending.

    A key (a, b, c, d) at A has its bottom d at the subset A | b | c,
    which adds one label to A (b = c) or two.  That subset lies in the
    block, or in the block with one or two of the free labels above
    it added.  Each of those ranges of 2^t codes is scanned once for the
    bottoms of ``bad``, and a hit D gives back the A it can come from: D
    without its added high labels and without up to two minus their
    number of its low labels, one label at least in all.  A set of L is
    an int whose byte L is 1 for a member and 0 otherwise, so the scan
    and the removals run at C speed whatever the number of hits.
    """
    bottoms = {k[3] for k in bad}
    span = 1 << t
    high = [1 << i for i in range(t, e) if not lo >> i & 1]

    def hits(add: int) -> int:  # the L with code[lo | add | L] a bottom
        s = lo | add
        row = code[s:s + span]
        if bottoms.isdisjoint(row):
            return 0
        return int.from_bytes(bytes(map(bottoms.__contains__, row)), "little")

    def drop(x: int) -> int:  # the L that lack one low label of a member of x
        return reduce(or_, ((x & f) >> (8 << i) for i, f in enumerate(_label_flags(t))), 0)

    inside = hits(0)
    one = reduce(or_, map(hits, high), 0)
    two = reduce(or_, (hits(b | c) for x, c in enumerate(high) for b in high[:x]), 0)
    # D less two high labels; less one, and up to one low label; less one or two low labels
    found = two | one | drop(one | inside | drop(inside))
    return compress(range(lo, lo + span), found.to_bytes(span, "little"))


def _split(cubes: set[tuple], halves) -> set[tuple]:
    """The cubes one level down that hold the square keys of ``cubes``.

    A cube is a tuple of nodes of one level: (n) stands for the squares
    inside n, (x, y) for those with b inside x and c the label that
    takes x to y, (w, x, y, z) for the aligned leaves (w[L], x[L], y[L],
    z[L]).  ``halves[n]`` is n's pair of halves, without and with the
    level's top label.  A cube gives the cube of its lower halves and
    that of its upper ones (b and c below the top label); a 1- or 2-node
    cube also the cube of all its halves (c the top label for one node,
    b for two); and a 1-node cube also the degenerate (n0, n1, n1, n1).
    """
    out: set[tuple] = set()
    for cube in cubes:
        if len(cube) == 4:
            (w0, w1), (x0, x1), (y0, y1), (z0, z1) = (
                halves[cube[0]], halves[cube[1]], halves[cube[2]], halves[cube[3]])
            out.update(((w0, x0, y0, z0), (w1, x1, y1, z1)))
        elif len(cube) == 2:
            (x0, x1), (y0, y1) = halves[cube[0]], halves[cube[1]]
            out.update(((x0, y0), (x1, y1), (x0, x1, y0, y1)))
        else:
            n0, n1 = halves[cube[0]]
            out.update(((n0,), (n1,), (n0, n1), (n0, n1, n1, n1)))
    return out


# Nodes up to this level are kept as their tuples of leaves and their keys
# gathered by position; cubes at this level and above are memoized.
_BASE = 3


def _picks(k: int, size: int) -> list[tuple]:
    """The square keys of a cube of ``size`` nodes of level k, as
    positions in the concatenation of the nodes' leaves: the rule of
    ``_split`` run down to single leaves, where only the aligned cubes
    are squares.  Node i of a level halves into nodes 2i and 2i + 1."""
    cubes = {tuple(range(size))}
    halves = [(2 * i, 2 * i + 1) for i in range(size << k)]
    for _ in range(k):
        cubes = _split(cubes, halves)
    return sorted(c for c in cubes if len(c) == 4)


_PICKS = [{size: _picks(k, size) for size in (1, 2)} for k in range(_BASE + 1)]
# Per _PICKS entry, one itemgetter reading its keys' entries off the
# nodes' leaves as one flat tuple, four a key (level 0 has no keys)
_GETS = [{size: itemgetter(*chain(*picks)) if picks else lambda cat: ()
          for size, picks in sizes.items()} for sizes in _PICKS]


class _Memo:
    """What the certifier keeps between calls, under integer names.

    Groups are numbered in order of first sight, and so are their local
    modules, once per group when it is first seen: ``free[i]`` is the
    number of group i's free part (its localization at the generic
    point), and ``local[i]`` maps each support prime p of the group to
    the number of its localization at p; at any other prime the
    localization is the free part.  A local module is numbered by its
    (rank, exponents) pair (``mod_ids``), and ``mods`` maps numbers back
    to modules, each built once.  Stage 1-2 decisions are kept per cap
    class: ``classes`` maps an ``exact_cap`` to the decisions of the
    primes with that cap, by local quadruple (four module numbers), and
    ``decided`` maps every prime seen to its class, the generic point
    None to class 0; ``shared`` holds the decisions that classes share
    (``_decide``).  Full decisions are kept only in check_square's
    cache.  Equal subcubes of tables are shared in a subset tree: a
    node at level k stands for 2^k consecutive entries (the subsets
    L + offset, L < 2^k); up to level 3 it is keyed by its tuple of
    entry numbers, above it by the pair of its halves, and ``nodes[k]``
    numbers the level's nodes (``kids[k]`` maps numbers back).  Square
    keys (tuples of group numbers, the degenerate (A, Ab, Ab, Ab) among
    them) are gathered from cubes, tuples of nodes of one level
    (``block_keys``); ``done[k]`` holds the cubes of level k >= 3 whose
    keys are all certified to pass.  Tables that share entries or
    subcubes (a table and edited copies of it, say) share the work.
    """

    def __init__(self):
        self.ids: dict[FgAbGroup, int] = {}
        self.groups: list[FgAbGroup] = []
        self.free: list[int] = []
        self.local: list[dict[int, int]] = []
        self.nodes: list[dict[tuple, int]] = [{} for _ in range(MAX_GROUND + 1)]
        self.kids: list[list[tuple]] = [[] for _ in range(MAX_GROUND + 1)]
        self.done: list[set[tuple]] = [set() for _ in range(MAX_GROUND + 1)]
        self.mod_ids: dict[tuple[int, tuple[int, ...]], int] = {}
        self.mods: list[DMod] = []
        self.classes: dict[int, dict[tuple, bool]] = {0: {}}
        self.decided: dict[int | None, dict[tuple, bool]] = {None: self.classes[0]}
        self.shared: dict[tuple, bool] = {}

    def size(self) -> int:
        return (len(self.groups) + len(self.free) + sum(map(len, self.local))
                + sum(map(len, self.kids)) + sum(map(len, self.done)) + len(self.mods)
                + sum(map(len, self.classes.values())) + len(self.shared))

    def number(self, m: ZMatroid) -> list[int]:
        """The group number of each subset's entry, numbering the
        entries not seen before, their local modules, and the primes
        not seen before with their cap classes."""
        ids, decided = self.ids, self.decided
        numbers = []
        for g in m.entries:
            n = ids.setdefault(g, len(self.groups))
            numbers.append(n)
            if n == len(self.groups):
                self.groups.append(g)
                self.free.append(self._mod((g.rank, ())))
                primes = support_primes(g)
                self.local.append({p: self._mod((g.rank, local_exps(g, p))) for p in primes})
                for p in primes:
                    if p not in decided:
                        decided[p] = self.classes.setdefault(exact_cap(p), {})
        return list(map(numbers.__getitem__, m.code))

    def _mod(self, key: tuple[int, tuple[int, ...]]) -> int:
        """The number of the local module of free rank and exponents
        ``key``, numbering it if not seen before."""
        n = self.mod_ids.setdefault(key, len(self.mods))
        if n == len(self.mods):
            self.mods.append(DMod(*key))
        return n

    def tree(self, code: list[int], t: int) -> list[int]:
        """The level-t nodes of the entry numbers ``code``, one per block
        of 2^t subsets, numbering the nodes not seen before."""
        base = min(t, _BASE)
        row = list(zip(*[iter(code)] * (1 << base)))
        for k in range(base, t + 1):
            if k > base:
                row = list(zip(row[::2], row[1::2]))
            ids, kids = self.nodes[k], self.kids[k]
            for key in set(row).difference(ids):
                ids[key] = len(kids)
                kids.append(key)
            row = list(map(ids.__getitem__, row))
        return row

    def block_keys(self, top: list[int], t: int, e: int, j: int) -> tuple[set[tuple], list]:
        """The square keys of block j (the subsets j * 2^t + L, L < 2^t)
        that lie under no cube in ``done``, and the cubes they lie under.

        The block is the cube (a) of its node, with (a, ac) and the
        degenerate (a, ac, ac, ac) for each free label c above the
        block's, and (a, ab, ac, abc) for each pair b < c of them.  They
        are split (``_split``) level by level down to the base, where
        their keys are read off the leaves.  From level 3 on, each
        level's cubes drop those in ``done``, and the rest are returned
        as (level, cubes): the caller adds them to ``done`` once every
        key passes.
        """
        a, lo = top[j], j << t
        high = [1 << i - t for i in range(t, e) if not lo >> i & 1]
        cubes = {(a,)}
        for x, c in enumerate(high):
            ac = top[j | c]
            cubes.update([(a, ac), (a, ac, ac, ac)])
            cubes.update([(a, top[j | b], ac, top[j | b | c]) for b in high[:x]])
        base = min(t, _BASE)
        new = []
        for k in range(t, base - 1, -1):
            if t >= _BASE:
                cubes -= self.done[k]
                new.append((k, cubes))
            if k > base:
                cubes = _split(cubes, self.kids[k])
        leaves, gets = self.kids[base], _GETS[base]
        out: set[tuple] = set()
        for cube in cubes:
            if len(cube) == 4:
                out.update(zip(*map(leaves.__getitem__, cube)))
            else:
                flat = iter(gets[len(cube)](sum(map(leaves.__getitem__, cube), ())))
                out.update(zip(flat, flat, flat, flat))
        return out, new

    def screen(self, squares: set[tuple]) -> set[tuple]:
        """Stages 1-2 for the keys, in one pass: each key at the primes of
        its entries (at any other prime its local modules are its free
        parts), and only a key with no prime at the generic point, on its
        free parts with cap 0.  A key's local quadruple (its four module
        numbers at a prime) is looked up in the decisions of the prime's
        cap class, the generic point's being cap 0, and decided on a miss
        (``_decide``).  Returns the keys that did not pass everywhere.

        A key that passes at one prime passes at the generic point too.
        At a prime the sequence test runs to 1 + the largest exponent,
        where every d_i is the rank: it checks each edge's rank drop and,
        in its tail, r0 - r1 - r2 + r12 >= 0, the generic point's stage-1
        conditions.  Its L2b there (the sum 0 when r1 and r2 differ)
        follows from drops of 0 or 1, and with equal end ranks such drops
        make all four ranks equal, so stage 2 at cap 0 finds no joint
        descent to supply.
        """
        local, free, decided = self.local, self.free, self.decided
        bad: set[tuple] = set()
        for k in squares:
            g0, g1, g2, g3 = k
            l0, l1, l2, l3 = local[g0], local[g1], local[g2], local[g3]
            f0, f1, f2, f3 = free[g0], free[g1], free[g2], free[g3]
            # None, the generic point, is in no local map: there every key reads its free parts
            for p in {*l0, *l1, *l2, *l3} or (None,):
                quad = (l0.get(p, f0), l1.get(p, f1), l2.get(p, f2), l3.get(p, f3))
                ok = decided[p].get(quad)
                if ok is None:
                    ok = self._decide(p, quad)
                if not ok:
                    bad.add(k)
                    break
        return bad

    def _decide(self, p: int | None, quad: tuple[int, int, int, int]) -> bool:
        """Stages 1-2 for the local quadruple ``quad`` at p, kept in p's
        cap class.

        ``square_screen`` reads the cap only through ``audited``
        (whether stage 2 runs), so a prime's decision is kept once more
        under that flag and the quadruple, and a class that misses
        takes it from there.  The generic point's quadruples are free
        and no prime's is (one of its modules has torsion there), so the
        generic point shares nothing and skips that table.
        """
        mods = [self.mods[n] for n in quad]
        if p is None:
            ok = square_screen(0, *mods)
        else:
            cap = exact_cap(p)
            key = (audited(cap, *mods), quad)
            ok = self.shared.get(key)
            if ok is None:
                ok = self.shared[key] = square_screen(cap, *mods)
        self.decided[p][quad] = ok
        return ok


# Bound on what the certifier keeps between calls (groups and their local
# modules, tree nodes, certified cubes and decisions), as for the
# check_square cache; checked after each call.
_MEMO_BOUND = 1 << 18
_memo = _Memo()


def _scan(m: ZMatroid, memo: _Memo) -> Verdict:
    """The axiom over the integers: a local-global certifier, then the
    scan order to name the first failure.

    The subsets A ascend in at most 32 blocks of 2^t.  A block's square
    keys, the degenerate b = c ones included, are gathered from the
    memo's subset tree, skipping the cubes certified before
    (by this call or an earlier one, on this table or one sharing its
    subcubes).  They are screened at each prime of their entries, and at
    the generic point (free ranks) only when they have none, at stages
    1-2 of the local decision (sequence conditions and summand supply),
    on the local modules the memo numbered once per group.  A key that
    passes everywhere passes check_square, so a block whose keys all
    pass needs no more.
    Otherwise the block is walked in scan order, and each key that
    failed the screen is decided in full by check_square, which may
    still pass it through the witness search.  The walk visits only the
    subsets one or two labels below a subset whose entry is the bottom
    of a failed key (``_candidates``); every other subset holds no such
    key, so it asks check_square nothing there.  No set of keys passed
    that way is kept: a later block or call screens such a key out
    again and its walk asks check_square again, a cache hit.  The walk
    stops at the first violation, which is therefore the same, found by
    the same witness searches, as a walk over every key.  Only a block
    that passes adds its cubes to the certified ones.
    """
    code = memo.number(m)
    e = len(m.labels)
    t = max(e - 5, min(e, 3))  # blocks of 2^t subsets, at most 32 of them
    top = memo.tree(code, t)
    for j in range(len(top)):
        keys, new = memo.block_keys(top, t, e, j)
        bad = memo.screen(keys)
        if bad:
            masks = _candidates(code, j << t, t, e, bad)
            v = _walk(m.labels, code, memo.groups, masks, bad)
            if v is not None:
                return Verdict((v,))
        for k, cubes in new:
            memo.done[k] |= cubes
    return Verdict()


def is_matroid(m: ZMatroid) -> Verdict:
    """Check the axiom on every (A, b, c), including b = c."""
    global _memo
    try:
        return _scan(m, _memo)
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
    return ZMatroid.from_code(m.labels, m.entries.__getitem__, m.code, True)


def _drop_label(labels: tuple[str, ...], a: str) -> tuple[tuple[str, ...], int]:
    if a not in labels:
        raise KeyError(f"unknown label {a!r}")
    pos = labels.index(a)
    return labels[:pos] + labels[pos + 1 :], pos


def _minor(m: ZMatroid, a: str, bit: int) -> ZMatroid:
    """The subsets whose bit for ``a`` is ``bit``, with ``a`` dropped: in
    mask order, runs of 2^pos entries at a stride of 2^(pos+1).  There
    are 2^(e-1-pos) runs; when they outnumber the 2^pos offsets within a
    run, the entries are taken offset by offset instead, one strided
    slice each, so at most 2^((e-1)/2) slices are made."""
    labels, pos = _drop_label(m.labels, a)
    step, code = 1 << pos, m.code
    start, stride, half = bit << pos, step << 1, len(code) >> 1
    if step * step < half:
        kept = [0] * half
        for k in range(step):
            kept[k::step] = code[start + k::stride]
    else:
        kept = chain.from_iterable(code[i:i + step] for i in range(start, len(code), stride))
    return ZMatroid.from_code(labels, m.entries.__getitem__, tuple(kept), m.verified)


def delete(m: ZMatroid, a: str) -> ZMatroid:
    return _minor(m, a, 0)


def contract(m: ZMatroid, a: str) -> ZMatroid:
    return _minor(m, a, 1)


def essentialize(m: ZMatroid) -> tuple[ZMatroid, int]:
    """Strip the free summand shared by the whole table.

    The split rank is the rank at the full subset; every entry loses that
    much free rank.  Entries of a matroid can never have less, so a
    negative remainder signals a non-matroid input.
    """
    split = m.entries[m.code[m.full]].rank
    if split == 0:
        return m, 0
    for g in m.entries:
        if g.rank < split:
            raise ValueError("table rank dips below the rank at the full subset")
    entries = [FgAbGroup(g.rank - split, g.factors) for g in m.entries]
    return ZMatroid.from_code(m.labels, entries.__getitem__, m.code, m.verified), split


def generic_rank(m: ZMatroid) -> dict[int, int]:
    """Rank function of the matroid seen by the rational numbers."""
    r0 = m.entries[m.code[0]].rank
    ranks = [r0 - g.rank for g in m.entries]
    return dict(enumerate(map(ranks.__getitem__, m.code)))


def localize_matroid(m: ZMatroid, p: int) -> DvrMatroid:
    local = [localize(g, p) for g in m.entries]
    return DvrMatroid.from_code(m.labels, local.__getitem__, m.code)


def matroid_support_primes(m: ZMatroid) -> tuple[int, ...]:
    return support_primes(*m.entries)
