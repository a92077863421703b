"""Tropical certificates extracted from one-prime module tables.

The height of a subset A at horizon n is d_{<=n} of its entry, the
residue dimension of the entry mod the n-th power of the maximal ideal.
For a verified table these heights tropically satisfy every three-term
relation and every exchange relation that moves a single element, which
is what membership in the corresponding Dressian asks for.  "Tropically
satisfy" means the minimum over the relation's term values is attained
at least twice; signs never matter for that, and a relation whose terms
are all infinite is vacuously fine (INF is ``math.inf``, so every such
term equals the minimum and is counted).

The full multi-element exchange family is only conjectured to hold, so
the scanner over all of it reports evidence instead of asserting, one
log line per relation:

    RELATION <A_f>|<A_e>|<B_f>|<B_e> MIN <value> COUNT <k>

Bases of an essential table (subsets of size rank(M(empty)) with torsion
entry) carry the valuation v = total torsion length; the Dress-Wenzel
exchange inequality for that valuation is checked directly.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable

from .abgroups import INF, d_leq
from .intmat import Record
from .matroids import DvrMatroid, Verdict, subset_keys, subsets

# largest ground set the exhaustive flag scan accepts
FLAG_SCAN_MAX_LABELS = 8


class HeightFunction(Record):
    # n: the horizon, a positive int or INF; values: indexed by subset
    # bitmask, entries int or INF
    __slots__ = ("labels", "n", "values")


class TropicalViolation(Record):
    __slots__ = ("relation", "terms", "argmin")


def heights(m: DvrMatroid, n) -> HeightFunction:
    if n < 1:
        raise ValueError("horizon must be at least 1")
    values = [d_leq(g, n) for g in m.entries]
    return HeightFunction(m.labels, n, tuple(map(values.__getitem__, m.code)))


def format_height(x) -> str:
    return "INF" if x == INF else str(x)


def three_term_check(h: HeightFunction) -> Verdict:
    """Minimum of the three pair sums attained at least twice, for all (A, bcd)."""
    p = h.values
    lab = h.labels
    e = len(lab)
    found = []
    for a in subsets(e):
        outside = [i for i in range(e) if not a >> i & 1]
        for b, c, d in combinations(outside, 3):
            ab, ac, ad = a | 1 << b, a | 1 << c, a | 1 << d
            terms = (p[ab] + p[ac | 1 << d], p[ac] + p[ab | 1 << d], p[ad] + p[ab | 1 << c])
            lo = min(terms)
            if terms.count(lo) < 2:
                found.append((a, b, c, d, terms, lo))
    if not found:
        return Verdict()
    keys = subset_keys(lab)
    return Verdict(tuple(
        TropicalViolation(f"three-term A={{{keys[a]}}} b={lab[b]} c={lab[c]} d={lab[d]}", terms,
                          f"term {terms.index(lo) + 1} = {format_height(lo)}")
        for a, b, c, d, terms, lo in found
    ))


class _Positions(dict):
    """The bit positions of each mask, ascending, found on first read."""

    def __missing__(self, m: int) -> list[int]:
        out = self[m] = [i for i in range(m.bit_length()) if m >> i & 1]
        return out


def _exchange_check(h: HeightFunction, size: int | None) -> Verdict:
    """Single-element exchanges over pairs |A| <= |B|, one decision per relation.

    The instance (A, B, a), for a in A minus B and B minus A non-empty,
    has the terms p[X + c] + p[Z - c] for c in Z minus X, where
    X = A - a and Z = B + a: first c = a (the untouched pair (A, B)),
    then B minus A in label order.  Every instance of one class (X, Z)
    has the same terms, so each class with |Z| >= |X| + 2 is decided
    once, and only a violating class expands into its instances, listed
    in (A, B, a) order.  A class whose X is level-up (p[X + c] is the
    same for every c outside X) and whose Z is level-down (p[Z - c] is
    the same for every c in Z) always holds: its terms all equal one
    sum, and there are at least two.  Realized heights are mostly level,
    so for a level-up X only the Z that are not level-down are walked.
    A class with X in Z and |Z| = |X| + 2 also always holds, its two
    terms both being p[X + c] + p[X + c'], but finding it costs more
    than deciding it, so it is decided like any other.
    ``size`` restricts A and B to subsets of that size, that is
    |X| = size - 1 and |Z| = size + 1.
    """
    p = h.values
    lab = h.labels
    e = len(lab)
    if size is None:
        walks = [(k, range(k + 2, e + 1)) for k in range(e - 1)]
    else:
        walks = [(size - 1, (size + 1,))] if 0 < size < e else []
    if not walks:
        return Verdict()
    # the subsets of the sizes walked, ascending, and their heights with
    # one bit flipped; bit positions as the walk reads them
    bits = [1 << i for i in range(e)]
    z_walked = set().union(*(zs for _, zs in walks))
    by_size = {k: sorted(map(sum, combinations(bits, k)))
               for k in z_walked.union(k for k, _ in walks)}
    flip = {m: [p[m ^ b] for b in bits] for ms in by_size.values() for m in ms}
    pos = _Positions()
    full = (1 << e) - 1
    # per Z size, the Z that are not level-down
    unlevel = {k: [z for z in by_size[k] if len(set(map(flip[z].__getitem__, pos[z]))) > 1]
               for k in z_walked}
    found = []
    for k, z_sizes in walks:
        for x in by_size[k]:
            up = flip[x]  # p[X + c] for c outside X
            outside = ~x
            # a level-up X fails only with a Z that is not level-down
            level = len(set(map(up.__getitem__, pos[full ^ x]))) == 1
            zs = unlevel if level else by_size
            for z_size in z_sizes:
                for z in zs[z_size]:
                    down = flip[z]  # p[Z - c] for c in Z
                    terms = [up[c] + down[c] for c in pos[z & outside]]
                    if terms.count(min(terms)) < 2:  # all-INF terms count in full
                        found.append((x, z, terms))
    if not found:
        return Verdict()
    keys = subset_keys(lab)
    bad = []
    for x, z, terms in found:
        cs = pos[z & ~x]
        lo = min(terms)
        # the minimum is unique, so every instance names the same pair
        c = cs[terms.index(lo)]
        argmin = f"({{{keys[x | 1 << c]}}},{{{keys[z ^ 1 << c]}}}) = {format_height(lo)}"
        for j, a in enumerate(cs):
            swapped = terms[j:j + 1] + terms[:j] + terms[j + 1:]
            bad.append((x | 1 << a, z ^ 1 << a, a, swapped, argmin))
    bad.sort()  # (A, B, a) tells instances apart, so terms are never compared
    return Verdict(tuple(
        TropicalViolation(f"exchange A={{{keys[am]}}} B={{{keys[bm]}}} a={lab[a]}", tuple(terms),
                          argmin)
        for am, bm, a, terms, argmin in bad
    ))


def single_exchange_check(h: HeightFunction) -> Verdict:
    """Every exchange of one element between subset pairs, all sizes."""
    return _exchange_check(h, None)


def dressian_check(h: HeightFunction, r: int) -> Verdict:
    """Single exchanges restricted to pairs of r-subsets."""
    if not 0 <= r <= len(h.labels):
        raise ValueError(f"r must lie in 0..{len(h.labels)}")
    return _exchange_check(h, r)


def flag_pluecker_scan(h: HeightFunction, sink: Callable[[str], None]) -> Verdict:
    """Exhaustive multi-element exchange sweep; evidence, not a theorem.

    For each pair A, B with |A| <= |B|, each splitting A = A_f + A_e,
    B = B_f + B_e with A n B kept inside A_f n B_f and
    |A_e| + |B_e| = |B \\ A| + 1, the terms redistribute the pot
    C = A_e + B_e over the two sides in all ways preserving |A_e|.
    Splittings with fewer than two terms carry no content and are
    skipped.  Every checked relation is logged through ``sink``.

    Each term of a pair is p[I + L] + p[I + D - L] for some L in D with
    |L| = |A \\ B|, where I = A n B and D = A xor B.  When these sums all
    agree the pair is level: each of its relations has that sum as MIN,
    all C(|B \\ A| + 1, |A_e|) terms at it, and no violation, so its lines
    are written without building terms.  A pair with |A \\ B| = 1 has a
    single relation and is decided directly.
    """
    e = len(h.labels)
    if e > FLAG_SCAN_MAX_LABELS:
        raise ValueError(f"flag scan is capped at {FLAG_SCAN_MAX_LABELS} labels")
    p = h.values
    # subs[m][k]: the k-element submasks of m in the order combinations()
    # gives over m's bit positions (those holding m's lowest bit first)
    subs = [[[0]]]
    for m in range(1, 1 << e):
        low = m & -m
        rest = subs[m ^ low]
        subs.append([rest[0]] + [
            [low | s for s in rest[k - 1]] + (rest[k] if k < len(rest) else [])
            for k in range(1, len(rest) + 1)
        ])
    size = [len(t) - 1 for t in subs]
    names = subset_keys(h.labels)
    # wide[k]: the masks of at least k elements, in ascending order
    wide = [[m for m in subsets(e) if size[m] >= k] for k in range(e + 1)]
    bad = []
    for a_mask in subsets(e):
        for b_mask in wide[size[a_mask]]:
            a_only = a_mask & ~b_mask
            if not a_only:
                continue
            b_only = b_mask & ~a_mask
            swap = size[b_only]  # |B \ A|
            # is the pair level (see above)?  With |A \ B| = 1 it has one
            # relation, whose terms are all the sums: testing gains nothing
            if a_only & a_only - 1:
                both = a_mask & b_mask
                diff = a_only | b_only
                ls = subs[diff][size[a_only]]
                s = ls[-1]  # compared last, so a pair that is not level stops early
                lo = p[both | s] + p[both | diff ^ s]
                for s in ls:
                    if p[both | s] + p[both | diff ^ s] != lo:
                        break
                else:
                    min_count = f" MIN {format_height(lo)} COUNT "
                    for ae_size in range(1, size[a_only] + 1):
                        tail = f"{min_count}{math.comb(swap + 1, ae_size)}"
                        ends = [f"|{names[b_mask ^ be_mask]}|{names[be_mask]}{tail}"
                                for be_mask in subs[b_only][swap + 1 - ae_size]]
                        for ae_mask in subs[a_only][ae_size]:
                            head = f"RELATION {names[a_mask ^ ae_mask]}|{names[ae_mask]}"
                            for end in ends:
                                sink(head + end)
                    continue
            # |A_e| + |B_e| = swap + 1; as |A \ B| <= swap, B_e is never
            # empty, and an empty A_e would leave a single term
            for ae_size in range(1, size[a_only] + 1):
                be_all = subs[b_only][swap + 1 - ae_size]
                for ae_mask in subs[a_only][ae_size]:
                    af_mask = a_mask ^ ae_mask
                    for be_mask in be_all:
                        bf_mask = b_mask ^ be_mask
                        pot = ae_mask | be_mask
                        terms = [p[af_mask | s] + p[bf_mask | pot ^ s] for s in subs[pot][ae_size]]
                        lo = min(terms)
                        k = terms.count(lo)  # all-INF terms count in full: vacuous
                        # format_height(lo), inlined: this runs once per relation
                        sink(
                            f"RELATION {names[af_mask]}|{names[ae_mask]}"
                            f"|{names[bf_mask]}|{names[be_mask]} "
                            f"MIN {'INF' if lo == INF else lo} COUNT {k}"
                        )
                        if k < 2:
                            bad.append(TropicalViolation(
                                f"flag A_f={{{names[af_mask]}}} A_e={{{names[ae_mask]}}} "
                                f"B_f={{{names[bf_mask]}}} B_e={{{names[be_mask]}}}",
                                tuple(terms),
                                format_height(lo),
                            ))
    return Verdict(tuple(bad))


def valuated_matroid_check(m: DvrMatroid) -> Verdict:
    """Dress-Wenzel exchange for v(A) = torsion length on bases.

    Bases: subsets of size rank(M(empty)) whose entry is pure torsion.
    Requires an essential table (rank 0 at the full subset).
    """
    rank, code = [g.rank for g in m.entries], m.code
    if rank[code[m.full]] != 0:
        raise ValueError("input is not essential; essentialize first")
    e = len(m.labels)
    r = rank[code[0]]
    bases = {s for s in subsets(e) if s.bit_count() == r and rank[code[s]] == 0}
    length = [g.length for g in m.entries]
    v = {s: length[code[s]] for s in bases}
    found = []
    ordered = sorted(bases)
    pos = {s: [i for i in range(e) if s >> i & 1] for s in ordered}
    for a_mask in ordered:
        for b_mask in ordered:
            if a_mask == b_mask:
                continue
            b_only = [j for j in pos[b_mask] if not a_mask >> j & 1]
            for i in pos[a_mask]:
                if b_mask >> i & 1:
                    continue
                for j in b_only:
                    na = (a_mask & ~(1 << i)) | 1 << j
                    nb = (b_mask & ~(1 << j)) | 1 << i
                    if na in bases and nb in bases and v[a_mask] + v[b_mask] >= v[na] + v[nb]:
                        break
                else:
                    found.append((a_mask, b_mask, i))
    if not found:
        return Verdict()
    lab, keys = m.labels, subset_keys(m.labels)
    return Verdict(tuple(
        TropicalViolation(f"valuated A={{{keys[a]}}} B={{{keys[b]}}} a={lab[i]}", (v[a], v[b]),
                          "no admissible exchange")
        for a, b, i in found
    ))
