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
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .abgroups import INF, d_leq
from .matroids import DvrMatroid, labels_of, popcount, subsets

# largest ground set the exhaustive flag scan accepts
FLAG_SCAN_MAX_LABELS = 8


@dataclass(frozen=True)
class HeightFunction:
    labels: tuple[str, ...]
    n: object  # horizon: positive int or INF
    values: tuple  # indexed by subset bitmask; entries int or INF


@dataclass(frozen=True)
class TropicalViolation:
    relation: str
    terms: tuple
    argmin: str


@dataclass(frozen=True)
class TropicalVerdict:
    ok: bool
    violations: tuple[TropicalViolation, ...] = ()


def heights(m: DvrMatroid, n) -> HeightFunction:
    if n is not INF and n < 1:
        raise ValueError("horizon must be at least 1")
    return HeightFunction(
        m.labels, n, tuple(d_leq(g, n) for g in m.table)
    )


def _fmt(x) -> str:
    return "INF" if x is INF or (isinstance(x, float) and math.isinf(x)) else str(x)


def three_term_check(h: HeightFunction) -> TropicalVerdict:
    """Minimum of the three pair sums attained at least twice, for all (A, bcd)."""
    p = h.values
    lab = h.labels
    e = len(lab)
    bad = []
    for a in subsets(e):
        outside = [i for i in range(e) if not a >> i & 1]
        for b, c, d in combinations(outside, 3):
            ab, ac, ad = a | 1 << b, a | 1 << c, a | 1 << d
            terms = (p[ab] + p[ac | 1 << d], p[ac] + p[ab | 1 << d], p[ad] + p[ab | 1 << c])
            lo = min(terms)
            if terms.count(lo) < 2:
                which = terms.index(lo)
                bad.append(TropicalViolation(
                    f"three-term A={{{','.join(labels_of(lab, a))}}} "
                    f"b={lab[b]} c={lab[c]} d={lab[d]}",
                    terms,
                    f"term {which + 1} = {_fmt(lo)}",
                ))
    return TropicalVerdict(not bad, tuple(bad))


def _exchange_check(h: HeightFunction, size: int | None) -> TropicalVerdict:
    """Single-element exchanges over pairs |A| <= |B|, one decision per relation.

    The instance (A, B, a), for a in A minus B and B minus A non-empty,
    has the terms p[X + c] + p[Z - c] for c in Z minus X, where
    X = A - a and Z = B + a: first c = a (the untouched pair (A, B)),
    then B minus A in label order.  Every instance of one class (X, Z)
    has the same terms, so each class with |Z| >= |X| + 2 is decided
    once, and only a violating class expands into its instances, listed
    in (A, B, a) order.  ``size`` restricts A and B to subsets of that
    size, that is |X| = size - 1 and |Z| = size + 1.
    """
    p = h.values
    lab = h.labels
    e = len(lab)
    if size is None:
        walks = [(k, range(k + 2, e + 1)) for k in range(e - 1)]
    else:
        walks = [(size - 1, (size + 1,))] if 0 < size < e else []
    if not walks:
        return TropicalVerdict(True)
    # the bit positions of every subset, and its heights with one bit flipped
    pos = [[i for i in range(e) if m >> i & 1] for m in subsets(e)]
    flip = [[p[m ^ 1 << i] for i in range(e)] for m in subsets(e)]
    by_size = [[] for _ in range(e + 1)]
    for m in subsets(e):
        by_size[len(pos[m])].append(m)
    found = []
    for k, z_sizes in walks:
        for x in by_size[k]:
            up = flip[x]  # p[X + c] for c outside X
            outside = ~x
            for z_size in z_sizes:
                for z in by_size[z_size]:
                    down = flip[z]  # p[Z - c] for c in Z
                    terms = [up[c] + down[c] for c in pos[z & outside]]
                    if terms.count(min(terms)) < 2:  # all-INF terms count in full
                        found.append((x, z, terms))

    def name(m):
        return "{" + ",".join(labels_of(lab, m)) + "}"

    bad = []
    for x, z, terms in found:
        cs = pos[z & ~x]
        lo = min(terms)
        # the minimum is unique, so every instance names the same pair
        c = cs[terms.index(lo)]
        argmin = f"({name(x | 1 << c)},{name(z ^ 1 << c)}) = {_fmt(lo)}"
        for j, a in enumerate(cs):
            swapped = terms[j:j + 1] + terms[:j] + terms[j + 1:]
            bad.append((x | 1 << a, z ^ 1 << a, a, swapped, argmin))
    bad.sort()  # (A, B, a) tells instances apart, so terms are never compared
    return TropicalVerdict(not bad, tuple(
        TropicalViolation(f"exchange A={name(am)} B={name(bm)} a={lab[a]}", tuple(terms), argmin)
        for am, bm, a, terms, argmin in bad
    ))


def single_exchange_check(h: HeightFunction) -> TropicalVerdict:
    """Every exchange of one element between subset pairs, all sizes."""
    return _exchange_check(h, None)


def dressian_check(h: HeightFunction, r: int) -> TropicalVerdict:
    """Single exchanges restricted to pairs of r-subsets."""
    if not 0 <= r <= len(h.labels):
        raise ValueError(f"r must lie in 0..{len(h.labels)}")
    return _exchange_check(h, r)


def flag_pluecker_scan(
    h: HeightFunction, sink: Callable[[str], None] | None = None
) -> TropicalVerdict:
    """Exhaustive multi-element exchange sweep; evidence, not a theorem.

    For each pair A, B with |A| <= |B|, each splitting A = A_f + A_e,
    B = B_f + B_e with A n B kept inside A_f n B_f and
    |A_e| + |B_e| = |B \\ A| + 1, the terms redistribute the pot
    C = A_e + B_e over the two sides in all ways preserving |A_e|.
    Splittings with fewer than two terms carry no content and are
    skipped.  Every checked relation is logged through ``sink``.
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
    names = [",".join(labels_of(h.labels, m)) for m in subsets(e)]
    bad = []
    for a_mask in subsets(e):
        a_size = size[a_mask]
        for b_mask in subsets(e):
            if a_size > size[b_mask]:
                continue
            a_only = a_mask & ~b_mask
            b_only = b_mask & ~a_mask
            swap = size[b_only]  # |B \ A|
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
                        if sink is not None:
                            sink(
                                f"RELATION {names[af_mask]}|{names[ae_mask]}"
                                f"|{names[bf_mask]}|{names[be_mask]} "
                                f"MIN {_fmt(lo)} COUNT {k}"
                            )
                        if k < 2:
                            bad.append(TropicalViolation(
                                f"flag A_f={{{names[af_mask]}}} A_e={{{names[ae_mask]}}} "
                                f"B_f={{{names[bf_mask]}}} B_e={{{names[be_mask]}}}",
                                tuple(terms),
                                _fmt(lo),
                            ))
    return TropicalVerdict(not bad, tuple(bad))


def valuated_matroid_check(m: DvrMatroid) -> TropicalVerdict:
    """Dress-Wenzel exchange for v(A) = torsion length on bases.

    Bases: subsets of size rank(M(empty)) whose entry is pure torsion.
    Requires an essential table (rank 0 at the full subset).
    """
    if m.table[m.full].rank != 0:
        raise ValueError("input is not essential; essentialize first")
    e = len(m.labels)
    r = m.table[0].rank
    bases = {s for s in subsets(e) if popcount(s) == r and m.table[s].rank == 0}
    v = {s: m.table[s].length for s in bases}
    lab = m.labels
    bad = []
    ordered = sorted(bases)
    for a_mask in ordered:
        for b_mask in ordered:
            for i in range(e):
                if not (a_mask >> i & 1 and not b_mask >> i & 1):
                    continue
                ok = False
                for j in range(e):
                    if not (b_mask >> j & 1 and not a_mask >> j & 1):
                        continue
                    na = (a_mask & ~(1 << i)) | 1 << j
                    nb = (b_mask & ~(1 << j)) | 1 << i
                    if na in bases and nb in bases and v[a_mask] + v[b_mask] >= v[na] + v[nb]:
                        ok = True
                        break
                if not ok:
                    bad.append(TropicalViolation(
                        f"valuated A={{{','.join(labels_of(lab, a_mask))}}} "
                        f"B={{{','.join(labels_of(lab, b_mask))}}} a={lab[i]}",
                        (v[a_mask], v[b_mask]),
                        "no admissible exchange",
                    ))
    return TropicalVerdict(not bad, tuple(bad))
