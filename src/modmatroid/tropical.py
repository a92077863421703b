"""Tropical certificates extracted from one-prime module tables.

The height of a subset A at horizon n is d_{<=n} of its entry, the
residue dimension of the entry mod the n-th power of the maximal ideal.
For a verified table these heights tropically satisfy every three-term
relation and every exchange relation that moves a single element, which
is what membership in the corresponding Dressian asks for.  "Tropically
satisfy" means the minimum over the relation's term values is attained
at least twice; signs never matter for that, and a relation whose terms
are all infinite is vacuously fine.

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

    def value(self, subset_labels) -> object:
        mask = 0
        for a in subset_labels:
            mask |= 1 << self.labels.index(a)
        return self.values[mask]


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


def _min_count(values):
    lo = min(values)
    if isinstance(lo, float) and math.isinf(lo):
        return lo, len(values)  # all infinite: vacuous
    return lo, sum(1 for v in values if v == lo)


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
            lo, k = _min_count(terms)
            if k < 2:
                which = terms.index(lo)
                bad.append(TropicalViolation(
                    f"three-term A={{{','.join(labels_of(lab, a))}}} "
                    f"b={lab[b]} c={lab[c]} d={lab[d]}",
                    terms,
                    f"term {which + 1} = {_fmt(lo)}",
                ))
    return TropicalVerdict(not bad, tuple(bad))


def _exchange_check(h: HeightFunction, size: int | None) -> TropicalVerdict:
    """Single-element exchanges over pairs |A| <= |B|, in one streamed pass.

    The instance (A, B, a) for a in A minus B swaps a against each b in
    B minus A, in label order; its first term is the untouched pair
    (A, B).  Instances with B minus A empty have one term and are
    skipped.  ``size`` restricts A and B to subsets of that size.
    """
    p = h.values
    lab = h.labels
    e = len(lab)
    # the one-bit masks of every subset, lowest label first
    ones = [[1 << i for i in range(e) if m >> i & 1] for m in subsets(e)]
    masks = subsets(e) if size is None else [m for m in subsets(e) if len(ones[m]) == size]
    bad = []
    for a_mask in masks:
        pa = p[a_mask]
        na = len(ones[a_mask])
        for b_mask in masks:
            swap_in = ones[b_mask & ~a_mask]
            if not swap_in or len(ones[b_mask]) < na:
                continue
            base = pa + p[b_mask]
            for out in ones[a_mask & ~b_mask]:
                a_out = a_mask ^ out
                b_in = b_mask | out
                terms = [base]
                terms += [p[a_out | s] + p[b_in ^ s] for s in swap_in]
                lo = min(terms)
                if terms.count(lo) > 1:  # the common case, decided without _min_count
                    continue
                lo, k = _min_count(terms)
                if k > 1:
                    continue
                which = terms.index(lo)
                x, y = (a_mask, b_mask) if which == 0 else (
                    a_out | swap_in[which - 1], b_in ^ swap_in[which - 1])
                bad.append(TropicalViolation(
                    f"exchange A={{{','.join(labels_of(lab, a_mask))}}} "
                    f"B={{{','.join(labels_of(lab, b_mask))}}} "
                    f"a={lab[out.bit_length() - 1]}",
                    tuple(terms),
                    f"({{{','.join(labels_of(lab, x))}}},"
                    f"{{{','.join(labels_of(lab, y))}}}) = {_fmt(lo)}",
                ))
    return TropicalVerdict(not bad, tuple(bad))


def single_exchange_check(h: HeightFunction) -> TropicalVerdict:
    """Every exchange of one element between subset pairs, all sizes."""
    return _exchange_check(h, None)


def dressian_check(h: HeightFunction, r: int) -> TropicalVerdict:
    """Single exchanges restricted to pairs of r-subsets."""
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
    lab = h.labels
    def names(mask: int) -> str:
        return ",".join(labels_of(lab, mask))
    bad = []
    for a_mask in subsets(e):
        a_bits = [i for i in range(e) if a_mask >> i & 1]
        for b_mask in subsets(e):
            if popcount(a_mask) > popcount(b_mask):
                continue
            swap = popcount(b_mask & ~a_mask)  # |B \ A|
            a_only = [i for i in a_bits if not b_mask >> i & 1]
            b_only = [j for j in range(e) if b_mask >> j & 1 and not a_mask >> j & 1]
            for ae_size in range(1, len(a_only) + 1):
                be_size = swap + 1 - ae_size
                if be_size < 1 or be_size > len(b_only):
                    # fewer than two terms (or impossible): nothing to check
                    continue
                for ae in combinations(a_only, ae_size):
                    ae_mask = 0
                    for i in ae:
                        ae_mask |= 1 << i
                    af_mask = a_mask & ~ae_mask
                    for be in combinations(b_only, be_size):
                        be_mask = 0
                        for j in be:
                            be_mask |= 1 << j
                        bf_mask = b_mask & ~be_mask
                        pot = sorted(ae + be)
                        terms = []
                        for new_ae in combinations(pot, ae_size):
                            na = 0
                            for i in new_ae:
                                na |= 1 << i
                            terms.append(p[af_mask | na] + p[bf_mask | (ae_mask | be_mask) & ~na])
                        lo, k = _min_count(terms)
                        if sink is not None:
                            sink(
                                f"RELATION {names(af_mask)}|{names(ae_mask)}"
                                f"|{names(bf_mask)}|{names(be_mask)} "
                                f"MIN {_fmt(lo)} COUNT {k}"
                            )
                        if k < 2:
                            bad.append(TropicalViolation(
                                f"flag A_f={{{names(af_mask)}}} A_e={{{names(ae_mask)}}} "
                                f"B_f={{{names(bf_mask)}}} B_e={{{names(be_mask)}}}",
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
    for a_mask in sorted(bases):
        for b_mask in sorted(bases):
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
