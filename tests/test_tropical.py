import itertools
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modmatroid.abgroups import DMod, INF
from modmatroid.matroids import (
    DvrMatroid,
    Realization,
    essentialize,
    from_realization,
    labels_of,
    localize_matroid,
    matroid_support_primes,
    random_realization,
    subsets,
)
from modmatroid.tropical import (
    HeightFunction,
    TropicalVerdict,
    TropicalViolation,
    _fmt,
    dressian_check,
    flag_pluecker_scan,
    heights,
    single_exchange_check,
    three_term_check,
    valuated_matroid_check,
)
from tables import height

GCD_LINE = Realization(("1", "2", "3"), [[]], [[1, 2, 4]])


def _loc(r: Realization, p: int) -> DvrMatroid:
    return localize_matroid(from_realization(r), p)


def test_heights_frozen():
    m = _loc(GCD_LINE, 2)
    h = heights(m, 2)
    assert h.values == (2, 0, 1, 0, 2, 0, 1, 0)
    assert height(h, ("2",)) == 1 and height(h, ()) == 2
    h1 = heights(m, 1)
    assert h1.values == (1, 0, 1, 0, 1, 0, 1, 0)
    hinf = heights(m, INF)
    assert hinf.values == (INF, 0, 1, 0, 2, 0, 1, 0)


def test_heights_horizon_validation():
    m = _loc(GCD_LINE, 2)
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        heights(m, 0)


def test_minus_infinity_is_not_inf():
    m = _loc(GCD_LINE, 2)
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        heights(m, -math.inf)
    assert (_fmt(INF), _fmt(-math.inf), _fmt(3)) == ("INF", "-inf", "3")


def test_three_term_ok_on_verified_table():
    for n in (1, 2, 3, INF):
        assert three_term_check(heights(_loc(GCD_LINE, 2), n)).ok


def test_three_term_violation_frozen():
    h = HeightFunction(("1", "2", "3"), 2, (2, 0, 1, 0, 2, 0, 9, 0))
    v = three_term_check(h)
    assert not v.ok and len(v.violations) == 1
    w = v.violations[0]
    assert w.relation == "three-term A={} b=1 c=2 d=3"
    assert w.terms == (9, 1, 2)
    assert w.argmin == "term 2 = 1"


def test_single_exchange_ok_and_violation():
    for n in (1, 2, INF):
        assert single_exchange_check(heights(_loc(GCD_LINE, 2), n)).ok
    h = HeightFunction(("1", "2", "3"), 1, (0, 0, 1, 1, 1, 1, 0, 0))
    v = single_exchange_check(h)
    assert not v.ok
    w = v.violations[0]
    assert w.relation == "exchange A={1} B={2,3} a=1"
    assert w.terms == (0, 2, 2)
    assert w.argmin == "({1},{2,3}) = 0"


def test_dressian_restriction():
    h = heights(_loc(GCD_LINE, 2), 2)
    assert dressian_check(h, 1).ok
    assert dressian_check(h, 2).ok


@pytest.mark.parametrize("r", [-1, 4])
def test_dressian_rank_out_of_range(r):
    h = heights(_loc(GCD_LINE, 2), 2)
    with pytest.raises(ValueError, match=r"r must lie in 0\.\.3"):
        dressian_check(h, r)


def test_flag_scan_evidence_lines():
    h = heights(_loc(GCD_LINE, 2), 2)
    lines: list[str] = []
    v = flag_pluecker_scan(h, sink=lines.append)
    assert v.ok
    assert lines
    pat = re.compile(r"^RELATION [0-9,]*\|[0-9,]+\|[0-9,]*\|[0-9,]+ MIN (\d+|INF) COUNT \d+$")
    for line in lines:
        assert pat.match(line), line
    # every logged relation met the attained-twice condition
    assert all(int(line.rsplit(" ", 1)[1]) >= 2 for line in lines)


def test_flag_scan_violation_frozen():
    # the GCD-line heights at n = 2 with the entry at {1} raised by one
    h = HeightFunction(("1", "2", "3"), 2, (2, 1, 1, 0, 2, 0, 1, 0))
    lines: list[str] = []
    v = flag_pluecker_scan(h, sink=lines.append)
    assert not v.ok and len(v.violations) == 3 and len(lines) == 15
    w = v.violations[0]
    assert w.relation == "flag A_f={} A_e={1} B_f={} B_e={2,3}"
    assert w.terms == (2, 1, 2)
    assert w.argmin == "1"
    assert [line for line in lines if line.endswith(" COUNT 1")] == [
        "RELATION |1||2,3 MIN 1 COUNT 1",
        "RELATION |2||1,3 MIN 1 COUNT 1",
        "RELATION |3||1,2 MIN 1 COUNT 1",
    ]


def test_flag_scan_cap():
    labels = tuple("abcdefghi")
    h = HeightFunction(labels, 1, (0,) * (1 << 9))
    with pytest.raises(ValueError, match="capped at 8 labels"):
        flag_pluecker_scan(h)


def test_valuated_ok_on_verified_table():
    assert valuated_matroid_check(_loc(GCD_LINE, 2)).ok
    good = _loc(Realization(("1", "2"), [[4, 0], [0, 2]], [[1, 1], [0, 1]]), 2)
    assert valuated_matroid_check(good).ok


def test_valuated_requires_essential():
    free = _loc(Realization(("a",), [[], []], [[1], [0]]), 2)
    with pytest.raises(ValueError, match="essentialize first"):
        valuated_matroid_check(free)


def test_valuated_violation_frozen():
    labels = ("1", "2", "3", "4")
    base_v = {3: 0, 5: 5, 6: 5, 9: 5, 10: 5, 12: 0}
    table = []
    for s in range(16):
        bits = bin(s).count("1")
        if bits == 2:
            table.append(DMod(0, (base_v[s],) if base_v[s] else ()))
        elif bits < 2:
            table.append(DMod(2 - bits, ()))
        else:
            table.append(DMod(0, ()))
    m = DvrMatroid(labels, tuple(table))
    v = valuated_matroid_check(m)
    assert not v.ok
    w = v.violations[0]
    assert w.relation == "valuated A={1,2} B={3,4} a=1"
    assert w.terms == (0, 0)
    assert w.argmin == "no admissible exchange"


def test_valuated_violations_across_two_labels():
    # rank 2 on four labels: only the bases {1,2} and {3,4}, which differ
    # in two labels, have low valuations, so neither exchange from one to
    # the other keeps v(A) + v(B) >= v(A - a + b) + v(B - b + a)
    low = {3: (), 12: (1,)}  # v({1,2}) = 0, v({3,4}) = 1, every other basis 2
    m = DvrMatroid(("1", "2", "3", "4"), tuple(
        DMod(2 - s.bit_count()) if s.bit_count() < 2
        else DMod(0, low.get(s, (2,))) if s.bit_count() == 2 else DMod(0)
        for s in range(16)))
    got = valuated_matroid_check(m)
    assert got == _ref_valuated(m)
    assert [(w.relation, w.terms) for w in got.violations] == [
        ("valuated A={1,2} B={3,4} a=1", (0, 1)),
        ("valuated A={1,2} B={3,4} a=2", (0, 1)),
        ("valuated A={3,4} B={1,2} a=3", (1, 0)),
        ("valuated A={3,4} B={1,2} a=4", (1, 0)),
    ]


def _ref_valuated(m: DvrMatroid) -> TropicalVerdict:
    """The exchange loop over every i, j in range(e), kept as it was written."""
    rank, code = [g.rank for g in m.entries], m.code
    if rank[code[m.full]] != 0:
        raise ValueError("input is not essential; essentialize first")
    e = len(m.labels)
    r = rank[code[0]]
    bases = {s for s in subsets(e) if s.bit_count() == r and rank[code[s]] == 0}
    length = [g.length for g in m.entries]
    v = {s: length[code[s]] for s in bases}
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


def _valuated_tables():
    """Realized essential tables at 4-6 labels with bases of 2 or more
    labels, then the same tables with the lengths of two bases raised, then
    random tables at 4-6 labels whose r-subsets (r = 2, 3) carry random
    lengths, a fifth of them not bases."""
    rng = random.Random(23)
    realized = []
    while len(realized) < 15:
        real = random_realization(rng, max_dim=4, n_labels=rng.randint(4, 6), max_entry=6)
        ess, _ = essentialize(from_realization(real))
        loc = localize_matroid(ess, (matroid_support_primes(ess) or (2,))[0])
        if loc.table[0].rank >= 2:
            realized.append(loc)
    perturbed = []
    for loc in realized:
        r = loc.table[0].rank
        table = list(loc.table)
        bases = [s for s in range(len(table)) if s.bit_count() == r and not table[s].rank]
        for s in rng.sample(bases, min(2, len(bases))):
            table[s] = DMod(0, (table[s].max_exp + rng.randint(1, 2),) + table[s].exps)
        perturbed.append(DvrMatroid(loc.labels, tuple(table)))
    synthetic = []
    for _ in range(30):
        e = rng.randint(4, 6)
        r = rng.randint(2, 3)
        table = []
        for s in range(1 << e):
            size = s.bit_count()
            if size < r or size == r and rng.random() < 0.2:
                table.append(DMod(max(1, r - size)))
            else:
                n = rng.randint(0, 3) if size == r else 0
                table.append(DMod(0, (n,) if n else ()))
        synthetic.append(DvrMatroid(tuple("abcdef"[:e]), tuple(table)))
    return realized + perturbed + synthetic


def test_valuated_matches_reference_loop():
    tables = _valuated_tables()
    verdicts = [_ref_valuated(m) for m in tables]
    assert [valuated_matroid_check(m) for m in tables] == verdicts
    # realized tables pass; raised lengths violate, often more than once
    assert all(v.ok for v in verdicts[:15])
    assert sum(not v.ok for v in verdicts[15:30]) > 5, verdicts[15:30]
    assert sum(not v.ok for v in verdicts[30:]) > 15
    assert max(len(v.violations) for v in verdicts) > 5


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_certificates_hold_generically(seed):
    rng = random.Random(seed)
    m = from_realization(random_realization(rng, max_dim=3, max_labels=5, max_entry=6))
    for p in matroid_support_primes(m) or (2,):
        loc = localize_matroid(m, p)
        for n in (1, 2, 3, INF):
            h = heights(loc, n)
            assert three_term_check(h).ok
            assert single_exchange_check(h).ok
        if loc.table[loc.full].rank == 0:
            assert valuated_matroid_check(loc).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_heights_monotone_in_horizon(seed):
    rng = random.Random(seed)
    m = from_realization(random_realization(rng, max_dim=3, max_labels=4, max_entry=6))
    loc = localize_matroid(m, 2)
    prev = heights(loc, 1).values
    for n in (2, 3, 4):
        cur = heights(loc, n).values
        assert all(a <= b for a, b in zip(prev, cur))
        prev = cur
    top = heights(loc, INF).values
    assert all(a <= b for a, b in zip(prev, top))


# --- reference: the relation families enumerated in full, then checked ---


def _ref_min_count(values):
    lo = min(values)
    if lo == INF:
        return lo, len(values)
    return lo, sum(1 for v in values if v == lo)


def _names(lab, mask):
    return ",".join(lab[i] for i in range(len(lab)) if mask >> i & 1)


def _ref_three_term(h):
    lab, p, e = h.labels, h.values, len(h.labels)
    rels = []
    for a in range(1 << e):
        outside = [i for i in range(e) if not a >> i & 1]
        for b, c, d in itertools.combinations(outside, 3):
            rels.append((a, b, c, d, (
                (a | 1 << b, a | 1 << c | 1 << d),
                (a | 1 << c, a | 1 << b | 1 << d),
                (a | 1 << d, a | 1 << b | 1 << c),
            )))
    bad = []
    for a, b, c, d, pairs in rels:
        terms = tuple(p[x] + p[y] for x, y in pairs)
        lo, k = _ref_min_count(terms)
        if k < 2:
            bad.append(TropicalViolation(
                f"three-term A={{{_names(lab, a)}}} b={lab[b]} c={lab[c]} d={lab[d]}",
                terms, f"term {terms.index(lo) + 1} = {'INF' if lo == INF else lo}"))
    return TropicalVerdict(not bad, tuple(bad))


def _ref_exchange(h, size=None):
    lab, p, e = h.labels, h.values, len(h.labels)
    pop = int.bit_count
    rels = []
    for a in range(1 << e):
        for b in range(1 << e):
            if pop(a) > pop(b) or size is not None and not pop(a) == pop(b) == size:
                continue
            swap_in = [j for j in range(e) if b >> j & 1 and not a >> j & 1]
            if not swap_in:
                continue
            for i in range(e):
                if a >> i & 1 and not b >> i & 1:
                    pairs = [(a, b)] + [((a & ~(1 << i)) | 1 << j, (b | 1 << i) & ~(1 << j))
                                        for j in swap_in]
                    rels.append((a, b, i, pairs))
    bad = []
    for a, b, i, pairs in rels:
        terms = tuple(p[x] + p[y] for x, y in pairs)
        lo, k = _ref_min_count(terms)
        if k < 2:
            x, y = pairs[terms.index(lo)]
            bad.append(TropicalViolation(
                f"exchange A={{{_names(lab, a)}}} B={{{_names(lab, b)}}} a={lab[i]}",
                terms, f"({{{_names(lab, x)}}},{{{_names(lab, y)}}}) = "
                       f"{'INF' if lo == INF else lo}"))
    return TropicalVerdict(not bad, tuple(bad))


def _reference_heights():
    """Realized heights at e <= 6, perturbed copies, and copies with INF entries."""
    rng = random.Random(31)
    out = [HeightFunction((), 1, (0,)), HeightFunction((), INF, (INF,))]
    for e in range(1, 7):
        for _ in range(2):
            m = from_realization(random_realization(rng, max_dim=3, n_labels=e, max_entry=6))
            p = (matroid_support_primes(m) or (2,))[0]
            loc = localize_matroid(m, p)
            for n in (1, 2, INF):
                h = heights(loc, n)
                out.append(h)
                for _ in range(2):
                    v = list(h.values)
                    for s in rng.sample(range(len(v)), min(len(v), 3)):
                        v[s] = max(0, v[s] + rng.choice((-2, -1, 1, 2))) if v[s] != INF else 1
                    out.append(HeightFunction(h.labels, n, tuple(v)))
                v = list(h.values)
                for s in rng.sample(range(len(v)), max(1, len(v) // 4)):
                    v[s] = INF
                out.append(HeightFunction(h.labels, n, tuple(v)))
    return out


def test_streamed_sweeps_match_reference():
    failing = {"three-term": 0, "exchange": 0, "dressian": 0}
    inf_terms = 0
    for h in _reference_heights():
        e = len(h.labels)
        pairs = [("three-term", three_term_check(h), _ref_three_term(h)),
                 ("exchange", single_exchange_check(h), _ref_exchange(h))]
        pairs += [("dressian", dressian_check(h, r), _ref_exchange(h, r)) for r in range(e + 1)]
        for name, got, want in pairs:
            assert got == want, (name, h)
            failing[name] += not want.ok
            inf_terms += sum(INF in v.terms for v in want.violations)
    # the inputs do exercise violations of every family and INF-valued terms
    assert all(failing.values()) and inf_terms, (failing, inf_terms)


def _ref_flag_scan(h, sink=None):
    """The flag scan spelled out with combinations over bit positions."""
    lab, p, e = h.labels, h.values, len(h.labels)
    pop = int.bit_count
    bad = []
    for a_mask in range(1 << e):
        a_bits = [i for i in range(e) if a_mask >> i & 1]
        for b_mask in range(1 << e):
            if pop(a_mask) > pop(b_mask):
                continue
            swap = pop(b_mask & ~a_mask)
            a_only = [i for i in a_bits if not b_mask >> i & 1]
            b_only = [j for j in range(e) if b_mask >> j & 1 and not a_mask >> j & 1]
            for ae_size in range(1, len(a_only) + 1):
                be_size = swap + 1 - ae_size
                if be_size < 1 or be_size > len(b_only):
                    continue
                for ae in itertools.combinations(a_only, ae_size):
                    ae_mask = sum(1 << i for i in ae)
                    af_mask = a_mask & ~ae_mask
                    for be in itertools.combinations(b_only, be_size):
                        be_mask = sum(1 << j for j in be)
                        bf_mask = b_mask & ~be_mask
                        terms = []
                        for new_ae in itertools.combinations(sorted(ae + be), ae_size):
                            na = sum(1 << i for i in new_ae)
                            terms.append(p[af_mask | na] + p[bf_mask | (ae_mask | be_mask) & ~na])
                        lo, k = _ref_min_count(terms)
                        lo = "INF" if lo == INF else lo
                        names = [_names(lab, x) for x in (af_mask, ae_mask, bf_mask, be_mask)]
                        if sink is not None:
                            sink(f"RELATION {'|'.join(names)} MIN {lo} COUNT {k}")
                        if k < 2:
                            bad.append(TropicalViolation(
                                "flag A_f={%s} A_e={%s} B_f={%s} B_e={%s}" % tuple(names),
                                tuple(terms), str(lo)))
    return TropicalVerdict(not bad, tuple(bad))


def test_flag_scan_matches_reference():
    failing = relations = inf_terms = 0
    for h in _reference_heights():
        got, want = [], []
        verdict = flag_pluecker_scan(h, got.append)
        assert verdict == _ref_flag_scan(h, want.append) == flag_pluecker_scan(h), h
        assert got == want, h
        relations += len(want)
        failing += not verdict.ok
        inf_terms += sum(INF in v.terms for v in verdict.violations)
    # the inputs do exercise violations, INF-valued terms and many relations
    assert failing and inf_terms and relations > 10_000, (failing, inf_terms, relations)


def _near_level_heights():
    """All-zero heights with one to three entries raised to 1, 2 or INF, at
    3-7 labels, and all-INF heights: nearly every subset is level."""
    rng = random.Random(19)
    out = []
    for e in range(3, 8):
        lab = tuple("abcdefg"[:e])
        out.append(HeightFunction(lab, INF, (INF,) * (1 << e)))
        for _ in range(NEAR_LEVEL_COUNT[e]):
            v = [0] * (1 << e)
            for s in rng.sample(range(1 << e), rng.randint(1, 3)):
                v[s] = rng.choice((1, 2, INF))
            out.append(HeightFunction(lab, 2, tuple(v)))
    return out


NEAR_LEVEL_COUNT = {3: 40, 4: 40, 5: 20, 6: 6, 7: 2}


def test_near_level_exchange_matches_reference():
    failing = 0
    for h in _near_level_heights():
        got = [single_exchange_check(h)] + [dressian_check(h, r) for r in range(len(h.labels) + 1)]
        want = [_ref_exchange(h)] + [_ref_exchange(h, r) for r in range(len(h.labels) + 1)]
        assert got == want, h
        failing += sum(not v.ok for v in want)
    assert failing, failing


def test_near_level_flag_scan_matches_reference():
    failing = 0
    for h in _near_level_heights():
        got, want = [], []
        verdict = flag_pluecker_scan(h, got.append)
        assert verdict == _ref_flag_scan(h, want.append), h
        assert got == want, h
        failing += not verdict.ok
    assert failing, failing


def _exchange_class(v):
    """The relation (X, Z) = (A - a, B + a) of an exchange violation, as label sets."""
    a_set, b_set, a = re.fullmatch(r"exchange A=\{(.*)\} B=\{(.*)\} a=(.*)", v.relation).groups()
    return frozenset(a_set.split(",")) - {a}, frozenset(b_set.split(",")) | {a}


def test_exchange_classes_match_reference_at_7_labels():
    rng = random.Random(7)
    m = from_realization(random_realization(rng, max_dim=3, n_labels=7, max_entry=6))
    loc = localize_matroid(m, (matroid_support_primes(m) or (2,))[0])
    tables = []
    for n in (2, INF):
        h = heights(loc, n)
        perturbed, with_inf = list(h.values), list(h.values)
        for s in rng.sample(range(1, 127), 4):
            perturbed[s] = perturbed[s] + 1 if perturbed[s] != INF else 0
        for s in rng.sample(range(128), 8):
            with_inf[s] = INF
        tables += [h, HeightFunction(h.labels, n, tuple(perturbed)),
                   HeightFunction(h.labels, n, tuple(with_inf))]
    instances = []  # instances per violating relation
    inf_terms = 0
    for h in tables:
        pairs = [(single_exchange_check(h), _ref_exchange(h))]
        pairs += [(dressian_check(h, r), _ref_exchange(h, r)) for r in range(8)]
        for got, want in pairs:
            assert got == want, h
            instances += Counter(map(_exchange_class, want.violations)).values()
            inf_terms += sum(INF in v.terms for v in want.violations)
    # realized heights pass; the rest violate, with relations of three or
    # more instances (so term order and instance order both show) and INF terms
    assert all(single_exchange_check(h).ok for h in tables[::3])
    assert max(instances) >= 3 and len(instances) > 10 and inf_terms, (instances, inf_terms)
