import random
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modmatroid import surjections
from modmatroid.abgroups import INF, DMod, FgAbGroup, TRIVIAL, canonicalize, d_seq, localize
from modmatroid.intmat import identity, smith_normal_form, transpose
from modmatroid.matroids import Realization, from_realization, subsets
from modmatroid.oracle import abelian_p_groups, pushout_oracle
from modmatroid.surjections import (
    L2A,
    L2B,
    M1_LOCAL,
    NO_PAIR,
    NO_WITNESS,
    RANK_DROP,
    _blocks,
    _local_cokernel,
    _nmax,
    _unit_reps,
    _unsupplied,
    _valuation_profile,
    _witness_search,
    check_m1,
    check_square,
    exact_cap,
    m1_failure_dvr,
    square_failure_dvr,
    square_screen,
)


def fg(rank, factors=()):
    return FgAbGroup(rank, tuple(sorted(factors)))


def test_cyclic_surjection_frozen():
    assert check_m1(fg(0, (8,)), fg(0, (2,))).ok
    assert not check_m1(fg(0, (2, 2)), TRIVIAL).ok
    assert check_m1(fg(1), fg(0, (5,))).ok
    assert check_m1(fg(1), fg(1)).ok
    assert not check_m1(fg(2), fg(0,)).ok


def test_check_m1_verdicts():
    v = check_m1(fg(0, (2, 2)), TRIVIAL)
    assert not v.ok and v.kind == M1_LOCAL and v.prime == 2 and v.index == 1
    v = check_m1(fg(2), fg(0))
    assert not v.ok and v.kind == RANK_DROP
    assert check_m1(fg(0, (8,)), fg(0, (2,))).ok


def test_m1_dvr():
    assert m1_failure_dvr(DMod(0, (3,)), DMod(0, (1,))).ok
    v = m1_failure_dvr(DMod(0, (1, 1)), DMod(0, ()))
    assert not v.ok and v.kind == M1_LOCAL and v.index == 1
    assert m1_failure_dvr(DMod(1, ()), DMod(0, (2,))).ok


def test_square_worked_examples():
    bad = (fg(0, (8,)), fg(0, (2,)), fg(0, (2,)), TRIVIAL)
    v = check_square(*bad)
    assert not v.ok and v.kind == L2A and v.prime == 2 and v.index == 1
    assert not check_square(*bad).ok
    good = (fg(0, (2, 4)), fg(0, (2,)), fg(0, (2,)), TRIVIAL)
    assert check_square(*good).ok
    for n in (TRIVIAL, fg(2, (3, 9)), fg(0, (7,))):
        assert check_square(n, n, n, n).ok


def test_square_dvr_is_sequence_only():
    # the DVR lane applies the d-sequence conditions and nothing more,
    # so the sequence-passing torsion counterexample passes here
    quad = (DMod(0, (3, 1)), DMod(0, (2,)), DMod(0, (2,)), DMod(0, (1,)))
    assert square_failure_dvr(*quad).ok
    v = square_failure_dvr(DMod(0, (3,)), DMod(0, (1,)), DMod(0, (1,)), DMod(0, ()))
    assert not v.ok and v.kind == L2A and v.index == 1


def test_square_l2b():
    # d_n(N1) != d_n(N2) forces equality of the partial sums at n; here
    # the slack from n = 1 survives into the point where they part ways
    v = check_square(fg(0, (2, 8)), fg(0, (2,)), fg(0, (8,)), fg(0, (2,)))
    assert not v.ok and v.kind == L2B and v.prime == 2 and v.index == 2


def test_square_tail_slope():
    # every edge drops rank by 0 or 1, the finite horizon is clean, but
    # the partial sums head negative once the sequences stabilize
    quad = (fg(1, (4, 4)), fg(1, (4,)), fg(1, (4,)), fg(0, (4, 32)))
    v = check_square(*quad)
    assert not v.ok and v.kind == L2A and v.prime == 2 and v.index == 7
    loc = tuple(localize(g, 2) for g in quad)
    lv = square_failure_dvr(*loc)
    assert not lv.ok and lv.kind == L2A and lv.index == 7


def test_square_rank_drop():
    v = check_square(fg(2), fg(0), fg(2), fg(0))
    assert not v.ok and v.kind == RANK_DROP


def test_screen_at_a_prime_implies_the_screen_at_the_generic_point():
    # every quadruple of the 44 modules of rank <= 3 with at most three
    # summands of total length <= 4: a pass at cap 2, 3 or 9 passes the
    # free parts at cap 0, which is why the certifier's screen skips the
    # generic point at keys with a prime.  An edge that fails the
    # single-element test fails the screen, so only squares of such
    # edges are enumerated
    mods = [DMod(r, tuple(reversed(ex))) for r in range(4) for n in range(4)
            for ex in combinations_with_replacement(range(1, 5), n) if sum(ex) <= 4]
    assert len(mods) == 44
    onto = {m: [d for d in mods if m1_failure_dvr(m, d).ok] for m in mods}
    passes = 0
    for n0 in mods:
        for n1, n2 in product(onto[n0], repeat=2):
            for n12 in onto[n1]:
                quad = (n0, n1, n2, n12)
                for cap in (2, 3, 9):
                    if square_screen(cap, *quad):
                        passes += 1
                        assert square_screen(0, *(DMod(m.rank) for m in quad)), quad
    assert passes == 6679


def test_gray_zone_falses_frozen():
    # sequence conditions pass, yet no witness pair exists; found by
    # exhaustive elementwise search and pinned here
    cases = [
        ((2, 8), (4,), (4,), (2,), 2),
        ((2, 16), (4,), (4,), (2,), 2),
        ((2, 16), (8,), (8,), (4,), 3),
        ((2, 2, 8), (2, 4), (2, 4), (2, 2), 2),
    ]
    for f0, f1, f2, f12, idx in cases:
        quad = (fg(0, f0), fg(0, f1), fg(0, f2), fg(0, f12))
        assert square_failure_dvr(*map(lambda g: localize(g, 2), quad)).ok
        v = check_square(*quad)
        assert not v.ok and v.kind == NO_PAIR and v.prime == 2 and v.index == idx


def test_gray_zone_mixed_support():
    quad = (fg(0, (6, 24)), fg(0, (12,)), fg(0, (12,)), fg(0, (6,)))
    v = check_square(*quad)
    assert not v.ok and v.kind == NO_PAIR and v.prime == 2 and v.index == 2


def test_gray_zone_depends_on_residue_field():
    # identical exponent shapes, opposite answers at p = 2 and p = 3
    assert not check_square(fg(0, (2, 8)), fg(0, (4,)), fg(0, (4,)), fg(0, (2,))).ok
    assert check_square(fg(0, (3, 81)), fg(0, (9,)), fg(0, (9,)), fg(0, (3,))).ok


def test_gray_zone_trues_frozen():
    cases = [
        ((0, (4, 16)), (0, (8,)), (0, (8,)), (0, (4,))),
        ((0, (8, 32)), (0, (16,)), (0, (2, 16)), (0, (8,))),
        ((1, (4, 4)), (0, (4, 4, 16)), (0, (4, 32)), (0, (4, 16))),
    ]
    for quad in cases:
        assert check_square(*(fg(r, f) for r, f in quad)).ok


def test_beyond_cap_uses_sequence_verdict():
    # within the validated exponent range the refined decision applies;
    # past it the necessary conditions stand, by design
    assert not check_square(fg(0, (2, 512)), fg(0, (4,)), fg(0, (4,)), fg(0, (2,))).ok
    assert check_square(fg(0, (2, 1024)), fg(0, (4,)), fg(0, (4,)), fg(0, (2,))).ok


def test_positive_rank_gets_the_torsion_verdict():
    # rank-lifted twin of the torsion counterexample; the sequence
    # conditions cannot see it, but with equal ranks stages 2-3 run on
    # the torsion parts and find what they find there
    v = check_square(fg(1, (2, 8)), fg(1, (4,)), fg(1, (4,)), fg(1, (2,)))
    assert v == check_square(fg(0, (2, 8)), fg(0, (4,)), fg(0, (4,)), fg(0, (2,)))
    assert not v.ok and v.kind == NO_PAIR and v.prime == 2 and v.index == 2


def test_witness_search_miss_goes_to_exhaustive_search_up_to_order_64(monkeypatch):
    # the shape of the smallest failure with N0 of order 64 is settled
    # by exhaustive pair search, which finds no pair; at order 128 the
    # miss stays undecided and exhaustive search is not asked
    asked = []
    oracle = surjections.pushout_oracle
    monkeypatch.setattr(surjections, "pushout_oracle",
                        lambda *a: asked.append(a[0]) or oracle(*a))
    check_square.cache_clear()
    small = (fg(0, (2, 32)), fg(0, (4,)), fg(0, (4,)), fg(0, (2,)))
    big = (fg(0, (2, 64)), fg(0, (4,)), fg(0, (4,)), fg(0, (2,)))
    assert check_square(*small) == surjections.SquareVerdict(False, NO_PAIR, 2, 2)
    assert check_square(*big) == surjections.SquareVerdict(False, NO_WITNESS, 2, 2)
    assert asked == [small[0]]
    check_square.cache_clear()


def test_exhaustive_search_overturns_a_witness_search_miss(monkeypatch):
    # a square short of summand supply whose pair exists, N0 of order 64:
    # a witness search that misses it is overturned
    quad = (fg(0, (4, 16)), fg(0, (8,)), fg(0, (8,)), fg(0, (4,)))
    assert _reaches_witness_search(tuple(localize(g, 2) for g in quad), 2)
    monkeypatch.setattr(surjections, "_witness_search", lambda *a: False)
    check_square.cache_clear()
    assert check_square(*quad).ok
    check_square.cache_clear()


def _torsion_quadruples():
    """Every quadruple of p-groups, p = 2 up to order 16, p = 3 up to order 9."""
    for p, most in ((2, 16), (3, 9)):
        yield from product(abelian_p_groups(p, most), repeat=4)


def test_equal_rank_lift_gets_the_torsion_verdict():
    # a common free summand passes through every quotient, so lifting a
    # torsion quadruple by Z or Z^2 changes no verdict
    checked = 0
    for quad in _torsion_quadruples():
        twin = check_square(*quad)
        for r in (1, 2):
            lift = tuple(FgAbGroup(r, g.factors) for g in quad)
            assert check_square(*lift) == twin, (quad, r)
        checked += 1
    assert checked == 12**4 + 4**4


def test_witness_search_sees_torsion_modules_only(monkeypatch):
    calls = []

    def recording(n0, n1, n2, n12, p):
        calls.append((n0, n1, n2, n12))
        return _witness_search(n0, n1, n2, n12, p)

    monkeypatch.setattr(surjections, "_witness_search", recording)
    check_square.cache_clear()
    lifted = 0
    for quad in _torsion_quadruples():
        for r in (0, 1):
            before = len(calls)
            check_square(*(FgAbGroup(r, g.factors) for g in quad))
            if r and len(calls) > before:
                lifted += 1
    check_square.cache_clear()
    assert calls and all(m.rank == 0 for quad in calls for m in quad)
    assert lifted


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2), st.lists(st.sampled_from([2, 4, 8, 3, 9]), max_size=3))
def test_identity_square_always_exists(rank, factors):
    n = canonicalize(factors, rank)
    assert check_square(n, n, n, n).ok
    assert check_m1(n, n).ok


def partitions(n, most=None):
    """Partitions of n as nonincreasing tuples of parts."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, most or n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def test_single_element_check_is_the_degenerate_square():
    # b = c in the axiom: (N, N', N', N') asks for exactly a surjection
    # N -> N' with cyclic kernel, with the same located failure
    groups = {canonicalize([p**k for k in parts])
              for p, top in ((2, 6), (3, 3), (5, 2), (7, 2))
              for n in range(top + 1) for parts in partitions(n)}
    groups |= {canonicalize(list(fs), r) for r in range(3)
               for fs in ((), (6,), (2, 12), (4,), (30,))}
    assert len(groups) == 55
    for s, d in product(sorted(groups, key=repr), repeat=2):
        assert check_m1(s, d) == check_square(s, d, d, d), (s, d)
    mods = [DMod(r, exps) for r in range(3) for k in range(4)
            for exps in combinations_with_replacement(range(4, 0, -1), k)]
    assert len(mods) == 105
    for a, b in product(mods, repeat=2):
        assert m1_failure_dvr(a, b) == square_failure_dvr(a, b, b, b), (a, b)


def test_single_element_check_leaves_the_square_cache_alone():
    # the benchmark's traced runs require the square cache's call count
    # to equal the calls into check_square from the scan
    check_m1.cache_clear()
    check_square.cache_clear()
    assert not check_m1(fg(0, (2, 2)), TRIVIAL).ok
    assert check_square.cache_info().hits + check_square.cache_info().misses == 0


def _reference_square_failure_dvr(n0, n1, n2, n12):
    """square_failure_dvr as it was with an L2b test past the loop, kept
    as the oracle for its removal, verbatim but for the module prefixes."""
    top = _nmax(n0, n1, n2, n12)
    # an edge's first bad drop lies within its own horizon: past it the
    # drop is the constant rank drop
    d0, d1, d2, d12 = (d_seq(m, top) for m in (n0, n1, n2, n12))
    for hi, lo in ((d0, d1), (d0, d2), (d1, d12), (d2, d12)):
        i = surjections._drop_failure(hi, lo)
        if i is not None:
            return surjections.SquareVerdict(False, M1_LOCAL, None, i)
    acc = 0
    for n in range(1, top + 1):
        acc += d0[n - 1] - d1[n - 1] - d2[n - 1] + d12[n - 1]
        if acc < 0:
            return surjections.SquareVerdict(False, L2A, None, n)
        if d1[n - 1] != d2[n - 1] and acc != 0:
            return surjections.SquareVerdict(False, L2B, None, n)
    # past ``top`` every d_n equals the rank, so L(n) moves linearly
    slope = n0.rank - n1.rank - n2.rank + n12.rank
    if slope < 0:
        return surjections.SquareVerdict(False, L2A, None, top + 1)
    if n1.rank != n2.rank and (slope != 0 or acc != 0):
        return surjections.SquareVerdict(False, L2B, None, top + 1)
    return surjections._OK


def test_square_failure_matches_the_reference():
    # every quadruple of a 12-module grid (ranks 0-2, at most one
    # exponent up to 3), and every quadruple of cyclic-kernel edges of a
    # 30-module grid (up to two exponents): those pass the edge tests and
    # reach the partial sums and the slope
    small = [DMod(r, exps) for r in range(3) for exps in ((), (1,), (2,), (3,))]
    for quad in product(small, repeat=4):
        assert square_failure_dvr(*quad) == _reference_square_failure_dvr(*quad), quad
    mods = [DMod(r, exps) for r in range(3) for k in range(3)
            for exps in combinations_with_replacement(range(3, 0, -1), k)]
    assert len(mods) == 30
    onto = {m: [d for d in mods if m1_failure_dvr(m, d).ok] for m in mods}
    kinds = Counter()
    for n0 in mods:
        for n1, n2 in product(onto[n0], repeat=2):
            for n12 in onto[n1]:
                if n12 in onto[n2]:
                    v = square_failure_dvr(n0, n1, n2, n12)
                    assert v == _reference_square_failure_dvr(n0, n1, n2, n12)
                    kinds[v.kind] += 1
    assert sum(kinds.values()) == 4236 and kinds[L2B] and kinds[L2A]


# The drop-sequence helpers from before the blocks were read off exponent
# multiplicities, kept verbatim (but for the names) as oracles for _blocks,
# _unsupplied and _reference_witness_search.
def _ref_deltas(hi: DMod, lo: DMod, top: int) -> list[int]:
    """Entrywise d-sequence drop d_i(hi) - d_i(lo) for i = 1..top+1."""
    return [a - b for a, b in zip(d_seq(hi, top + 1), d_seq(lo, top + 1))]


def _ref_descents(delta: list[int]) -> set[int]:
    """Positions where a block of ones in a drop sequence closes."""
    return {i + 1 for i in range(len(delta) - 1) if delta[i] == 1 and delta[i + 1] == 0}


def _ref_runs(delta: list[int], tail: int) -> list[tuple[int, int | float]]:
    """Maximal blocks of ones as [start, end) windows, 0-based.

    ``tail`` is the eventual value past the listed entries, so a block
    still open at the end of the list has end = INF exactly when the
    sequence stays 1 forever (a drop of free rank).
    """
    runs: list[tuple[int, int | float]] = []
    i = 0
    n = len(delta)
    while i < n:
        if delta[i] == 1:
            j = i
            while j < n and delta[j] == 1:
                j += 1
            runs.append((i, INF) if j == n and tail == 1 else (i, j))
            i = j
        else:
            i += 1
    if tail == 1 and (not runs or runs[-1][1] is not INF):
        runs.append((n, INF))
    return runs


def _ref_blocks(delta: list[int]) -> list[tuple[int, int]]:
    """End and offset of each block of a drop sequence that ends in 0, the
    offsets by the running sum of the earlier block lengths."""
    out = []
    t = 0
    for s, e in _ref_runs(delta, 0):
        out.append((e, s - t))
        t += e - s
    return out


def test_blocks_match_the_drop_sequence_reference():
    # on every pair of the 105-module grid in the domain of _blocks: equal
    # ranks and every drop 0 or 1.  The ends are the descents
    mods = [DMod(r, exps) for r in range(3) for k in range(4)
            for exps in combinations_with_replacement(range(4, 0, -1), k)]
    assert len(mods) == 105
    pairs = 0
    for hi, lo in product(mods, repeat=2):
        delta = _ref_deltas(hi, lo, _nmax(hi, lo))
        if hi.rank == lo.rank and set(delta) <= {0, 1}:
            blocks = _blocks(hi, lo)
            assert blocks == _ref_blocks(delta), (hi, lo)
            # the multiplicity differences are -1, 0 or 1 here, so no
            # difference above 1 can be read as a block end
            diff = Counter(hi.exps)
            diff.subtract(lo.exps)
            assert set(diff.values()) <= {-1, 0, 1}, (hi, lo)
            assert {e for e, _ in blocks} == _ref_descents(delta), (hi, lo)
            pairs += 1
    assert pairs == 630


def _ref_unsupplied(cap: int, n0: DMod, n1: DMod, n2: DMod, n12: DMod) -> list[int]:
    """Stage 2 as it was on the drop sequences, verbatim but for reading
    the blocks through _ref_runs."""
    if n0.rank != n12.rank or max(m.max_exp for m in (n0, n1, n2, n12)) > cap:
        return []
    top = _nmax(n0, n1, n2, n12)

    def descents(hi: DMod, lo: DMod) -> set[int]:
        # stage 1 passed and the ranks agree, so every drop is 0 or 1 and
        # every block closes: its end is a descent
        return {e for _, e in _ref_runs(_ref_deltas(hi, lo, top), hi.rank - lo.rank)}

    upper = descents(n0, n1) | descents(n0, n2)
    mult = Counter(n0.exps)
    return [i for i in sorted(descents(n1, n12) & descents(n2, n12))
            if mult[i] < 1 + (i in upper)]


def test_unsupplied_matches_the_drop_sequence_reference():
    # every quadruple of cyclic-kernel edges that passes stage 1, over the
    # 112 modules of rank <= 1 with at most three exponents up to 5, at
    # caps below, within and past the exponents
    mods = [DMod(r, exps) for r in range(2) for k in range(4)
            for exps in combinations_with_replacement(range(5, 0, -1), k)]
    assert len(mods) == 112
    onto = {m: [d for d in mods if m1_failure_dvr(m, d).ok] for m in mods}
    quads = short = 0
    for n0 in mods:
        for n1, n2 in product(onto[n0], repeat=2):
            for n12 in onto[n1]:
                if n12 not in onto[n2] or not square_failure_dvr(n0, n1, n2, n12).ok:
                    continue
                quads += 1
                for cap in (0, 2, 3, 9):
                    got = _unsupplied(cap, n0, n1, n2, n12)
                    assert got == _ref_unsupplied(cap, n0, n1, n2, n12), (cap, n0, n1, n2, n12)
                    short += bool(got)
    assert (quads, short) == (31842, 442)


def _reference_witness_search(n0, n1, n2, n12, p):
    """The candidate loop before classes were shared: two integer
    cokernels per candidate y.  Kept as the oracle for _witness_search,
    verbatim but for reading the guard through the module, so that a
    patched _SEARCH_GUARD holds for both, and for the reference copies
    of the drop-sequence helpers."""
    top = _nmax(n0, n1, n2, n12)
    phi_runs = _ref_runs(_ref_deltas(n0, n1, top), n0.rank - n1.rank)
    psi_prime_runs = _ref_runs(_ref_deltas(n1, n12, top), n1.rank - n12.rank)

    exps = list(n0.exps)
    k = len(exps)
    n = k + n0.rank
    rel = [[p ** exps[j] if i == j else 0 for j in range(n)] for i in range(k)]

    # canonical x: one exact-exponent summand per finite block, a free
    # summand for an infinite one; offsets forced by the block starts
    used: set[int] = set()
    x = [0] * n
    t = 0
    for s, e in phi_runs:
        if e is INF:
            idx = next((j for j in range(k, n) if j not in used), None)
        else:
            idx = next((j for j in range(k) if exps[j] == e and j not in used), None)
        if idx is None:
            return False
        used.add(idx)
        x[idx] = p ** (s - t)
        t += 0 if e is INF else int(e) - s
    if _local_cokernel(rel + [x], p) != n1:
        raise RuntimeError("canonical element does not give the stated quotient")

    # basis of N0/(rel, x): columns of U^-1 with orders from the SNF;
    # U^-1 is sympy's exact inverse, independent of the library's read-off
    sympy = pytest.importorskip("sympy")
    snf = smith_normal_form(transpose(rel + [x]), identity(n))
    uinv = sympy.Matrix(snf.u).inv().tolist()
    orders = list(snf.d) + [0] * (n - len(snf.d))
    gens: list[tuple[int | float, list[int]]] = []
    for i in range(n):
        o = orders[i]
        if o == 1:
            continue
        vec = [int(uinv[r][i]) for r in range(n)]
        if o == 0:
            gens.append((INF, vec))
            continue
        e = 0
        while o % p == 0:
            o //= p
            e += 1
        if o != 1:
            raise RuntimeError("foreign torsion in canonical quotient")
        gens.append((e, vec))

    def untouched(vec: list[int]) -> bool:
        nz = [j for j in range(n) if vec[j]]
        return len(nz) == 1 and abs(vec[nz[0]]) == 1 and nz[0] not in used

    # carrier candidates per block of the psi' profile: the exponent of
    # the carrier must equal the block end
    carrier_sets: list[list[int]] = []
    for s, e in psi_prime_runs:
        opts = [gi for gi, (eg, _) in enumerate(gens) if eg == e]
        if not opts:
            return False
        carrier_sets.append(opts)

    # offsets are forced by block starts; a negative offset means the
    # profile is not realizable by any element
    coefs: list[int] = []
    t = 0
    for s, e in psi_prime_runs:
        if s - t < 0:
            return False
        coefs.append(s - t)
        t += 0 if e is INF else int(e) - s

    unit_reps = _unit_reps(p)
    a_opts = [0]
    for s in range(top + 1):
        for u in unit_reps:
            a_opts.append(p**s * u)
            a_opts.append(-(p**s) * u)

    tried = 0
    for idxs in product(*carrier_sets):
        if len(set(idxs)) < len(idxs):
            continue
        carriers = [gens[gi] for gi in idxs]
        unit_sets = [[1] if untouched(vec) else unit_reps for (_, vec) in carriers]
        for units in product(*unit_sets):
            w = [0] * n
            for c, u, (_, vec) in zip(coefs, units, carriers):
                pc = p**c * u
                for r in range(n):
                    w[r] += pc * vec[r]
            for a in a_opts:
                tried += 1
                if tried > surjections._SEARCH_GUARD:
                    raise RuntimeError(
                        "witness search budget exceeded; exponents too large"
                        " for the exact square decision"
                    )
                y = [a * xi - wi for xi, wi in zip(x, w)]
                if _local_cokernel(rel + [y], p) != n2:
                    continue
                if _local_cokernel(rel + [x, y], p) == n12:
                    return True
    return False


# the square of the realization KNOWN_NO_WITNESS_PAIR in perfbench/gen.py
# at p = 2, and its candidate count: 16 carrier/unit choices times 321
# values of a
KNOWN = (DMod(0, (8, 6, 4, 1)), DMod(0, (7, 4, 2)), DMod(0, (7, 4, 1)), DMod(0, (6, 2)))
KNOWN_CANDIDATES = 16 * 321


def _reaches_witness_search(quad, p):
    return square_failure_dvr(*quad).ok and bool(_unsupplied(exact_cap(p), *quad))


def _oracle_range_squares(ranges=((2, 32), (3, 27))):
    """Every local square of groups up to the given order at each prime
    (by default oracle-verify's range, p = 2 to order 32 and p = 3 to
    order 27) that reaches the witness search."""
    out = []
    for p, most in ranges:
        mods = [localize(g, p) for g in abelian_p_groups(p, most)]
        # every edge of a square that passes stage 1 is a cyclic-kernel map
        onto = {m: [d for d in mods if m1_failure_dvr(m, d).ok] for m in mods}
        for n0 in mods:
            for n1, n2 in product(onto[n0], repeat=2):
                for n12 in onto[n1]:
                    if n12 in onto[n2] and _reaches_witness_search((n0, n1, n2, n12), p):
                        out.append(((n0, n1, n2, n12), p))
    return out


def _realized_squares(p, tables, seed):
    """Distinct squares reaching the witness search in 4-label realizations
    over diag(p^k_1, .., p^k_dim), dim 3 or 4 and 1 <= k_i <= the exact
    cap at p.  The generators agree mod p up to units, which makes joint
    descents of the two lower kernels, and so supply shortfalls, common."""
    rng = random.Random(seed)
    cap = exact_cap(p)
    out = {}
    for _ in range(tables):
        dim = rng.randint(3, 4)
        ks = [rng.randint(1, cap) for _ in range(dim)]
        rel = [[p**ks[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
        g0 = [rng.randrange(p**k) for k in ks]
        cols = [[(rng.randrange(1, p**k) * g + p * rng.randrange(p**k)) % p**k
                 for g, k in zip(g0, ks)] for _ in range(4)]
        m = from_realization(Realization(("a", "b", "c", "d"), rel, transpose(cols)))
        loc = [localize(g, p) for g in m.table]
        for a in subsets(4):
            for b, c in product(range(4), repeat=2):
                if b < c and not (a >> b | a >> c) & 1:
                    q = (loc[a], loc[a | 1 << b], loc[a | 1 << c], loc[a | 1 << b | 1 << c])
                    if _reaches_witness_search(q, p):
                        out[q, p] = None
    return list(out)


@pytest.fixture(scope="module")
def stage3_squares():
    oracle = _oracle_range_squares()
    assert len(oracle) == 4
    realized = _realized_squares(2, 500, 1) + _realized_squares(3, 600, 3)
    assert len(realized) >= 200 and {p for _, p in realized} == {2, 3}
    return oracle + realized + [(KNOWN, 2)]


def _answer(search, quad, p):
    try:
        return search(*quad, p)
    except RuntimeError as exc:
        return str(exc)


def test_witness_search_matches_reference(stage3_squares):
    for quad, p in stage3_squares:
        assert _answer(_witness_search, quad, p) == _answer(
            _reference_witness_search, quad, p), (quad, p)
    assert _witness_search(*KNOWN, 2) is False


def test_witness_search_decides_each_class_once(stage3_squares, monkeypatch):
    # both quotients depend on y only modulo the relation rows, so no two
    # cokernels of one search may be asked of rows equal mod p^e_j
    for quad, p in stage3_squares:
        seen = set()
        mods = [p**e for e in quad[0].exps]

        def recording(rows, prime):
            key = tuple(tuple(v % m for v, m in zip(row, mods)) for row in rows)
            assert key not in seen, (quad, p, rows)
            seen.add(key)
            return _local_cokernel(rows, prime)

        monkeypatch.setattr(surjections, "_local_cokernel", recording)
        _witness_search(*quad, p)


def test_quotient_by_an_element_depends_on_its_valuation_profile_only():
    # every nonzero element of every p-group up to order 64, 81 and 25 at
    # p = 2, 3, 5 against the profile's representative (p^v_j)
    elements = 0
    for p, most in ((2, 64), (3, 81), (5, 25)):
        for g in abelian_p_groups(p, most):
            exps = localize(g, p).exps
            if not exps:
                continue
            rel = [[p**exps[i] if i == j else 0 for j in range(len(exps))]
                   for i in range(len(exps))]
            for y in product(*(range(p**e) for e in exps)):
                rep = [p**v for v in _valuation_profile(y, exps, p)]
                assert _local_cokernel(rel + [list(y)], p) == _local_cokernel(
                    rel + [rep], p), (exps, p, y)
                elements += 1
    assert elements == 1604


def test_witness_search_asks_one_quotient_by_y_per_profile(stage3_squares, monkeypatch):
    # every one-extra-row cokernel is N0/(y), asked exactly once for each
    # profile of the elements met
    asked, met = [], set()

    def recording(rows, prime):
        if len(rows) == len(rows[0]) + 1:
            asked.append(tuple(rows[-1]))
        return _local_cokernel(rows, prime)

    def profiling(y, exps, prime):
        met.add(_valuation_profile(y, exps, prime))
        return _valuation_profile(y, exps, prime)

    monkeypatch.setattr(surjections, "_local_cokernel", recording)
    monkeypatch.setattr(surjections, "_valuation_profile", profiling)
    for quad, p in stage3_squares:
        asked.clear()
        met.clear()
        exps = quad[0].exps
        _answer(_witness_search, quad, p)
        profiles = [_valuation_profile(y, exps, p) for y in asked]
        assert len(profiles) == len(set(profiles)) and set(profiles) == met, (quad, p)
    # on KNOWN: 11 profiles, 12 normal forms in all with the one that gives
    # N0/(x) and its basis
    asked.clear()
    _witness_search(*KNOWN, 2)
    assert len(asked) == 11


def test_witness_search_agrees_with_exhaustive_search():
    # check_square hands a miss up to order 64 to pushout_oracle, so
    # oracle-verify cannot tell a wrong miss there; compare directly
    squares = _oracle_range_squares(((2, 64), (3, 81), (5, 25)))
    assert Counter(p for _, p in squares) == {2: 15, 3: 1}
    for quad, p in squares:
        groups = (FgAbGroup(0, tuple(p**e for e in reversed(m.exps))) for m in quad)
        assert _witness_search(*quad, p) == pushout_oracle(*groups), (quad, p)


def test_witness_search_guard_counts_candidates(monkeypatch):
    monkeypatch.setattr(surjections, "_SEARCH_GUARD", KNOWN_CANDIDATES)
    assert _witness_search(*KNOWN, 2) is False
    monkeypatch.setattr(surjections, "_SEARCH_GUARD", KNOWN_CANDIDATES - 1)
    with pytest.raises(RuntimeError, match="witness search budget exceeded"):
        _witness_search(*KNOWN, 2)
