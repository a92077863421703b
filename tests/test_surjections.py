from itertools import combinations_with_replacement, product

from hypothesis import given, settings
from hypothesis import strategies as st

from modmatroid.abgroups import DMod, FgAbGroup, TRIVIAL, canonicalize, localize
from modmatroid.surjections import (
    L2A,
    L2B,
    M1_LOCAL,
    NO_PAIR,
    RANK_DROP,
    check_m1,
    check_square,
    m1_failure_dvr,
    square_failure_dvr,
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


def test_positive_rank_uses_sequence_verdict():
    # rank-lifted twin of the torsion counterexample; the sequence
    # conditions cannot see it and the refinement is torsion-only
    assert check_square(fg(1, (2, 8)), fg(1, (4,)), fg(1, (4,)), fg(1, (2,))).ok


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
