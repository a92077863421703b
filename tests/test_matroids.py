import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modmatroid import matroids, surjections
from modmatroid.abgroups import DMod, FgAbGroup, TRIVIAL, canonicalize, cokernel
from modmatroid.matroids import (
    MatroidError,
    Realization,
    Verdict,
    Violation,
    ZMatroid,
    contract,
    delete,
    essentialize,
    from_realization,
    generic_rank,
    is_matroid,
    labels_of,
    localize_matroid,
    matroid_support_primes,
    random_realization,
    subset_key,
    verify,
)
from modmatroid.surjections import (
    L2A,
    check_m1,
    check_square,
    m1_failure_dvr,
    square_failure_dvr,
)
from tables import (
    direct_sum,
    entry,
    generic_loops_coloops,
    group_sum,
    mask_of,
    relabel,
    residue_matroid,
)

GOOD = Realization(("1", "2"), [[4, 0], [0, 2]], [[1, 1], [0, 1]])
BAD_TABLE = (
    FgAbGroup(0, (8,)),
    FgAbGroup(0, (2,)),
    FgAbGroup(0, (2,)),
    TRIVIAL,
)


def test_subset_encoding():
    labels = ("x", "y", "z")
    assert mask_of(labels, ("y",)) == 2
    assert mask_of(labels, ("x", "z")) == 5
    assert labels_of(labels, 5) == ("x", "z")
    assert subset_key(labels, 0) == ""
    assert subset_key(("b", "a"), 3) == "a,b"
    with pytest.raises(KeyError):
        mask_of(labels, ("w",))


def test_ground_set_rules():
    with pytest.raises(ValueError):
        ZMatroid(("a", "a"), (TRIVIAL, TRIVIAL, TRIVIAL, TRIVIAL))
    with pytest.raises(ValueError):
        ZMatroid(("a",), (TRIVIAL,))


def test_rejected_table_from_the_start():
    m = ZMatroid(("1", "2"), BAD_TABLE)
    v = is_matroid(m)
    assert not v.ok
    w = v.violation
    assert (w.mask, w.b, w.c) == (0, "1", "2")
    assert w.kind == L2A and w.prime == 2 and w.index == 1
    assert w.describe(m.labels) == "A={} b=1 c=2: L2a p=2 n=1"
    with pytest.raises(MatroidError):
        verify(m)


def test_accepted_table():
    m = ZMatroid(
        ("1", "2"),
        (FgAbGroup(0, (2, 4)), FgAbGroup(0, (2,)), FgAbGroup(0, (2,)), TRIVIAL),
    )
    assert is_matroid(m).ok


def test_realization_reproduces_the_accepted_table():
    m = from_realization(GOOD)
    assert m.verified
    assert [str(g) for g in m.table] == ["Z/2 + Z/4", "Z/2", "Z/2", "0"]
    assert is_matroid(m).ok


def test_realization_gcd_line():
    m = from_realization(Realization(("1", "2", "3"), [[]], [[1, 2, 4]]))
    assert [str(g) for g in m.table] == ["Z", "0", "Z/2", "0", "Z/4", "0", "Z/2", "0"]
    assert entry(m, ("2",)) == FgAbGroup(0, (2,))
    assert entry(m, ("1", "3")) == TRIVIAL


def test_realization_shape_errors():
    with pytest.raises(ValueError):
        Realization(("a",), [[1], [2]], [[1]])
    with pytest.raises(ValueError):
        Realization(("a", "b"), [[1]], [[1]])


def test_minors_frozen():
    m = from_realization(GOOD)
    d = delete(m, "2")
    assert d.labels == ("1",) and [str(g) for g in d.table] == ["Z/2 + Z/4", "Z/2"]
    c = contract(m, "2")
    assert [str(g) for g in c.table] == ["Z/2", "0"]
    assert is_matroid(d).ok and is_matroid(c).ok
    with pytest.raises(KeyError):
        delete(m, "z")


def test_direct_sum_and_relabel():
    loop = from_realization(Realization(("x",), [[2]], [[1]]))
    other = relabel(loop, {"x": "y"})
    s = direct_sum(loop, other)
    assert s.labels == ("x", "y")
    assert [str(g) for g in s.table] == ["Z/2 + Z/2", "Z/2", "Z/2", "0"]
    assert is_matroid(s).ok
    with pytest.raises(ValueError):
        direct_sum(loop, loop)


def test_essentialize_frozen():
    m = from_realization(GOOD)
    e, split = essentialize(m)
    assert split == 0 and e.table == m.table
    free = from_realization(Realization(("a",), [[], []], [[1], [0]]))
    e, split = essentialize(free)
    assert split == 1
    assert [str(g) for g in e.table] == ["Z", "0"]
    with pytest.raises(ValueError):
        essentialize(ZMatroid(("a",), (TRIVIAL, FgAbGroup(1, ()))))


def test_generic_rank_frozen():
    assert generic_rank(from_realization(GOOD)) == {0: 0, 1: 0, 2: 0, 3: 0}
    u23 = from_realization(
        Realization(("1", "2", "3"), [[], []], [[1, 0, 1], [0, 1, 1]])
    )
    assert generic_rank(u23) == {0: 0, 1: 1, 2: 1, 3: 2, 4: 1, 5: 2, 6: 2, 7: 2}


def test_residue_matroid_frozen():
    m = from_realization(GOOD)
    assert residue_matroid(m, 2) == {0: 2, 1: 1, 2: 1, 3: 0}
    assert residue_matroid(m, 3) == {0: 0, 1: 0, 2: 0, 3: 0}


def is_rank_function(r: list[int], e: int) -> bool:
    """Unit increments and submodularity (r[0] = 0 is given)."""
    full = 1 << e
    for s in range(full):
        for i in range(e):
            if not s >> i & 1 and r[s | 1 << i] - r[s] not in (0, 1):
                return False
    return all(r[s | t] + r[s & t] <= r[s] + r[t] for s in range(full) for t in range(full))


def test_classical_rank_axioms_exhaustive():
    # C1 (unit increments) and C2 (submodularity) for both rank readings
    m = from_realization(
        Realization(("1", "2", "3", "4"), [[6, 0], [0, 2]], [[1, 2, 3, 0], [1, 0, 1, 1]])
    )
    full = m.full
    for rk_fun in (
        generic_rank(m),
        {s: residue_matroid(m, 2)[0] - residue_matroid(m, 2)[s] for s in range(full + 1)},
        {s: residue_matroid(m, 3)[0] - residue_matroid(m, 3)[s] for s in range(full + 1)},
    ):
        assert rk_fun[0] == 0
        assert is_rank_function([rk_fun[s] for s in range(full + 1)], 4)


def test_localize_matroid():
    m = from_realization(GOOD)
    loc = localize_matroid(m, 2)
    assert [(d.rank, d.exps) for d in loc.table] == [
        (0, (2, 1)),
        (0, (1,)),
        (0, (1,)),
        (0, ()),
    ]
    assert naive_scan(loc.labels, loc.table, m1_failure_dvr, square_failure_dvr).ok
    loc5 = localize_matroid(m, 5)
    assert all(d == DMod(0, ()) for d in loc5.table)
    assert matroid_support_primes(m) == (2,)


def test_dvr_table_rejection():
    t = (DMod(0, (3,)), DMod(0, (1,)), DMod(0, (1,)), DMod(0, ()))
    v = naive_scan(("1", "2"), t, m1_failure_dvr, square_failure_dvr)
    assert not v.ok and v.violation.kind == L2A and v.violation.index == 1


def test_loops_and_coloops():
    assert generic_loops_coloops(from_realization(GOOD)) == (("1", "2"), ())
    u12 = from_realization(Realization(("a", "b"), [[]], [[1, 1]]))
    assert generic_loops_coloops(u12) == ((), ())
    basis = from_realization(Realization(("a", "b"), [[], []], [[1, 0], [0, 1]]))
    assert generic_loops_coloops(basis) == ((), ("a", "b"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_realizations_always_satisfy_the_axiom(seed):
    rng = random.Random(seed)
    real = random_realization(rng, max_dim=3, max_labels=4, max_entry=6)
    m = from_realization(real)
    assert is_matroid(m).ok
    for p in matroid_support_primes(m):
        loc = localize_matroid(m, p)
        assert naive_scan(loc.labels, loc.table, m1_failure_dvr, square_failure_dvr).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_minors_stay_matroids(seed):
    rng = random.Random(seed)
    real = random_realization(rng, max_dim=3, max_labels=4, max_entry=6)
    m = from_realization(real)
    for a in m.labels:
        assert is_matroid(delete(m, a)).ok
        assert is_matroid(contract(m, a)).ok


def test_column_permutation_is_relabeling():
    m = from_realization(GOOD)
    swapped = from_realization(
        Realization(("1", "2"), [[4, 0], [0, 2]], [[1, 1], [1, 0]])
    )
    renamed = relabel(swapped, {"1": "2", "2": "1"})
    assert renamed.table == m.table


def per_subset_cokernels(r: Realization) -> tuple:
    """Reference table: one normal form of [relations | chosen columns] per subset."""
    e = len(r.labels)
    return tuple(
        cokernel([rel + [vec[j] for j in range(e) if mask >> j & 1]
                  for rel, vec in zip(r.relations, r.vectors)])
        for mask in range(1 << e)
    )


def kernel_case(rng: random.Random, kind: str) -> Realization:
    if kind == "twelve-labels":
        return random_realization(rng, max_dim=4, n_labels=12)
    real = random_realization(rng, max_dim=1 if kind == "dim-1" else 5)
    n = len(real.relations)
    e = len(real.labels)
    relations, vectors = real.relations, [row[:] for row in real.vectors]
    if kind == "no-relations":
        relations = [[] for _ in range(n)]
    elif kind == "prime-power":
        p = rng.choice((2, 3, 5))
        relations = [[p ** rng.randint(1, 6) if i == j else 0 for j in range(n)]
                     for i in range(n)]
    elif kind == "zero-and-repeated":
        for row in vectors:
            row[rng.randrange(e)] = 0
            row[rng.randrange(e)] = row[rng.randrange(e)]
    return Realization(real.labels, relations, vectors)


@pytest.mark.parametrize("kind,count", [
    ("generic", 60), ("no-relations", 40), ("dim-1", 40), ("prime-power", 40),
    ("zero-and-repeated", 40), ("twelve-labels", 1),
])
def test_from_realization_matches_per_subset_cokernels(kind, count):
    rng = random.Random(f"kernel/{kind}")
    for _ in range(count):
        real = kernel_case(rng, kind)
        assert from_realization(real).table == per_subset_cokernels(real), real


def naive_scan(labels, table, m1_check, square_check) -> Verdict:
    """Reference scan: every (A, b, c) in the documented order, no memo."""
    e = len(labels)
    for mask in range(1 << e):
        outside = [i for i in range(e) if not mask >> i & 1]
        for x, b in enumerate(outside):
            pairs = [(b, b)] + [(b, c) for c in outside[x + 1:]]
            for b, c in pairs:
                if b == c:
                    v = m1_check(table[mask], table[mask | 1 << b])
                else:
                    v = square_check(table[mask], table[mask | 1 << b],
                                     table[mask | 1 << c], table[mask | 1 << b | 1 << c])
                if not v.ok:
                    return Verdict(False, Violation(mask, labels[b], labels[c], v.kind,
                                                    v.prime, v.index))
    return Verdict(True)


def changed(g, kind: str, q: int):
    """One entry made wrong: more rank, an extra summand, or a deeper one."""
    if kind == "rank":
        return FgAbGroup(g.rank + 1, g.factors)
    if kind == "deepen" and g.factors:
        return canonicalize(g.factors[:-1] + (g.factors[-1] * q,), g.rank)
    return canonicalize(g.factors + (q,), g.rank)


@pytest.mark.parametrize("where", ["early", "middle", "late"])
@pytest.mark.parametrize("kind", ["rank", "torsion", "deepen"])
def test_scan_matches_naive_reference(kind, where):
    rng = random.Random(f"scan/{kind}/{where}")
    third = ("early", "middle", "late").index(where)
    for trial in range(12):
        # every fourth table has 8 labels, so the certifier runs many blocks
        n_labels = 8 if trial % 4 == 3 else rng.randint(3, 6)
        real = random_realization(rng, max_dim=4, n_labels=n_labels)
        if trial % 3 == 0:  # prime-power ambients reach the witness search
            n = len(real.relations)
            p = rng.choice((2, 3))
            rel = [[p ** rng.randint(1, 5) if i == j else 0 for j in range(n)]
                   for i in range(n)]
            real = Realization(real.labels, rel, real.vectors)
        m = from_realization(real)
        size = len(m.table)
        mask = rng.randrange(size * third // 3, size * (third + 1) // 3)
        q = rng.choice((2, 3))
        table = list(m.table)
        table[mask] = changed(table[mask], kind, q)
        z = ZMatroid(m.labels, tuple(table))
        want = naive_scan(z.labels, z.table, check_m1, check_square)
        assert is_matroid(z) == want


def test_torsion_free_tables_are_matroid_rank_functions():
    # with no torsion the axiom is exactly: r(S) = rank(empty) - rank(S) is
    # a matroid rank function; every table of ranks 0..2 on 3 labels
    accepted = 0
    for ranks in itertools.product(range(3), repeat=8):
        m = ZMatroid(("a", "b", "c"), tuple(FgAbGroup(k) for k in ranks))
        ok = is_matroid(m).ok
        assert ok == is_rank_function([ranks[0] - k for k in ranks], 3), ranks
        accepted += ok
    assert accepted == 24


def two_part_table(v: tuple, u: tuple) -> ZMatroid:
    """Labels a, b, c; entry S is V(S - a) + U(S - c) for 2-label tables V
    on (b, c) and U on (a, b), each given as four groups."""
    def entry(s: int) -> FgAbGroup:
        vs = (s >> 1) & 3  # bits of b, c
        us = s & 3  # bits of a, b
        return group_sum(v[vs], u[us])
    return ZMatroid(("a", "b", "c"), tuple(entry(s) for s in range(8)))


def test_early_square_failing_only_at_3_is_named_before_a_later_one_at_2():
    # the square (A={}, a, b) fails only at p = 3, the later (A={}, b, c)
    # only at p = 2; a pass over all squares at p = 2 first would name b, c
    g = lambda *fs: FgAbGroup(0, fs)  # noqa: E731
    v = (g(8), g(2), g(2), g())  # fails L2a at p = 2
    u = (g(27), g(3), g(3), g())  # the same shape at p = 3
    m = two_part_table(v, u)
    verdict = is_matroid(m)
    assert verdict == naive_scan(m.labels, m.table, check_m1, check_square)
    assert verdict.violation.describe(m.labels) == "A={} b=a c=b: L2a p=3 n=1"


@pytest.mark.parametrize("smaller,larger,want", [
    # p = 3 passes through the witness search, p = 5 fails the sequence test
    (((3, 27), (9,), (9,), (3,)), (125, 5, 5, 1), "L2a p=5 n=1"),
    # p = 2 finds no witness pair; p = 3 would fail the sequence test
    (((2, 8), (4,), (4,), (2,)), (27, 3, 3, 1), "no-witness-pair p=2 n=2"),
])
def test_square_verdict_is_check_squares_across_primes(monkeypatch, smaller, larger, want):
    table = tuple(canonicalize(fs + (q,)) for fs, q in zip(smaller, larger))
    searched = []
    search = surjections._witness_search
    monkeypatch.setattr(surjections, "_witness_search",
                        lambda *a: searched.append(a[-1]) or search(*a))
    monkeypatch.setattr(matroids, "_memo", matroids._Memo())
    surjections.check_square.cache_clear()
    verdict = is_matroid(ZMatroid(("1", "2"), table))
    sq = check_square(*table)
    assert not sq.ok and verdict.violation.describe(("1", "2")) == f"A={{}} b=1 c=2: {want}"
    assert (verdict.violation.kind, verdict.violation.prime, verdict.violation.index) == (
        sq.kind, sq.prime, sq.index)
    assert searched == [min(searched)] and searched[0] in (2, 3)


def test_first_failure_in_the_last_block():
    # a realized 4-label table with one entry deepened: the first violation
    # lies at A = {d}, in the upper half of the subsets, the last block
    m = from_realization(Realization(("a", "b", "c", "d"), [[0], [3], [3]],
                                     [[5, -5, 0, -6], [-3, -4, 6, -5], [5, 5, 5, 0]]))
    table = list(m.table)
    table[10] = changed(table[10], "deepen", 2)
    z = ZMatroid(m.labels, tuple(table))
    verdict = is_matroid(z)
    assert verdict == naive_scan(z.labels, z.table, check_m1, check_square)
    assert verdict.violation.describe(z.labels) == "A={d} b=b c=c: L2a p=2 n=1"


@pytest.mark.parametrize("above, want", [
    (FgAbGroup(0, (2, 2)), "M1-local p=2 n=1"),  # a non-cyclic kernel
    (FgAbGroup(2), "rank-drop"),  # a free rank dropping by 2
])
def test_single_element_violation_is_named_on_the_diagonal(above, want):
    m = ZMatroid(("a",), (above, TRIVIAL))
    verdict = is_matroid(m)
    assert verdict == naive_scan(m.labels, m.table, check_m1, check_square)
    assert verdict.violation.describe(m.labels) == f"A={{}} b=a c=a: {want}"


def test_diagonal_violation_in_a_realized_table():
    # two free summands added to M({a}): its rank now exceeds M({})'s
    m = from_realization(random_realization(random.Random(5), max_dim=4, n_labels=3))
    table = list(m.table)
    table[1] = FgAbGroup(table[1].rank + 2, table[1].factors)
    z = ZMatroid(m.labels, tuple(table))
    verdict = is_matroid(z)
    assert verdict == naive_scan(z.labels, z.table, check_m1, check_square)
    assert verdict.violation.describe(z.labels) == "A={} b=a c=a: rank-drop"


def test_ok_table_whose_squares_reach_the_witness_search(monkeypatch):
    found = []
    search = surjections._witness_search
    monkeypatch.setattr(surjections, "_witness_search",
                        lambda *a: found.append(search(*a)) or found[-1])
    monkeypatch.setattr(matroids, "_memo", matroids._Memo())
    surjections.check_square.cache_clear()
    m = from_realization(Realization(
        ("a", "b", "c", "d"), [[243, 0, 0], [0, 27, 0], [0, 0, 9]],
        [[-15, 15, 13, -5], [17, -14, -16, -2], [-5, 20, 19, -11]]))
    assert is_matroid(ZMatroid(m.labels, m.table)).ok
    assert found and all(found)


def test_certifier_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(matroids, "_memo", matroids._Memo())
    monkeypatch.setattr(matroids, "_MEMO_BOUND", 50)
    m = from_realization(random_realization(random.Random(7), max_dim=4, n_labels=5))
    for _ in range(2):
        assert is_matroid(ZMatroid(m.labels, m.table)).ok
        assert matroids._memo.size() <= 50


def test_certifier_memo_is_dropped_when_a_scan_raises(monkeypatch):
    # an exception (an interrupt, say) can stop the memo's update halfway
    monkeypatch.setattr(matroids, "_memo", matroids._Memo())
    real = Realization(("a", "b", "c"), [[8, 0], [0, 9]], [[1, 2, 3], [1, 1, 2]])
    m = from_realization(real)

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(matroids, "localize", interrupted)
    with pytest.raises(KeyboardInterrupt):
        is_matroid(ZMatroid(m.labels, m.table))
    assert matroids._memo.size() == 0
