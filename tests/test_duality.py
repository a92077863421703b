import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modmatroid.abgroups import DMod, FgAbGroup, TRIVIAL
from modmatroid.duality import dual, gale_dual
from modmatroid.matroids import (
    MatroidError,
    Realization,
    ZMatroid,
    contract,
    delete,
    essentialize,
    from_realization,
    is_matroid,
    localize_matroid,
    matroid_support_primes,
    random_realization,
    verify,
)
from tables import dual_dvr, residue_matroid

GOOD = Realization(("1", "2"), [[4, 0], [0, 2]], [[1, 1], [0, 1]])


def test_dual_table_frozen():
    m = from_realization(GOOD)
    d = dual(m)
    assert [str(g) for g in d.table] == ["Z^2", "Z + Z/2", "Z + Z/2", "Z/2 + Z/4"]
    assert is_matroid(d).ok


def test_loop_coloop_swap():
    loop = from_realization(Realization(("1",), [[3]], [[1]]))
    assert [str(g) for g in loop.table] == ["Z/3", "0"]
    d = dual(loop)
    assert [str(g) for g in d.table] == ["Z", "Z/3"]
    assert dual(d).table == loop.table


def test_two_point_line_is_self_dual():
    u12 = from_realization(Realization(("a", "b"), [[]], [[1, 1]]))
    assert dual(u12).table == u12.table


def test_dual_shares_one_group_per_entry_and_size():
    # the table CI runs at the 16-label cap; every entry as the
    # per-subset formula gives it, built once per (entry, |A|)
    m = from_realization(random_realization(random.Random(1), max_dim=5, n_labels=16))
    d = dual(m)
    r0 = m.table[0].rank
    assert all(d.table[m.full ^ a] == FgAbGroup(g.rank + a.bit_count() - r0, g.factors)
               for a, g in enumerate(m.table))
    assert len({id(g) for g in d.table}) <= len(set(m.table)) * (len(m.labels) + 1)


def test_dual_requires_a_matroid():
    bad = ZMatroid(
        ("1", "2"),
        (FgAbGroup(0, (8,)), FgAbGroup(0, (2,)), FgAbGroup(0, (2,)), TRIVIAL),
    )
    with pytest.raises(MatroidError):
        dual(bad)


def test_dual_dvr_frozen():
    d = localize_matroid(dual(from_realization(GOOD)), 2)
    assert d.table == (DMod(2, ()), DMod(1, (1,)), DMod(1, (1,)), DMod(0, (2, 1)))


def test_gale_dual_frozen():
    g = gale_dual(GOOD)
    assert g.labels == ("1", "2")
    assert g.relations == [[4, 0], [0, 2], [1, 0], [1, 1]]
    assert g.vectors == [[0, 0], [0, 0], [1, 0], [0, 1]]
    assert from_realization(g).table == dual(from_realization(GOOD)).table


def test_gale_dual_without_relations():
    u12 = Realization(("a", "b"), [[]], [[1, 1]])
    g = gale_dual(u12)
    assert g.relations == [[1], [1]]
    assert g.vectors == [[1, 0], [0, 1]]
    assert from_realization(g).table == dual(from_realization(u12)).table


def test_double_dual_is_essentialization():
    free = from_realization(Realization(("a",), [[], []], [[1], [0]]))
    dd = dual(dual(free))
    assert dd.table == essentialize(free)[0].table
    m = verify(from_realization(GOOD))
    assert dual(dual(m)).table == m.table


def test_dual_swaps_deletion_and_contraction():
    m = from_realization(
        Realization(("1", "2", "3"), [[6, 0], [0, 2]], [[1, 2, 3], [1, 0, 1]])
    )
    for a in m.labels:
        assert dual(delete(m, a)).table == contract(dual(m), a).table
        # deleting from the dual can leave a shared free summand behind
        assert dual(contract(m, a)).table == essentialize(delete(dual(m), a))[0].table


def test_gale_dual_drops_redundant_relations():
    r = Realization(("a", "b"), [[2, 4, 0]], [[1, 3]])
    g = gale_dual(r)
    assert g.relations == [[2], [1], [3]]
    assert from_realization(g).table == dual(from_realization(r)).table


def test_dual_commutes_with_localization():
    m = from_realization(GOOD)
    for p in (2, 3, 5):
        assert localize_matroid(dual(m), p) == dual_dvr(localize_matroid(m, p))


def test_residue_ranks_are_classical_duals():
    m = from_realization(
        Realization(("1", "2", "3"), [[6, 0], [0, 2]], [[1, 2, 3], [1, 0, 1]])
    )
    d = dual(m)
    full = m.full
    for p in (2, 3, 5):
        nm, nd = residue_matroid(m, p), residue_matroid(d, p)
        rk = {s: nm[0] - nm[s] for s in nm}
        rk_star = {s: nd[0] - nd[s] for s in nd}
        for s in rk:
            assert rk_star[s] == bin(s).count("1") + rk[full ^ s] - rk[full]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_dual_identities_hold_generically(seed):
    rng = random.Random(seed)
    r = random_realization(rng, max_dim=3, max_labels=4, max_entry=6)
    m = from_realization(r)
    d = dual(m)
    assert is_matroid(d).ok
    assert dual(d).table == essentialize(m)[0].table
    assert from_realization(gale_dual(r)).table == d.table
    for a in m.labels:
        assert dual(delete(m, a)).table == contract(d, a).table
    for p in matroid_support_primes(m):
        assert localize_matroid(d, p) == dual_dvr(localize_matroid(m, p))
