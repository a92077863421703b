import itertools

import pytest

from modmatroid.abgroups import FgAbGroup, TRIVIAL, canonicalize
from modmatroid.oracle import (
    abelian_p_groups,
    cyclic_quotients,
    elements,
    pair_quotient_map,
    pushout_oracle,
    quotient_by_element,
    quotient_by_pair,
    surjection_oracle,
)
from modmatroid.surjections import check_m1, check_square


def test_quotient_by_element_frozen():
    z8 = FgAbGroup(0, (8,))
    assert quotient_by_element(z8, (2,)) == FgAbGroup(0, (2,))
    assert quotient_by_element(z8, (0,)) == z8
    assert quotient_by_element(z8, (1,)) == TRIVIAL
    g = FgAbGroup(0, (2, 4))
    assert quotient_by_element(g, (1, 1)) == FgAbGroup(0, (2,))


def test_quotient_order_identity():
    # |g / <x>| = |g| / order(x)
    import math

    g = FgAbGroup(0, (2, 8))
    for x in elements(g):
        q = quotient_by_element(g, x)
        x_order = math.lcm(*(f // math.gcd(a, f) for a, f in zip(x, (2, 8))))
        assert q.torsion_order * x_order == g.torsion_order


def test_cyclic_quotients_frozen():
    assert cyclic_quotients(FgAbGroup(0, (8,))) == frozenset(
        {TRIVIAL, FgAbGroup(0, (2,)), FgAbGroup(0, (4,)), FgAbGroup(0, (8,))}
    )


def test_surjection_oracle_frozen():
    assert not surjection_oracle(FgAbGroup(0, (2, 2)), TRIVIAL)
    assert surjection_oracle(FgAbGroup(0, (8,)), FgAbGroup(0, (2,)))
    assert surjection_oracle(FgAbGroup(0, (2, 4)), FgAbGroup(0, (2,)))


def test_pushout_oracle_worked_examples():
    assert not pushout_oracle(
        FgAbGroup(0, (8,)), FgAbGroup(0, (2,)), FgAbGroup(0, (2,)), TRIVIAL
    )
    assert pushout_oracle(
        FgAbGroup(0, (2, 4)), FgAbGroup(0, (2,)), FgAbGroup(0, (2,)), TRIVIAL
    )


def test_pushout_oracle_guard():
    huge = FgAbGroup(0, (1024, 1024))
    with pytest.raises(RuntimeError):
        pushout_oracle(huge, huge, huge, huge, max_order=1 << 30)


def test_oracle_rejects_infinite_groups():
    with pytest.raises(ValueError):
        surjection_oracle(FgAbGroup(1, ()), TRIVIAL)


def test_quotient_by_element_checks_arity():
    g = FgAbGroup(0, (2, 4))
    for x in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="wrong arity"):
            quotient_by_element(g, x)


def test_abelian_p_groups_enumeration():
    got = abelian_p_groups(2, 8)
    assert got == [
        TRIVIAL,
        FgAbGroup(0, (2,)),
        FgAbGroup(0, (4,)),
        FgAbGroup(0, (2, 2)),
        FgAbGroup(0, (8,)),
        FgAbGroup(0, (2, 4)),
        FgAbGroup(0, (2, 2, 2)),
    ]
    assert len(abelian_p_groups(2, 32)) == 19
    assert len(abelian_p_groups(3, 27)) == 7
    assert all(g.torsion_order <= 49 for g in abelian_p_groups(7, 49))


def test_pair_quotient_map_agrees_with_pair_quotients():
    g = FgAbGroup(0, (2, 4))
    pm = pair_quotient_map(g)
    # rebuild one entry directly
    want = set()
    for x in elements(g):
        for y in elements(g):
            if quotient_by_element(g, x) == FgAbGroup(0, (4,)) and quotient_by_element(
                g, y
            ) == FgAbGroup(0, (4,)):
                want.add(quotient_by_pair(g, x, y))
    key = (FgAbGroup(0, (4,)), FgAbGroup(0, (4,)))
    assert pm.get(key, frozenset()) == frozenset(want)


def test_oracle_matches_sequence_test_on_small_pairs():
    groups = abelian_p_groups(2, 16) + abelian_p_groups(3, 9)
    for src, dst in itertools.product(groups, repeat=2):
        assert surjection_oracle(src, dst) == check_m1(src, dst).ok


def test_oracle_matches_square_test_on_small_quadruples():
    groups = abelian_p_groups(2, 8)
    for quad in itertools.product(groups, repeat=4):
        assert pushout_oracle(*quad) == check_square(*quad).ok
