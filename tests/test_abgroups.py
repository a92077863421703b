import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modmatroid import abgroups
from modmatroid.abgroups import (
    INF,
    TRIVIAL,
    DMod,
    FgAbGroup,
    canonicalize,
    cokernel,
    d_leq,
    d_seq,
    factorize,
    localize,
    pval,
    support_primes,
)
from tables import group_sum, is_trivial


def test_group_construction_rules():
    g = FgAbGroup(1, (2, 4))
    assert g.rank == 1 and g.factors == (2, 4)
    assert g.torsion_order == 8
    assert not is_trivial(g)
    assert is_trivial(TRIVIAL)
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbGroup(0, (1, 2))
    with pytest.raises(ValueError):
        FgAbGroup(-1, ())


def test_str_forms():
    assert str(TRIVIAL) == "0"
    assert str(FgAbGroup(2, ())) == "Z^2"
    assert str(FgAbGroup(1, (2,))) == "Z + Z/2"
    assert str(FgAbGroup(0, (2, 4))) == "Z/2 + Z/4"


def test_canonicalize_frozen(monkeypatch):
    assert canonicalize([2, 3]) == FgAbGroup(0, (6,))
    assert canonicalize([4, 2]) == FgAbGroup(0, (2, 4))
    assert canonicalize([1, 5, 0]) == FgAbGroup(1, (5,))
    assert canonicalize([], 2) == FgAbGroup(2, ())
    assert canonicalize([12, 18]) == FgAbGroup(0, (6, 36))

    # merging needs no factorization, however large the orders
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(abgroups, "factorize", refuse)
    p, q = 10**24 + 7, 3 * 10**24 + 7
    assert canonicalize([6, 4 * p * q]) == FgAbGroup(0, (2, 12 * p * q))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 60), max_size=6), st.integers(0, 3))
def test_canonicalize_idempotent_and_order_free(orders, rank):
    g = canonicalize(orders, rank)
    assert canonicalize(list(g.factors), g.rank) == g
    assert canonicalize(list(reversed(orders)), rank) == g
    total = math.prod(o for o in orders if o) if orders else 1
    assert g.torsion_order == total
    assert g.rank == rank + sum(1 for o in orders if o == 0)
    # the Smith normal form of diag(orders), with rank zero rows below
    n = len(orders)
    diag = [[o if i == j else 0 for j in range(n)] for i, o in enumerate(orders)]
    assert cokernel(diag + [[0] * n for _ in range(rank)]) == g


def test_group_sum():
    a = FgAbGroup(1, (2,))
    b = FgAbGroup(0, (6,))
    assert group_sum(a, b) == FgAbGroup(1, (2, 6))


def test_cokernel_frozen():
    assert cokernel([[2], [0]]) == FgAbGroup(1, (2,))
    assert cokernel([[1, 0], [0, 1]]) == TRIVIAL
    assert cokernel([[4, 0, 1, 1], [0, 2, 0, 1]]) == TRIVIAL
    assert cokernel([[4, 0, 1], [0, 2, 0]]) == FgAbGroup(0, (2,))
    assert cokernel([[0, 0], [0, 0]]) == FgAbGroup(2, ())


def test_cokernel_is_column_span_quotient():
    # appending zero columns or permuting columns changes nothing
    base = [[4, 0], [0, 2]]
    assert cokernel(base) == FgAbGroup(0, (2, 4))
    assert cokernel([[4, 0, 0], [0, 2, 0]]) == FgAbGroup(0, (2, 4))
    assert cokernel([[0, 4], [2, 0]]) == FgAbGroup(0, (2, 4))


def test_localize_frozen():
    assert localize(FgAbGroup(0, (2, 4)), 2) == DMod(0, (2, 1))
    assert localize(FgAbGroup(0, (2, 4)), 3) == DMod(0, ())
    assert localize(FgAbGroup(1, (12,)), 3) == DMod(1, (1,))


def test_dmod_rules():
    with pytest.raises(ValueError):
        DMod(0, (1, 2))
    with pytest.raises(ValueError):
        DMod(0, (0,))
    m = DMod(1, (3, 1))
    assert m.length == 4
    assert m.max_exp == 3


def test_d_arithmetic():
    assert d_seq(DMod(0, (3,)), 4) == [1, 1, 1, 0]
    assert d_seq(DMod(2, (3, 1)), 4) == [4, 3, 3, 2]
    assert d_seq(DMod(1, ()), 0) == []
    assert d_leq(DMod(0, (3,)), 2) == 2
    assert d_leq(DMod(1, ()), 3) == 3
    assert d_leq(DMod(0, (2, 1)), INF) == 3
    assert d_leq(DMod(1, (2,)), INF) == INF


def test_d_leq_rejects_minus_infinity():
    # only INF itself is the total horizon; -inf is a horizon below 1
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        d_leq(DMod(0, (3, 2)), -math.inf)
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        d_leq(DMod(1, ()), -math.inf)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(1, 6), max_size=5))
def test_d_seq_counts_deep_summands(rank, exps):
    m = DMod(rank, tuple(sorted(exps, reverse=True)))
    for n in range(m.max_exp + 3):
        assert d_seq(m, n) == [m.rank + sum(e >= i for e in m.exps) for i in range(1, n + 1)]


def test_support_primes():
    assert support_primes(FgAbGroup(0, (6,)), FgAbGroup(1, (5,))) == (2, 3, 5)
    assert support_primes(TRIVIAL, FgAbGroup(3, ())) == ()


# primes below and above the trial divisors, two past 10^6 and 2^31 - 1
CHAIN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 1_000_003, 1_000_033, 2_147_483_647)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.lists(st.sampled_from(CHAIN_PRIMES), max_size=4), max_size=4),
                min_size=1, max_size=3),
       st.integers(0, 2))
def test_support_primes_and_local_exps_read_the_chain(orders, rank):
    # support primes from each group's last invariant factor are those of
    # every factor, and local exponents read off the chain are the
    # valuations of the factors, sorted
    groups = [canonicalize(map(math.prod, o), rank) for o in orders]
    primes = {p for g in groups for n in g.factors for p, _ in factorize(n)}
    assert support_primes(*groups) == tuple(sorted(primes))
    for g in groups:
        for p in CHAIN_PRIMES:
            valuations = sorted((pval(n, p) for n in g.factors if n % p == 0), reverse=True)
            assert localize(g, p) == DMod(rank, tuple(valuations))


def test_factorize_and_pval():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(2 ** 20 * 3) == ((2, 20), (3, 1))
    big = (1 << 61) - 1  # a Mersenne prime
    assert factorize(big) == ((big, 1),)
    assert pval(48, 2) == 4
    with pytest.raises(ValueError):
        pval(0, 2)
    with pytest.raises(ValueError, match="positive integer"):
        factorize(0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 6).map(lambda e: 2 ** e), max_size=4),
       st.lists(st.integers(1, 4).map(lambda e: 3 ** e), max_size=3),
       st.integers(0, 2))
def test_localization_round_trip(twos, threes, rank):
    g = canonicalize(twos + threes, rank)
    at2, at3 = localize(g, 2), localize(g, 3)
    back = sorted([2 ** e for e in at2.exps] + [3 ** e for e in at3.exps])
    assert canonicalize(back, rank) == g
    assert at2.rank == at3.rank == rank
