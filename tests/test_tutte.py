import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modmatroid import tutte
from modmatroid.abgroups import FgAbGroup
from modmatroid.duality import dual
from modmatroid.matroids import (
    Realization,
    ZMatroid,
    contract,
    delete,
    essentialize,
    from_realization,
    generic_rank,
    random_realization,
)
from modmatroid.tutte import (
    arithmetic_tutte,
    classical_tutte,
    poly_eval,
    poly_render,
    quasi_tutte_eval,
    tutte_class,
)
from tables import direct_sum, generic_loops_coloops, relabel

GOOD = Realization(("1", "2"), [[4, 0], [0, 2]], [[1, 1], [0, 1]])
U12 = Realization(("a", "b"), [[]], [[1, 1]])
VEC2 = Realization(("1",), [[]], [[2]])  # ambient Z, one generator 2


def _refuse_dual(m):
    # the class is read off the table alone; the dual is never built
    raise AssertionError("dual called")


def test_class_terms_frozen(monkeypatch):
    monkeypatch.setattr(tutte, "dual", _refuse_dual)
    t = tutte_class(from_realization(GOOD))
    assert t.terms == {(0, 0, (2, 4)): 1, (0, 1, (2,)): 2, (0, 2, ()): 1}
    assert t.mass == 4
    u = tutte_class(from_realization(U12))
    assert u.terms == {(1, 0, ()): 1, (0, 0, ()): 2, (0, 1, ()): 1}


def test_empty_ground_set_class():
    n = ZMatroid((), (FgAbGroup(0, (2, 4)),))
    t = tutte_class(n)
    assert t.terms == {(0, 0, (2, 4)): 1}
    assert poly_render(classical_tutte(t)) == "1"


def test_classical_specialization_frozen():
    assert poly_render(classical_tutte(tutte_class(from_realization(GOOD)))) == "y^2"
    assert poly_render(classical_tutte(tutte_class(from_realization(U12)))) == "x + y"
    coloop = from_realization(Realization(("a",), [[]], [[1]]))
    assert poly_render(classical_tutte(tutte_class(coloop))) == "x"
    loop = essentialize(from_realization(Realization(("a",), [[]], [[0]])))[0]
    assert poly_render(classical_tutte(tutte_class(loop))) == "y"


def test_arithmetic_specialization_frozen():
    p = arithmetic_tutte(tutte_class(from_realization(GOOD)))
    assert poly_render(p) == "y^2 + 2*y + 5"
    assert poly_eval(p, 1, 1) == 8
    assert poly_render(arithmetic_tutte(tutte_class(from_realization(VEC2)))) == "x + 1"
    # trivial tags collapse the arithmetic polynomial onto the classical one
    t = tutte_class(from_realization(U12))
    assert arithmetic_tutte(t) == classical_tutte(t)


def test_quasi_eval_frozen(monkeypatch):
    monkeypatch.setattr(tutte, "dual", _refuse_dual)
    m2 = from_realization(VEC2)
    assert quasi_tutte_eval(m2, 2, 2) == 2
    assert quasi_tutte_eval(m2, 3, 3) == 4
    good = from_realization(GOOD)
    assert quasi_tutte_eval(good, 3, 3) == 20
    assert quasi_tutte_eval(good, 1, 1) == 8
    assert quasi_tutte_eval(good, 2, 2) == poly_eval(
        classical_tutte(tutte_class(good)), 2, 2
    )


def test_quasi_interpolates_between_specializations():
    m = from_realization(GOOD)
    t = tutte_class(m)
    lcm = 1
    for _, _, tag in t.terms:
        for n in tag:
            lcm = math.lcm(lcm, n)
    q_full = lcm  # divisible by every tag order at (lcm+1, 2)
    assert quasi_tutte_eval(m, q_full + 1, 2) == poly_eval(
        arithmetic_tutte(t), q_full + 1, 2
    )
    assert quasi_tutte_eval(m, 2, 2) == poly_eval(classical_tutte(t), 2, 2)


def test_requires_essential_input():
    free = from_realization(Realization(("a",), [[], []], [[1], [0]]))
    with pytest.raises(ValueError, match="essentialize first"):
        tutte_class(free)
    with pytest.raises(ValueError, match="essentialize first"):
        quasi_tutte_eval(free, 2, 2)


def test_mass_counts_subsets():
    for r in (GOOD, U12, VEC2):
        m = from_realization(r)
        assert tutte_class(m).mass == 1 << len(m.labels)


def test_deletion_contraction_frozen():
    m = from_realization(Realization(("1", "2"), [[]], [[2, 3]]))
    t = tutte_class(m)
    assert t.terms == {
        (1, 0, ()): 1,
        (0, 0, (2,)): 1,
        (0, 0, (3,)): 1,
        (0, 1, ()): 1,
    }
    assert generic_loops_coloops(m) == ((), ())
    for a in m.labels:
        td = tutte_class(essentialize(delete(m, a))[0])
        tc = tutte_class(essentialize(contract(m, a))[0])
        assert (td + tc).terms == t.terms


def test_multiplicative_under_direct_sum():
    a = from_realization(Realization(("1",), [[2]], [[1]]))
    b = relabel(from_realization(Realization(("1",), [[3]], [[1]])), {"1": "2"})
    s = direct_sum(a, b)
    prod = tutte_class(a) * tutte_class(b)
    assert tutte_class(s).terms == prod.terms
    assert (0, 0, (6,)) in prod.terms


def test_classical_matches_generic_rank_expansion():
    for r in (GOOD, U12, VEC2):
        m = from_realization(r)
        rk = generic_rank(m)
        full = m.full
        direct: dict = {}
        for s in rk:
            c, n = rk[full] - rk[s], bin(s).count("1") - rk[s]
            for (i, j), v in _binom(c, n).items():
                direct[(i, j)] = direct.get((i, j), 0) + v
        direct = {k: v for k, v in direct.items() if v}
        assert direct == classical_tutte(tutte_class(m))


def _binom(c: int, n: int) -> dict:
    out = {}
    for i in range(c + 1):
        for j in range(n + 1):
            out[(i, j)] = (
                math.comb(c, i)
                * (-1) ** (c - i)
                * math.comb(n, j)
                * (-1) ** (n - j)
            )
    return out


def _essential_matroid(rng):
    m = from_realization(random_realization(rng, max_dim=3, max_labels=4, max_entry=6))
    return essentialize(m)[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_deletion_contraction_generic(seed):
    rng = random.Random(seed)
    m = _essential_matroid(rng)
    t = tutte_class(m)
    # each subset's Y-exponent and tag are the rank and torsion of the
    # dual entry at its complement
    dm = dual(m)
    from_dual = Counter(
        (g.rank, dm.table[m.full ^ a].rank, dm.table[m.full ^ a].factors)
        for a, g in enumerate(m.table)
    )
    assert t.terms == dict(from_dual)
    loops, coloops = generic_loops_coloops(m)
    for a in m.labels:
        if a in loops or a in coloops:
            continue
        lhs = tutte_class(essentialize(delete(m, a))[0]) + tutte_class(
            essentialize(contract(m, a))[0]
        )
        assert lhs.terms == t.terms


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_quasi_matches_direct_sum_formula(seed):
    # one term per subset A: |T_A / q T_A| (x-1)^cork (y-1)^nullity
    rng = random.Random(seed)
    m = _essential_matroid(rng)
    r0 = m.table[0].rank
    for x, y in ((0, 0), (2, 0), (1, 1), (-1, 3), (2, 2)):
        q = (x - 1) * (y - 1)
        direct = 0
        for a, g in enumerate(m.table):
            cork, nullity = g.rank, g.rank + bin(a).count("1") - r0
            w = math.prod(math.gcd(f, q) for f in g.factors)
            direct += w * (x - 1) ** cork * (y - 1) ** nullity
        assert quasi_tutte_eval(m, x, y) == direct


def test_render_edge_cases():
    assert poly_render({}) == "0"
    assert poly_render({(0, 0): -3}) == "-3"
    assert poly_render({(2, 1): 1, (1, 0): 3, (0, 0): -2}) == "x^2*y + 3*x - 2"


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_specializations_match_the_per_term_expansion(seed):
    # one expansion per (cork, nullity) with its tags' weights added up,
    # against one per term; the coefficients are drawn so that the
    # weights of some (cork, nullity) cancel, and with them whole terms
    # of the expansion
    rng = random.Random(seed)
    tags = [(), (2,), (3,), (2, 4), (6,), (2, 2, 2)]
    terms: dict = {}
    for _ in range(rng.randint(1, 12)):
        c, n = rng.randint(0, 4), rng.randint(0, 4)
        a, b = rng.sample(tags, 2)
        k = rng.randint(-3, 3)
        # weights -k * value(a) and k * value(b) cancel where the tags' values agree
        terms[c, n, a] = terms.get((c, n, a), 0) - k
        terms[c, n, b] = terms.get((c, n, b), 0) + k
        terms[rng.randint(0, 4), rng.randint(0, 4), rng.choice(tags)] = rng.randint(-2, 2)
    t = tutte.TutteClass(terms)
    x, y = rng.randint(-2, 3), rng.randint(-2, 3)
    q = (x - 1) * (y - 1)
    values = (lambda tag: 1, math.prod, lambda tag: math.prod(math.gcd(f, q) for f in tag))
    for value in values:
        want: dict = {}
        for (c, n, tag), coeff in t.terms.items():
            for k, v in _binom(c, n).items():
                want[k] = want.get(k, 0) + coeff * value(tag) * v
        assert tutte._specialize(t, value) == {k: v for k, v in want.items() if v}
