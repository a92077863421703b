import collections
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modmatroid.duality import dual
from modmatroid.matroids import (
    MatroidError,
    Realization,
    Verdict,
    ZMatroid,
    from_realization,
    random_realization,
    subset_key,
    subsets,
)
from modmatroid.abgroups import FgAbGroup, TRIVIAL
from modmatroid.qam import QamData, QamViolation, check_axioms, to_qam
from tables import direct_sum, relabel
from test_matroids import is_rank_function

GOOD = Realization(("1", "2"), [[4, 0], [0, 2]], [[1, 1], [0, 1]])


def test_extraction_frozen():
    q = to_qam(from_realization(GOOD))
    assert q.labels == ("1", "2")
    assert q.rk == (0, 0, 0, 0)
    assert q.mult == (8, 2, 2, 1)
    u = to_qam(from_realization(Realization(("a", "b"), [[]], [[1, 1]])))
    assert u.rk == (0, 1, 1, 1) and u.mult == (1, 1, 1, 1)
    v = to_qam(from_realization(Realization(("1",), [[]], [[2]])))
    assert v.rk == (0, 1) and v.mult == (1, 2)


def test_extraction_requires_a_matroid():
    bad = ZMatroid(
        ("1", "2"),
        (FgAbGroup(0, (8,)), FgAbGroup(0, (2,)), FgAbGroup(0, (2,)), TRIVIAL),
    )
    with pytest.raises(MatroidError):
        to_qam(bad)


def test_data_validation():
    with pytest.raises(ValueError, match="every subset"):
        QamData(("1",), (0,), (1,))
    with pytest.raises(ValueError, match="positive"):
        QamData(("1",), (0, 0), (1, 0))


def test_axioms_hold_on_extracted_data():
    assert check_axioms(to_qam(from_realization(GOOD))).ok


def test_a1_violation_frozen():
    q = QamData(("1", "2"), (0, 0, 0, 0), (8, 2, 2, 3))
    v = check_axioms(q)
    assert not v.ok and v.violation.axiom == "A1"
    assert v.violation.detail == "A={1} b=2: 3 does not divide 2"


def test_a2a_violation_frozen():
    q = QamData(("1", "2"), (0, 0, 0, 0), (8, 4, 4, 1))
    v = check_axioms(q)
    assert not v.ok and v.violation.axiom == "A2a"
    assert v.violation.detail == "A={1} B={2}: 4*4 does not divide 1*8"


def test_a2b_violation_frozen():
    q = QamData(("1", "2"), (0, 1, 0, 1), (1, 2, 1, 1))
    v = check_axioms(q)
    assert not v.ok and v.violation.axiom == "A2b"
    assert v.violation.detail == "A={} B={1,2} F={1} T={2}: 1*1 != 2*1"


def test_dual_multiplicities_frozen():
    m = from_realization(GOOD)
    q, qd = to_qam(m), to_qam(dual(m))
    full = m.full
    for s in range(full + 1):
        assert qd.mult[full ^ s] == q.mult[s]


def test_multiplicative_under_direct_sum():
    a = from_realization(Realization(("1",), [[2]], [[1]]))
    b = relabel(from_realization(Realization(("1",), [[]], [[3]])), {"1": "2"})
    s = to_qam(direct_sum(a, b))
    qa, qb = to_qam(a), to_qam(b)
    for sa in range(2):
        for sb in range(2):
            assert s.mult[sa | sb << 1] == qa.mult[sa] * qb.mult[sb]
            assert s.rk[sa | sb << 1] == qa.rk[sa] + qb.rk[sb]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_axioms_hold_generically(seed):
    rng = random.Random(seed)
    m = from_realization(random_realization(rng, max_dim=3, max_labels=5, max_entry=6))
    q = to_qam(m)
    assert check_axioms(q).ok
    assert all(v >= 1 for v in q.mult)
    assert q.mult[0] == m.table[0].torsion_order


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_dual_multiplicities_generic(seed):
    rng = random.Random(seed)
    m = from_realization(random_realization(rng, max_dim=3, max_labels=4, max_entry=6))
    q, qd = to_qam(m), to_qam(dual(m))
    full = m.full
    for s in range(full + 1):
        assert qd.mult[full ^ s] == q.mult[s]


def test_rejects_a_rank_table_that_is_not_submodular():
    with pytest.raises(ValueError, match="not a matroid rank function"):
        check_axioms(QamData(("1", "2"), (0, 0, 0, 1), (1, 1, 1, 1)))


def test_precondition_is_the_rank_function_test_on_three_labels():
    for rk in itertools.product(range(3), repeat=8):
        q = QamData(("1", "2", "3"), rk, (1,) * 8)
        if rk[0] == 0 and is_rank_function(list(rk), 3):
            assert check_axioms(q) == Verdict()
        else:
            with pytest.raises(ValueError):
                check_axioms(q)


def _reference_check_axioms(q: QamData) -> Verdict:
    """The scan before the molecule lookup: every (A, D, F), each molecule
    tested over all 2^|D| intermediate sets, A2a over every ordered pair."""
    e = len(q.labels)
    rk, mu = q.rk, q.mult
    key = lambda s: "{" + subset_key(q.labels, s) + "}"

    for a in subsets(e):
        for i in range(e):
            if a >> i & 1:
                continue
            ab = a | 1 << i
            if rk[ab] == rk[a]:
                if mu[a] % mu[ab]:
                    return Verdict((QamViolation(
                        "A1",
                        f"A={key(a)} b={q.labels[i]}: {mu[ab]} does not divide {mu[a]}",
                    ),))
            elif mu[ab] % mu[a]:
                return Verdict((QamViolation(
                    "A1",
                    f"A={key(a)} b={q.labels[i]}: {mu[a]} does not divide {mu[ab]}",
                ),))

    for a in subsets(e):
        rest = [i for i in range(e) if not a >> i & 1]
        for dbits in subsets(len(rest)):
            d = 0
            for pos, i in enumerate(rest):
                if dbits >> pos & 1:
                    d |= 1 << i
            b = a | d
            # enumerate F inside D; T is the complement in D
            f = d
            while True:
                t = d & ~f
                if _is_molecule(rk, a, d, f):
                    if mu[a] * mu[b] != mu[a | f] * mu[a | t]:
                        return Verdict((QamViolation(
                            "A2b",
                            f"A={key(a)} B={key(b)} F={key(f)} T={key(t)}: "
                            f"{mu[a]}*{mu[b]} != {mu[a | f]}*{mu[a | t]}",
                        ),))
                if f == 0:
                    break
                f = (f - 1) & d

    for a in subsets(e):
        for b in subsets(e):
            if rk[a | b] + rk[a & b] == rk[a] + rk[b]:
                if (mu[a | b] * mu[a & b]) % (mu[a] * mu[b]):
                    return Verdict((QamViolation(
                        "A2a",
                        f"A={key(a)} B={key(b)}: {mu[a]}*{mu[b]} does not divide "
                        f"{mu[a | b]}*{mu[a & b]}",
                    ),))
    return Verdict()


def _is_molecule(rk, a: int, d: int, f: int) -> bool:
    """Does the rank grow by exactly |C n F| on every A <= C <= A u D?"""
    c = d
    while True:
        if rk[a | c] != rk[a] + (c & f).bit_count():
            return False
        if c == 0:
            return True
        c = (c - 1) & d


def _a1_room(rk, mult, e: int, s: int) -> tuple[int, int]:
    """Factors by which mult[s] can be multiplied or divided with A1 still
    holding at s (0: no constraint that way)."""
    up = down = 0
    for i in range(e):
        t = s ^ 1 << i
        lo, hi = (t, s) if s >> i & 1 else (s, t)
        divisor = hi if rk[hi] == rk[lo] else lo  # A1: mult[divisor] | the other
        if divisor == s:
            up = math.gcd(up, mult[t] // mult[s] if mult[t] % mult[s] == 0 else 1)
        else:
            down = math.gcd(down, mult[s] // mult[t] if mult[s] % mult[t] == 0 else 1)
    return up, math.gcd(down, mult[s])


def _diagonal_realization(rng: random.Random) -> Realization:
    """1-6 labels over a diagonal ambient of 1-3 rows with nonzero entries,
    so every entry is finite and the rank is 0 on every subset."""
    n, e = rng.randint(1, 3), rng.randint(1, 6)
    diagonal = [rng.choice((2, 3, 4, 6, 8, 9, 12)) for _ in range(n)]
    return Realization(
        tuple("abcdef"[:e]),
        [[q if i == j else 0 for j in range(n)] for i, q in enumerate(diagonal)],
        [[rng.randint(-3, 3) for _ in range(e)] for _ in range(n)],
    )


def _perturbed_tables(seed: int, count: int, realize=lambda rng: random_realization(rng, 3, 6, 2)):
    """Realized tables (by default with 1-6 labels and entries in [-2, 2]),
    then up to four entries rescaled: as far as A1 allows, mostly at a
    corner of an elementary molecule (A, {f}, {t}), else by 2, 3 or 4 at
    one time in five."""
    rng = random.Random(seed)
    for _ in range(count):
        q = to_qam(from_realization(realize(rng)))
        e, rk, mult = len(q.labels), q.rk, list(q.mult)
        corners = [
            (a, a | 1 << f, a | 1 << t, a | 1 << f | 1 << t)
            for a in subsets(e)
            for f, t in itertools.permutations(range(e), 2)
            if not a >> f & 1 and not a >> t & 1
            and rk[a | 1 << t] == rk[a] and rk[a | 1 << f] == rk[a] + 1
        ]
        for _ in range(rng.randint(0, 4)):
            if corners and rng.random() < 0.7:
                s = rng.choice(rng.choice(corners))
            else:
                s = rng.randrange(len(mult))
            up, down = _a1_room(rk, mult, e, s)
            if down > 1 and rng.random() < 0.5:
                mult[s] //= down
            elif up > 1:
                mult[s] *= up
            elif rng.random() < 0.2:
                mult[s] *= rng.choice((2, 3, 4))
        yield QamData(q.labels, rk, tuple(mult))


def _first_violations(tables) -> collections.Counter:
    first = collections.Counter()
    for q in tables:
        verdict = check_axioms(q)
        assert verdict == _reference_check_axioms(q), q
        first[verdict.violation.axiom if verdict.violation else "OK"] += 1
    return first


def test_matches_the_reference_scan():
    first = _first_violations(_perturbed_tables(8, 2500))
    assert first["A2b"] >= 100 and first["A2a"] >= 100, first
    # rank 0 everywhere: every pair is modular and A2b holds vacuously
    first = _first_violations(_perturbed_tables(8, 1000, _diagonal_realization))
    assert first["A2a"] >= 100, first
