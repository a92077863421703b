import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modmatroid.duality import dual
from modmatroid.matroids import (
    MatroidError,
    Realization,
    ZMatroid,
    from_realization,
    random_realization,
)
from modmatroid.abgroups import FgAbGroup, TRIVIAL
from modmatroid.qam import QamData, check_axioms, to_qam
from tables import direct_sum, relabel

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
