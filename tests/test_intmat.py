import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modmatroid.intmat import (
    det,
    hstack,
    identity,
    is_unimodular,
    matmul,
    shape,
    smith_normal_form,
    transpose,
)

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402


def diag_of(snf, rows, cols):
    return snf.diagonal(rows, cols)


def test_snf_frozen_values():
    assert smith_normal_form([[2, 0], [0, 3]]).d == (1, 6)
    z = smith_normal_form([[0, 0], [0, 0]])
    assert z.d == (0, 0)
    assert z.u == identity(2) and z.v == identity(2)
    assert smith_normal_form([[2, 4], [6, 8]]).d == (2, 4)


def test_snf_reconstruction_simple():
    m = [[2, 4], [6, 8]]
    s = smith_normal_form(m)
    assert matmul(matmul(s.u, m), s.v) == s.diagonal(2, 2)


def test_snf_inverse_roundtrip():
    r = random.Random(3)
    for _ in range(200):
        rows = r.randint(1, 6)
        cols = r.randint(1, 6)
        m = [[r.randint(-99, 99) for _ in range(cols)] for _ in range(rows)]
        s = smith_normal_form(m, ("u", "v", "uinv"))
        assert matmul(s.u, s.uinv) == identity(rows)
        assert matmul(s.uinv, s.u) == identity(rows)
        # tracking more transforms does not change the moves
        alone = smith_normal_form(m, ("uinv",))
        assert alone.uinv == s.uinv and alone.u is None and alone.v is None
        assert smith_normal_form(m).u == s.u
    with pytest.raises(ValueError):
        smith_normal_form([[1]], ("w",))


def test_det_frozen():
    assert det([[2, 4], [6, 8]]) == -8
    assert det([[5]]) == 5
    assert det(identity(3)) == 1


matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-99, 99), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_snf_properties(m):
    rows, cols = shape(m)
    s = smith_normal_form(m)
    assert is_unimodular(s.u) and is_unimodular(s.v)
    assert matmul(matmul(s.u, m), s.v) == s.diagonal(rows, cols)
    d = s.d
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        assert b == 0 or a == 0 or b % a == 0
        assert not (a == 0 and b != 0)


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_snf_matches_sympy(m):
    d = smith_normal_form(m).d
    assert smith_normal_form(m, ()).d == d
    got = [x for x in d if x != 0]
    want = [abs(int(x)) for x in sympy_snf(sympy.Matrix(m)).diagonal()]
    want = [x for x in want if x != 0]
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-20, 20), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
))
def test_square_det_equals_invariant_product(m):
    n, _ = shape(m)
    d = det(m)
    s = smith_normal_form(m)
    prod = 1
    for x in s.d:
        prod *= x
    assert prod == abs(d)
    assert abs(d) == abs(int(sympy.Matrix(m).det()))


def test_random_reconstruction_sweep():
    r = random.Random(7)
    for _ in range(200):
        rows = r.randint(1, 6)
        cols = r.randint(1, 6)
        m = [[r.randint(-99, 99) for _ in range(cols)] for _ in range(rows)]
        s = smith_normal_form(m)
        assert matmul(matmul(s.u, m), s.v) == s.diagonal(rows, cols)
        assert is_unimodular(s.u) and is_unimodular(s.v)


def test_helpers():
    assert transpose([[1, 2, 3]]) == [[1], [2], [3]]
    assert hstack([[1], [2]], [[3], [4]]) == [[1, 3], [2, 4]]
    assert shape([]) == (0, 0)
