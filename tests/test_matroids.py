import copy
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modmatroid import abgroups, matroids, surjections
from modmatroid.abgroups import (
    DMod,
    FgAbGroup,
    TRIVIAL,
    canonicalize,
    cokernel,
    localize,
    support_primes,
)
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
    subset_keys,
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


def test_subset_keys_match_subset_key():
    for labels in (tuple("abcdefghij"), tuple("jihgfedcba"), tuple("kd\u00e9Zb ax\u2603\"q")):
        for e in range(len(labels) + 1):
            assert subset_keys(labels[:e]) == [subset_key(labels[:e], s) for s in range(1 << e)]


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


def unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A random n x n integer matrix of determinant +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, k = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == k:
            m[i] = [-x for x in m[i]]
        else:
            c = rng.choice((-2, -1, 1, 2))
            m[k] = [x + c * y for x, y in zip(m[k], m[i])]
    return m


def kernel_case(rng: random.Random, kind: str) -> Realization:
    if kind == "twelve-labels":
        return random_realization(rng, max_dim=4, n_labels=12)
    if kind in ("in-span", "early-trivial"):
        return span_case(rng, kind)
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


def span_case(rng: random.Random, kind: str) -> Realization:
    """Up to 12 labels whose walk meets columns that map to zero.

    "in-span": some columns equal a relation column, or a signed sum of
    earlier columns, so they lie in the lattice of the root or of every
    node that holds those columns.  "early-trivial": the first column
    makes the quotient trivial, or, over two or more live rows, the
    first few columns do; they are columns of a unimodular matrix whose
    other columns are relations."""
    real = random_realization(rng, max_dim=5, n_labels=rng.randint(2, 12))
    n, e = len(real.relations), len(real.labels)
    relations = [row[:] for row in real.relations]
    columns = [[row[j] for row in real.vectors] for j in range(e)]
    if kind == "in-span":
        for j in rng.sample(range(1, e), rng.randint(1, max(1, e // 3))):
            if relations[0] and rng.random() < 0.4:
                k = rng.randrange(len(relations[0]))
                columns[j] = [rng.choice((-1, 1)) * row[k] for row in relations]
            else:
                picked = rng.sample(range(j), rng.randint(1, min(j, 3)))
                columns[j] = [sum(rng.choice((-1, 1)) * columns[k][i] for k in picked)
                              for i in range(n)]
    else:
        basis = unimodular(rng, n)
        first = 1 if rng.random() < 0.5 else rng.randint(1, min(n, e))
        kept = [[row[k] for k in range(first, n)] for row in basis]
        relations = [a + b for a, b in zip(kept, relations)]
        for j in range(first):
            columns[j] = [row[j] for row in basis]
    vectors = [[col[i] for col in columns] for i in range(n)]
    return Realization(real.labels, relations, vectors)


@pytest.mark.parametrize("kind,count", [
    ("generic", 60), ("no-relations", 40), ("dim-1", 40), ("prime-power", 40),
    ("zero-and-repeated", 40), ("twelve-labels", 1), ("in-span", 30), ("early-trivial", 30),
])
def test_from_realization_matches_per_subset_cokernels(kind, count):
    rng = random.Random(f"kernel/{kind}")
    for _ in range(count):
        real = kernel_case(rng, kind)
        assert from_realization(real).table == per_subset_cokernels(real), real


def one_row_cases():
    """Configurations whose walk reaches nodes with one live row: one
    ambient row, with and without a relation column, and more rows that
    drop to one partway (a cyclic cokernel below a root that is not)."""
    yield Realization(tuple("abcdefg"), [[12]], [[-4, 6, -9, 3, -2, 0, 10]])
    yield Realization(tuple("abcdef"), [[]], [[-6, 4, 0, -9, 15, -10]])
    yield Realization(tuple("abcde"), [[0]], [[-8, -12, 6, -3, 5]])
    # Z/4 + Z/6 + Z: after a and b one free row is left
    yield Realization(tuple("abcdef"), [[4, 0], [0, 6], [0, 0]],
                      [[1, 0, -3, 5, 2, 7], [0, 1, 7, -2, -6, 3], [0, 0, -4, 6, -9, 8]])
    # Z/8 + Z/9 + Z: a kills the free row, and Z/8 + Z/9 is cyclic
    yield Realization(tuple("abcdef"), [[8, 0], [0, 9], [0, 0]],
                      [[0, 2, -6, 4, 0, 1], [0, -3, 6, 1, 5, -7], [1, 5, -2, 0, 3, 4]])
    rng = random.Random("one-row")
    for _ in range(12):
        yield random_realization(rng, max_dim=1, max_entry=20, n_labels=rng.randint(1, 7))
    for _ in range(12):
        yield random_realization(rng, max_dim=3, n_labels=rng.randint(3, 7))


def test_one_row_nodes_take_a_gcd(monkeypatch):
    snf = abgroups.smith_normal_form
    calls = []

    def recording(mat, *args, **kwargs):
        calls.append([row[:] for row in mat])
        return snf(mat, *args, **kwargs)

    drops = 0
    for real in one_row_cases():
        want = per_subset_cokernels(real)
        monkeypatch.setattr(abgroups, "smith_normal_form", recording)
        calls.clear()
        got = from_realization(real).table
        monkeypatch.undo()
        assert got == want, real
        e, n = len(real.labels), len(real.relations)
        assert len(calls[0]) == n  # the root
        for mat in calls[1:]:
            assert len(mat) > 1, (real, mat)
            t = len(mat[0]) - 1  # torsion rows first; U v reduced mod each
            assert all(0 <= mat[i][t] < mat[i][i] for i in range(t)), (real, mat)
        # a node's live rows are its cokernel's generators; a node with
        # children is a mask without the last label
        generators = [g.rank + len(g.factors) for g in want]
        drops += n > 1 and generators[0] > 1 and any(
            generators[mask] == 1 for mask in range(1, 1 << (e - 1)))
    assert drops >= 4


def expected_normal_forms(table: tuple) -> tuple[int, int]:
    """The normal forms the walk takes, and those the shared subtrees
    save.  The walk takes the root's, and one per node whose parent has
    two or more live rows and that lies in no shared subtree.  A node is
    shared when a column on its path from the root maps to zero, that
    is, leaves the group unchanged (a proper quotient of a finitely
    generated abelian group is never isomorphic to it)."""
    generators = [g.rank + len(g.factors) for g in table]
    shared = [False] * len(table)
    taken, saved = 1, 0
    for mask in range(1, len(table)):
        parent = mask ^ 1 << mask.bit_length() - 1
        shared[mask] = shared[parent] or table[mask] == table[parent]
        if generators[parent] > 1:
            taken += not shared[mask]
            saved += shared[mask]
    return taken, saved


def test_walk_takes_normal_forms_only_outside_shared_and_one_row_subtrees(monkeypatch):
    snf = abgroups.smith_normal_form
    calls = []

    def recording(mat, *args, **kwargs):
        calls.append(mat)
        return snf(mat, *args, **kwargs)

    rng = random.Random("normal-forms")
    cases = [(kind, kernel_case(rng, kind))
             for kind in ("in-span", "early-trivial", "generic", "zero-and-repeated")
             for _ in range(12)]
    # Z/4 + Z/6 + Z: c and d lie in the span of a and b, and e in the relations'
    cases.append(("in-span", Realization(tuple("abcdef"), [[4, 0], [0, 6], [0, 0]],
                                         [[1, 0, 1, 2, 4, 3], [0, 1, 1, -1, 0, 5],
                                          [0, 1, 1, -1, 0, 2]])))
    # Z/2 + Z/6: c and d lie in the relations' span, so every node shares
    # their subtrees, and a leaves one live row
    cases.append(("in-span", Realization(tuple("abcde"), [[2, 0], [0, 6]],
                                         [[0, 1, 2, 0, 1], [1, 3, 6, 12, 5]])))
    saved = trivial_after_a = 0
    for kind, real in cases:
        want = per_subset_cokernels(real)
        monkeypatch.setattr(abgroups, "smith_normal_form", recording)
        calls.clear()
        got = from_realization(real).table
        monkeypatch.undo()
        assert got == want, real
        taken, shared = expected_normal_forms(want)
        assert len(calls) == taken, real
        saved += shared
        if want[1] == TRIVIAL:  # the first label kills a cyclic root
            assert len(calls) == 1, real
            trivial_after_a += 1
    assert saved >= 100 and trivial_after_a >= 4


@pytest.mark.parametrize("seed,dim", [(1, 5), (5, 5), (1, 1)])
def test_sixteen_labels_spot_checked_against_cokernel(seed, dim):
    # the realizations CI takes through the CLI at the 16-label cap; a
    # strided slice off by one would show only at some masks
    real = random_realization(random.Random(seed), max_dim=dim, n_labels=16)
    table = from_realization(real).table
    full = (1 << 16) - 1
    rng = random.Random(f"cap/{seed}/{dim}")
    masks = [0, full, *(1 << j for j in range(16)), *(rng.randrange(full) for _ in range(256))]
    for mask in masks:
        chosen = [rel + [vec[j] for j in range(16) if mask >> j & 1]
                  for rel, vec in zip(real.relations, real.vectors)]
        assert table[mask] == cokernel(chosen), mask


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
                    return Verdict((Violation(mask, labels[b], labels[c], v.kind,
                                              v.prime, v.index),))
    return Verdict()


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


def slice_keys(code, lo, t, e):
    """The square keys of the subsets lo + L, L < 2^t, gathered from
    slices of ``code``: the slice at offset d holds code[lo + d + L], and
    a square whose labels have low bits m keeps the L avoiding m."""
    size = 1 << t
    window = lambda d: code[lo + d:lo + d + size]  # noqa: E731
    free = [1 << i for i in range(e) if not lo >> i & 1]
    keys = set()
    for x, b in enumerate(free):
        for c in free[x:]:
            avoid = [not L & (b | c) & (size - 1) for L in range(size)]
            keys.update(itertools.compress(
                zip(window(0), window(b), window(c), window(b | c)), avoid))
    return keys


def node_leaves(memo, k, n):
    """The entry numbers under node n of level k, in subset order."""
    if k <= matroids._BASE:
        return list(memo.kids[k][n])
    n0, n1 = memo.kids[k][n]
    return node_leaves(memo, k - 1, n0) + node_leaves(memo, k - 1, n1)


def tuple_keys(memo, tup):
    """The square keys under a memoized tuple of nodes, by positions:
    (k, n) the squares inside n, (k, x, y) those with b inside x and c
    the label taking x to y, (k, w, x, y, z) the aligned leaves."""
    k, *nodes = tup
    leaves = [node_leaves(memo, k, n) for n in nodes]
    size = 1 << k
    if len(leaves) == 4:
        return set(zip(*leaves))
    bits = [1 << i for i in range(k)]
    if len(leaves) == 2:
        x, y = leaves
        return {(x[L], x[L | b], y[L], y[L | b]) for b in bits for L in range(size) if not L & b}
    n, = leaves
    return {(n[L], n[L | b], n[L | c], n[L | b | c]) for i, b in enumerate(bits)
            for c in bits[i:] for L in range(size) if not L & (b | c)}


def check_gathering(memo, table, e):
    """Every block's tree keys against the slice gathering: all of them
    with nothing certified, and with the memo's certified tuples the
    tree keys plus the keys under those tuples.  A block whose keys pass
    the screen keeps its tuples, as in a scan."""
    code = memo.number(ZMatroid(tuple("abcdefghijklmnop"[:e]), table))
    t = max(e - 5, min(e, 3))
    top = memo.tree(code, t)
    under = {}
    for j in range(len(top)):
        want = slice_keys(code, j << t, t, e)
        kept, memo.done = memo.done, [set() for _ in memo.done]
        assert memo.block_keys(top, t, e, j, []) == want
        memo.done = kept
        for tup in ((k, *cube) for k, cubes in enumerate(kept) for cube in cubes):
            if tup not in under:
                under[tup] = tuple_keys(memo, tup)
        covered = set().union(*under.values())
        new = []
        got = memo.block_keys(top, t, e, j, new)
        assert got <= want <= got | covered
        if memo.screen(got):
            for k, cubes in new:
                memo.done[k] -= cubes


def gathering_tables():
    """Fixed-seed tables on 0-9 labels: realized, over prime-power
    ambients, with one entry perturbed, and with every entry equal."""
    rng = random.Random("gathering")
    for e in range(10):
        real = random_realization(rng, max_dim=4, n_labels=e)
        m = from_realization(real)
        yield m.labels, m.table
        n = len(real.relations)
        rel = [[2 ** rng.randint(1, 4) if i == j else 0 for j in range(n)] for i in range(n)]
        yield m.labels, from_realization(Realization(real.labels, rel, real.vectors)).table
        table = list(m.table)
        mask = rng.randrange(len(table))
        table[mask] = changed(table[mask], rng.choice(("rank", "torsion", "deepen")), 2)
        yield m.labels, tuple(table)
        yield m.labels, m.table
        yield m.labels, (FgAbGroup(1, (2,)),) * (1 << e)


def test_base_picks_are_the_listed_keys():
    # the cube-splitting rule run on leaf positions against the keys
    # inside one node of 2^k leaves listed directly: the squares
    # (L, Lb, Lc, Lbc), b <= c, and the edges (L, Lb), the L avoiding b
    # and c, whose keys take L and Lb from x and from y
    for k in range(matroids._BASE + 1):
        bits = [1 << i for i in range(k)]
        squares = [(L, L | b, L | c, L | b | c) for x, b in enumerate(bits) for c in bits[x:]
                   for L in range(1 << k) if not L & (b | c)]
        edges = [(L, L | b) for b in bits for L in range(1 << k) if not L & b]
        size = 1 << k
        assert matroids._PICKS[k][1] == sorted(squares)
        assert matroids._PICKS[k][2] == sorted((i, j, size + i, size + j) for i, j in edges)


def test_tree_keys_match_slice_gathering():
    warm = matroids._Memo()
    for labels, table in gathering_tables():
        e = len(labels)
        check_gathering(matroids._Memo(), table, e)
        check_gathering(copy.deepcopy(warm), table, e)
        matroids._scan(ZMatroid(labels, table), warm)
        check_gathering(copy.deepcopy(warm), table, e)


# a realized table some of whose squares fall short of summand supply at
# p = 3, so that the witness search decides them
SHORT_SUPPLY = from_realization(Realization(
    ("a", "b", "c", "d"), [[243, 0, 0], [0, 27, 0], [0, 0, 9]],
    [[-15, 15, 13, -5], [17, -14, -16, -2], [-5, 20, 19, -11]]))


def _ref_screen(memo, squares):
    """The screen that decided every key at the generic point as well as
    at each prime of its entries."""
    local = [{None: f, **ps} for f, ps in zip(memo.free, memo.local)]
    mods, seen = memo.mods, {}
    bad = set()
    for k in squares:
        l0, l1, l2, l3 = map(local.__getitem__, k)
        f0, f1, f2, f3 = l0[None], l1[None], l2[None], l3[None]
        for p in {*l0, *l1, *l2, *l3}:
            cap = 0 if p is None else surjections.exact_cap(p)
            key = (cap, l0.get(p, f0), l1.get(p, f1), l2.get(p, f2), l3.get(p, f3))
            ok = seen.get(key)
            if ok is None:
                ok = seen[key] = surjections.square_screen(cap, *map(mods.__getitem__, key[1:]))
            if not ok:
                bad.add(k)
                break
    return bad


def test_screen_matches_the_screen_with_the_generic_point():
    # realized, prime-power, perturbed and equal tables, one whose squares
    # fall short of summand supply, their free parts, and every rank
    # table of ranks 0..2 on 3 labels, through one memo
    def free_parts(table):
        return tuple(FgAbGroup(g.rank) for g in table)

    tables = [t for _, t in gathering_tables()] + [SHORT_SUPPLY.table]
    tables += [free_parts(t) for t in tables]
    tables += [tuple(map(FgAbGroup, ranks)) for ranks in itertools.product(range(3), repeat=8)]
    memo = matroids._Memo()
    rejected = 0
    for table in tables:
        e = len(table).bit_length() - 1
        code = memo.number(ZMatroid(tuple("abcdefghij"[:e]), table))
        t = max(e - 5, min(e, 3))
        top = memo.tree(code, t)
        memo.done = [set() for _ in memo.done]
        keys = set().union(*(memo.block_keys(top, t, e, j, []) for j in range(len(top))))
        bad = memo.screen(keys)
        assert bad == _ref_screen(memo, keys)
        rejected += bool(bad)
    assert rejected > len(tables) // 2


def test_edited_copies_through_one_memo():
    # a base table and 54 one-entry edits, each scanned twice through one
    # memo: the second scan of a rejected copy finds its failing block's
    # tuples uncertified again
    rng = random.Random("edits")
    rel = [[rng.choice((4, 8, 9, 27, 12, 18)) if i == j else 0 for j in range(4)]
           for i in range(4)]
    vectors = [[rng.randint(-9, 9) for _ in range(9)] for _ in range(4)]
    base = from_realization(Realization(tuple("abcdefghi"), rel, vectors))
    tables = [base.table]
    size = len(base.table)
    for kind in ("rank", "torsion", "deepen"):
        for third in range(3):
            for _ in range(6):
                table = list(base.table)
                mask = rng.randrange(size * third // 3, size * (third + 1) // 3)
                table[mask] = changed(table[mask], kind, rng.choice((2, 3)))
                tables.append(tuple(table))
    memo = matroids._Memo()
    rejected = 0
    for table in tables:
        want = naive_scan(base.labels, table, check_m1, check_square)
        z = ZMatroid(base.labels, table)
        assert matroids._scan(z, matroids._Memo()) == want
        for _ in range(2):
            assert matroids._scan(z, memo) == want
        rejected += not want.ok
    assert rejected >= 40
    assert memo.size() < sum(map(len, tables))


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
    # p = 2 finds no witness pair, past the order of exhaustive search;
    # p = 3 would fail the sequence test
    (((2, 128), (4,), (4,), (2,)), (27, 3, 3, 1), "no-witness-pair p=2 n=2"),
    # the same within it: p = 2 has no pair
    (((2, 8), (4,), (4,), (2,)), (27, 3, 3, 1), "no-pair p=2 n=2"),
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


def test_walk_decides_every_key_through_check_square(monkeypatch):
    # the benchmark's traced runs count the calls through the scan's
    # check_square and check_m1 and require each count to equal the
    # change in that cache's hits + misses; the walk decides the b = c
    # keys by check_square too, and leaves check_m1's cache alone
    calls = []
    decide = matroids.check_square
    monkeypatch.setattr(matroids, "check_square", lambda *g: calls.append(g) or decide(*g))
    monkeypatch.setattr(matroids, "_memo", matroids._Memo())

    def count(fn):
        info = fn.cache_info()
        return info.hits + info.misses

    squares, singles = count(check_square), count(check_m1)
    m = ZMatroid(("a",), (FgAbGroup(0, (2, 2)), TRIVIAL))
    verdict = is_matroid(m)
    assert verdict.violation.describe(m.labels) == "A={} b=a c=a: M1-local p=2 n=1"
    assert calls == [(FgAbGroup(0, (2, 2)), TRIVIAL, TRIVIAL, TRIVIAL)]
    assert count(check_square) - squares == len(calls)
    assert count(check_m1) == singles


def test_memo_localizes_each_group_once_per_prime(monkeypatch):
    # local modules are numbered when a group is first seen: a second scan,
    # of a copy with one entry changed, localizes only the new entry
    calls = []
    monkeypatch.setattr(matroids, "localize", lambda g, p: calls.append((g, p)) or localize(g, p))
    monkeypatch.setattr(matroids, "_memo", matroids._Memo())
    m = from_realization(Realization(("a", "b", "c"), [[8, 0], [0, 9]], [[1, 2, 3], [1, 1, 2]]))
    assert is_matroid(ZMatroid(m.labels, m.table)).ok
    assert calls == [(g, p) for g in m.entries for p in support_primes(g)]
    table = list(m.table)
    table[0] = new = changed(table[0], "torsion", 5)
    assert new not in m.entries and support_primes(new) == (2, 3, 5)
    calls.clear()
    is_matroid(ZMatroid(m.labels, tuple(table)))
    assert calls == [(new, p) for p in support_primes(new)]


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
    m = SHORT_SUPPLY
    assert is_matroid(ZMatroid(m.labels, m.table)).ok
    assert found and all(found)


def test_certifier_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(matroids, "_memo", matroids._Memo())
    monkeypatch.setattr(matroids, "_MEMO_BOUND", 50)
    m = from_realization(random_realization(random.Random(7), max_dim=4, n_labels=5))
    for _ in range(2):
        assert is_matroid(ZMatroid(m.labels, m.table)).ok
        assert matroids._memo.size() <= 50
    # the size counts tree nodes and certified cubes: a 5-label table of
    # equal entries keeps one group with the number of its one local
    # module (its free part, as it has no support prime), one level-3
    # node n, the cubes (n), (n, n) and the degenerate (n, n, n, n), the
    # local module itself and one local decision, 8 items, so a bound of
    # 7 drops it
    monkeypatch.setattr(matroids, "_memo", matroids._Memo())
    equal = ZMatroid(tuple("abcde"), (FgAbGroup(1),) * 32)
    assert is_matroid(equal).ok
    memo = matroids._memo
    assert sum(map(len, memo.kids)) == 1 and sum(map(len, memo.done)) == 3
    assert memo.size() == 8
    monkeypatch.setattr(matroids, "_MEMO_BOUND", 7)
    assert is_matroid(equal).ok
    assert matroids._memo is not memo and matroids._memo.size() == 0


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
