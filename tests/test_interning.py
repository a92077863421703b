"""Every path that makes a table stores it interned: ``entries`` distinct by
value in order of first sight by mask, ``code`` one entry number per mask.
Each path is checked against the per-subset formula it replaced, kept here
as the oracle, and equal tables compare and hash equal whichever path
built them."""

import random

import pytest

from modmatroid import cli
from modmatroid.abgroups import FgAbGroup, canonicalize, localize
from modmatroid.duality import dual
from modmatroid.jsonio import emit_matroid_document, parse_matroid_document
from modmatroid.matroids import (
    DvrMatroid,
    Realization,
    ZMatroid,
    contract,
    delete,
    essentialize,
    from_realization,
    localize_matroid,
    random_realization,
    subset_keys,
    subsets,
    verify,
)
from test_matroids import per_subset_cokernels


def check_interned(m, want, *flags):
    """m stores the table ``want`` interned, and equals (with the same
    hash) the table built from ``want``'s objects by the constructor."""
    assert m.table == tuple(want)
    first = tuple(dict.fromkeys(want))  # distinct by value, first sight by mask
    assert m.entries == first and len(set(m.entries)) == len(m.entries)
    number = {g: i for i, g in enumerate(first)}
    assert m.code == tuple(number[g] for g in want)
    assert type(m.code) is tuple and type(m.entries) is tuple
    built = type(m)(m.labels, tuple(want), *flags)
    assert built == m and hash(built) == hash(m)
    assert (built.entries, built.code) == (m.entries, m.code)


# the per-subset formulas the interned paths replaced

def embed(mask: int, pos: int) -> int:
    low = mask & ((1 << pos) - 1)
    return low | (mask >> pos) << (pos + 1)


def per_subset_minor(m: ZMatroid, a: str, bit: int) -> list:
    pos = m.labels.index(a)
    table = m.table
    return [table[embed(s, pos) | bit << pos] for s in subsets(len(m.labels) - 1)]


def per_subset_dual(m: ZMatroid) -> list:
    table = m.table
    out = [None] * len(table)
    for a, g in enumerate(table):
        out[m.full ^ a] = FgAbGroup(g.rank + a.bit_count() - table[0].rank, g.factors)
    return out


def per_subset_parse(doc: dict) -> list:
    modules = doc["modules"]
    return [canonicalize([int(t) for t in modules[k].get("torsion", [])],
                         int(modules[k].get("rank", 0)))
            for k in subset_keys(tuple(doc["ground_set"]))]


def with_free_row(r: Realization) -> Realization:
    """The configuration with one more ambient row that nothing reaches:
    every entry gains a free summand, so the split rank is at least 1."""
    relations = len(r.relations[0]) if r.relations else 0
    return Realization(r.labels, [*r.relations, [0] * relations],
                       [*r.vectors, [0] * len(r.labels)])


def small_realizations():
    rng = random.Random("interning")
    # up to 7 labels: the minors take runs at some label positions and
    # strided slices at others
    for e in range(0, 8):
        r = random_realization(rng, max_dim=4, n_labels=e)
        yield pytest.param(r, id=f"{e}-labels")
        yield pytest.param(with_free_row(r), id=f"{e}-labels-split")


@pytest.mark.parametrize("r", small_realizations())
def test_every_table_path_interns(r, monkeypatch):
    m = from_realization(r)
    check_interned(m, per_subset_cokernels(r), True)
    v = verify(ZMatroid(m.labels, m.table))
    check_interned(v, m.table, True)
    for a in m.labels:
        check_interned(delete(m, a), per_subset_minor(m, a, 0), True)
        check_interned(contract(m, a), per_subset_minor(m, a, 1), True)
    ess, split = essentialize(m)
    assert split == m.table[-1].rank
    check_interned(ess, [FgAbGroup(g.rank - split, g.factors) for g in m.table], True)
    check_interned(dual(m), per_subset_dual(m), True)
    doc = emit_matroid_document(m)
    parsed, _ = parse_matroid_document(doc)
    check_interned(parsed, per_subset_parse(doc), False)
    assert parsed == m and hash(parsed) == hash(m) and dual(dual(ess)) == ess
    for p in (2, 3, 5):
        local = localize_matroid(m, p)
        check_interned(local, [localize(g, p) for g in m.table])
        assert local == DvrMatroid(m.labels, tuple(localize(g, p) for g in m.table))
    # the command line's localize re-presents the local table as groups
    shown = []
    monkeypatch.setattr(cli, "emit_matroid_document", lambda t: shown.append(t) or {})
    monkeypatch.setattr(cli, "dumps", lambda doc: "")
    monkeypatch.setattr(cli, "_load_matroid", lambda path: m)
    assert cli.main(["localize", "--p", "2", "-"]) == 0
    want = [FgAbGroup(d.rank, tuple(2**x for x in reversed(d.exps)))
            for d in (localize(g, 2) for g in m.table)]
    check_interned(shown[0], want, False)


def test_constructor_interns_by_identity_then_by_value():
    g, h = FgAbGroup(1, (2,)), FgAbGroup(0, (3,))
    table = (g, h, FgAbGroup(1, (2,)), FgAbGroup(0, (3,)))  # equal values, new objects
    m = ZMatroid(("a", "b"), table)
    check_interned(m, table, False)
    assert m.entries == (g, h) and m.code == (0, 1, 0, 1)
    assert m == ZMatroid(("a", "b"), (g, h, g, h), True)


def test_parse_merges_entries_alike_as_groups():
    # different raw values, one group: one entry, numbered by first sight
    doc = {"ground_set": ["a", "b"], "modules": {
        "": {"rank": 1, "torsion": [4, 2]}, "a": {"rank": 0},
        "b": {"rank": "1", "torsion": [2, 4]}, "a,b": {"torsion": []}}}
    m, warnings = parse_matroid_document(doc)
    check_interned(m, per_subset_parse(doc), False)
    assert m.code == (0, 1, 0, 1) and len(warnings) == 1


def test_essentialize_at_16_labels_keeps_one_group_per_entry():
    # split rank 1 on the 16-label table: one group per entry, not per subset
    r = random_realization(random.Random(1), max_dim=5, n_labels=16)
    m = from_realization(with_free_row(r))
    ess, split = essentialize(m)
    assert split == 1
    table = m.table
    check_interned(ess, [FgAbGroup(g.rank - 1, g.factors) for g in table], True)
    assert len({id(g) for g in ess.table}) == len(ess.entries) == len(m.entries)
    assert ess == from_realization(r) and hash(ess) == hash(from_realization(r))
