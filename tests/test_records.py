"""The package's records are plain classes with ``__slots__``: they keep the
constructors, equality, hashing, immutability and reprs the package had as
dataclasses, and importing the CLI loads neither ``dataclasses`` nor
``inspect``."""

import os
import pickle
import subprocess
import sys

import pytest

import modmatroid
from modmatroid.abgroups import DMod, FgAbGroup
from modmatroid.intmat import SnfResult
from modmatroid.matroids import DvrMatroid, Realization, Verdict, Violation, ZMatroid
from modmatroid.qam import QamData, QamVerdict, QamViolation
from modmatroid.surjections import SquareVerdict
from modmatroid.tropical import INF, HeightFunction, TropicalVerdict, TropicalViolation
from modmatroid.tutte import TutteClass

G = FgAbGroup(1, (2, 4))
TV = TropicalViolation("three-term", (1, 2, INF), "b")

# (class, positional arguments, the same by keyword, repr); the reprs are
# those the dataclass versions printed, but for the two tables, which
# print their stored fields: the distinct entries and a code per subset
RECORDS = [
    (SnfResult, ((1, 2), [[1, 0], [0, 1]], None, None),
     dict(d=(1, 2), u=[[1, 0], [0, 1]], v=None, uinv=None),
     "SnfResult(d=(1, 2), u=[[1, 0], [0, 1]], v=None, uinv=None)"),
    (FgAbGroup, (1, (2, 4)), dict(rank=1, factors=(2, 4)),
     "FgAbGroup(rank=1, factors=(2, 4))"),
    (DMod, (1, (3, 1)), dict(rank=1, exps=(3, 1)), "DMod(rank=1, exps=(3, 1))"),
    (ZMatroid, (("a",), (G, FgAbGroup()), True),
     dict(labels=("a",), table=(G, FgAbGroup()), verified=True),
     "ZMatroid(labels=('a',), entries=(FgAbGroup(rank=1, factors=(2, 4)),"
     " FgAbGroup(rank=0, factors=())), code=(0, 1), verified=True)"),
    (DvrMatroid, (("a",), (DMod(1), DMod(1))), dict(labels=("a",), table=(DMod(1), DMod(1))),
     "DvrMatroid(labels=('a',), entries=(DMod(rank=1, exps=()),), code=(0, 0))"),
    (Realization, (("a",), [[2]], [[1]]), dict(labels=("a",), relations=[[2]], vectors=[[1]]),
     "Realization(labels=('a',), relations=[[2]], vectors=[[1]])"),
    (Violation, (1, "b", "c", "L2a", 2, 1),
     dict(mask=1, b="b", c="c", kind="L2a", prime=2, index=1),
     "Violation(mask=1, b='b', c='c', kind='L2a', prime=2, index=1)"),
    (Verdict, (False, Violation(0, "a", "b", "rank-drop")),
     dict(ok=False, violation=Violation(0, "a", "b", "rank-drop")),
     "Verdict(ok=False, violation=Violation(mask=0, b='a', c='b', kind='rank-drop',"
     " prime=None, index=None))"),
    (QamData, (("a",), (0, 1), (2, 1)), dict(labels=("a",), rk=(0, 1), mult=(2, 1)),
     "QamData(labels=('a',), rk=(0, 1), mult=(2, 1))"),
    (QamViolation, ("A1", "{a}"), dict(axiom="A1", detail="{a}"),
     "QamViolation(axiom='A1', detail='{a}')"),
    (QamVerdict, (False, QamViolation("A1", "{a}")),
     dict(ok=False, violation=QamViolation("A1", "{a}")),
     "QamVerdict(ok=False, violation=QamViolation(axiom='A1', detail='{a}'))"),
    (SquareVerdict, (False, "L2a", 2, 1), dict(ok=False, kind="L2a", prime=2, index=1),
     "SquareVerdict(ok=False, kind='L2a', prime=2, index=1)"),
    (HeightFunction, (("a",), INF, (3, INF)), dict(labels=("a",), n=INF, values=(3, INF)),
     "HeightFunction(labels=('a',), n=inf, values=(3, inf))"),
    (TropicalViolation, ("three-term", (1, 2, INF), "b"),
     dict(relation="three-term", terms=(1, 2, INF), argmin="b"),
     "TropicalViolation(relation='three-term', terms=(1, 2, inf), argmin='b')"),
    (TropicalVerdict, (False, (TV,)), dict(ok=False, violations=(TV,)),
     "TropicalVerdict(ok=False, violations=(TropicalViolation(relation='three-term',"
     " terms=(1, 2, inf), argmin='b'),))"),
    (TutteClass, ({(1, 0, (2,)): 3, (0, 1, ()): 0},), dict(terms={(1, 0, (2,)): 3}),
     "TutteClass(terms={(1, 0, (2,)): 3})"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs, text):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert repr(a) == repr(b) == text
    assert a == pickle.loads(pickle.dumps(a))


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS[:-1], ids=IDS[:-1])
def test_fields_are_read_only(cls, args, kwargs, text):
    rec = cls(*args)
    field = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert repr(rec) == text


def test_defaults():
    assert FgAbGroup() == FgAbGroup(0, ()) == FgAbGroup(factors=())
    assert DMod() == DMod(0) == DMod(rank=0, exps=())
    assert ZMatroid(("a",), (G, G)).verified is False
    assert Violation(1, "b", "c", "L2a") == Violation(1, "b", "c", "L2a", None, None)
    assert SquareVerdict(False, kind="L2a", prime=2, index=1) == SquareVerdict(False, "L2a", 2, 1)
    assert SquareVerdict(True) == SquareVerdict(True, None, None, None)
    assert Verdict(True).violation is None and QamVerdict(True).violation is None
    assert TropicalVerdict(True).violations == ()
    assert TutteClass().terms == {}


def test_construction_checks_survive():
    for bad in (lambda: FgAbGroup(-1), lambda: FgAbGroup(0, (1,)), lambda: FgAbGroup(0, (2, 3)),
                lambda: DMod(-1), lambda: DMod(0, (0,)), lambda: DMod(0, (1, 2)),
                lambda: ZMatroid(("a",), (G,)), lambda: DvrMatroid(("a",), (DMod(),)),
                lambda: Realization(("a",), [[1]], [[1, 2]]),
                lambda: QamData(("a",), (0, 1), (1, 0))):
        with pytest.raises(ValueError):
            bad()


def test_equality_and_hash_are_by_fields_and_type():
    assert FgAbGroup(0, (2,)) != DMod(0, (2,))
    assert Verdict(True) != QamVerdict(True)
    assert Verdict(True) != TropicalVerdict(True)
    assert FgAbGroup(1, (2, 4)) != FgAbGroup(1, (4,))
    assert hash(FgAbGroup(1, (2, 4))) == hash(G)
    assert len({DMod(1, (2,)), DMod(1, (2,)), DMod(1, (1,))}) == 2
    assert {SquareVerdict(True): 1}[SquareVerdict(True)] == 1


def test_zmatroid_equality_ignores_verified():
    a = ZMatroid(("a",), (G, FgAbGroup()), verified=True)
    b = ZMatroid(("a",), (G, FgAbGroup()))
    assert a == b and hash(a) == hash(b)
    assert a.verified and not b.verified
    assert a != ZMatroid(("b",), (G, FgAbGroup()), verified=True)
    assert pickle.loads(pickle.dumps(a)).verified and not pickle.loads(pickle.dumps(b)).verified


@pytest.mark.parametrize("cls, args", [(ZMatroid, (("a",), (G, FgAbGroup()), True)),
                                       (DvrMatroid, (("a",), (DMod(1), DMod())))],
                         ids=["ZMatroid", "DvrMatroid"])
def test_tables_store_entries_and_code_and_derive_table(cls, args):
    rec = cls(*args)
    assert rec.entries == args[1] and rec.code == (0, 1) and rec.table == args[1]
    # the view reads through the code: an index is an entry, a slice a tuple
    assert rec.table[1] == args[1][1] and rec.table[::-1] == args[1][::-1]
    assert len(rec.table) == 2 and list(rec.table) == list(args[1]) and rec.table != args[1][:1]
    for field in ("entries", "code", "table"):
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
    with pytest.raises(ValueError):  # a field too many
        cls.from_code(rec.labels, rec.entries.__getitem__, rec.code, *args[2:], None)


def test_tutte_class_is_mutable_unhashable_and_drops_zeros():
    t = TutteClass({(0, 0, ()): 0, (1, 0, ()): 2})
    assert t.terms == {(1, 0, ()): 2}
    assert (t + TutteClass({(1, 0, ()): -2})).terms == {}
    with pytest.raises(TypeError):
        hash(t)
    t.terms = {}
    assert t == TutteClass()


def test_cli_import_loads_no_dataclass_machinery():
    code = ("import sys, modmatroid.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(modmatroid.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "[]\n"
