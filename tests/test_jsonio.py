import json

import pytest

from modmatroid.abgroups import FgAbGroup, TRIVIAL
from modmatroid.jsonio import (
    DocumentError,
    dumps,
    emit_matroid_document,
    emit_realization_document,
    load_path,
    parse_matroid_document,
    parse_realization_document,
)
from modmatroid.matroids import Realization, ZMatroid, from_realization

GOOD = Realization(("1", "2"), [[4, 0], [0, 2]], [[1, 1], [0, 1]])


def good_doc() -> dict:
    return {
        "ground_set": ["1", "2"],
        "modules": {
            "": {"rank": 0, "torsion": [2, 4]},
            "1": {"rank": 0, "torsion": [2]},
            "2": {"rank": 0, "torsion": [2]},
            "1,2": {"rank": 0, "torsion": []},
        },
    }


def test_matroid_document_round_trip():
    m, warnings = parse_matroid_document(good_doc())
    assert not warnings
    assert m.table == from_realization(GOOD).table
    assert emit_matroid_document(m) == good_doc()
    again, _ = parse_matroid_document(json.loads(dumps(emit_matroid_document(m))))
    assert again.table == m.table


def test_matroid_document_canonicalization_warning():
    doc = good_doc()
    doc["modules"][""] = {"rank": 0, "torsion": [3, 2]}
    m, warnings = parse_matroid_document(doc)
    assert warnings == ["subset '': torsion canonicalized to [6]"]
    assert m.table[0] == FgAbGroup(0, (6,))


def test_matroid_document_defaults():
    doc = good_doc()
    doc["modules"]["1,2"] = {}
    m, warnings = parse_matroid_document(doc)
    assert m.table[3] == TRIVIAL and not warnings


def test_matroid_document_errors():
    with pytest.raises(DocumentError, match="JSON object"):
        parse_matroid_document([])
    with pytest.raises(DocumentError, match="ground_set must be a list of strings"):
        parse_matroid_document({"ground_set": "12", "modules": {}})
    with pytest.raises(DocumentError, match="contains a comma"):
        parse_matroid_document({"ground_set": ["a,b"], "modules": {}})
    with pytest.raises(DocumentError, match="distinct"):
        parse_matroid_document({"ground_set": ["a", "a"], "modules": {}})
    doc = good_doc()
    del doc["modules"]["2"]
    with pytest.raises(DocumentError, match="missing subset '2'"):
        parse_matroid_document(doc)
    doc = good_doc()
    doc["modules"]["2,1"] = {"rank": 0}
    with pytest.raises(DocumentError, match="unknown subset key '2,1'"):
        parse_matroid_document(doc)
    doc = good_doc()
    doc["modules"]["1"] = {"rank": -1}
    with pytest.raises(DocumentError, match="negative rank"):
        parse_matroid_document(doc)
    doc = good_doc()
    doc["modules"]["1"] = {"torsion": [0]}
    with pytest.raises(DocumentError, match="torsion orders must be nonzero"):
        parse_matroid_document(doc)
    doc = good_doc()
    doc["modules"]["1"] = {"rank": True}
    with pytest.raises(DocumentError, match="expected an integer"):
        parse_matroid_document(doc)
    for bad in ("x", "1_0", " 7", "7 ", "+3", "\u0663", "-", ""):
        doc = good_doc()
        doc["modules"]["1"] = {"torsion": [bad]}
        with pytest.raises(DocumentError, match="bad integer"):
            parse_matroid_document(doc)
    doc = good_doc()
    doc["modules"]["1"] = {"rank": "1_0"}
    with pytest.raises(DocumentError, match="rank: bad integer"):
        parse_matroid_document(doc)


def test_realization_document_round_trip():
    doc = emit_realization_document(GOOD)
    assert doc == {
        "ambient_relations": [[4, 0], [0, 2]],
        "generators": {"1": [1, 0], "2": [1, 1]},
    }
    r = parse_realization_document(doc)
    assert r == GOOD
    assert parse_realization_document(json.loads(dumps(doc))) == GOOD


def test_realization_document_defaults_and_order():
    r = parse_realization_document({"generators": {"b": [1], "a": [2]}})
    assert r.labels == ("a", "b")
    assert r.relations == [[]]
    assert r.vectors == [[2, 1]]


def test_realization_document_errors():
    with pytest.raises(DocumentError, match="JSON object"):
        parse_realization_document(7)
    with pytest.raises(DocumentError, match="generators must be an object"):
        parse_realization_document({"ambient_relations": []})
    with pytest.raises(DocumentError, match="same length"):
        parse_realization_document(
            {"ambient_relations": [[1, 2]], "generators": {"a": [1]}}
        )
    with pytest.raises(DocumentError, match=r"ambient_relations\[0\] is not a list"):
        parse_realization_document(
            {"ambient_relations": [3], "generators": {"a": [1]}}
        )


def test_big_integers_cross_the_double_precision_line():
    big = (1 << 60) + 7
    m = ZMatroid(("a",), (FgAbGroup(0, (big,)), TRIVIAL))
    doc = emit_matroid_document(m)
    assert doc["modules"][""]["torsion"] == [str(big)]
    back, warnings = parse_matroid_document(doc)
    assert not warnings and back.table[0] == FgAbGroup(0, (big,))
    r = Realization(("a",), [[big]], [[1]])
    rdoc = emit_realization_document(r)
    assert rdoc["ambient_relations"] == [[str(big)]]
    assert parse_realization_document(rdoc) == r
    small = (1 << 53) - 1
    assert emit_matroid_document(
        ZMatroid(("a",), (FgAbGroup(0, (small,)), TRIVIAL))
    )["modules"][""]["torsion"] == [small]


def test_load_path(tmp_path):
    target = tmp_path / "doc.json"
    target.write_text(dumps(good_doc()), encoding="utf-8")
    assert load_path(str(target)) == good_doc()
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(DocumentError, match="malformed JSON"):
        load_path(str(bad))
    with pytest.raises(DocumentError):
        load_path(str(tmp_path / "missing.json"))


def test_load_path_stdin(monkeypatch, tmp_path):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(dumps(good_doc())))
    assert load_path("-") == good_doc()
