import json
import random
import sys

import pytest

from modmatroid.abgroups import FgAbGroup, TRIVIAL
from modmatroid.jsonio import (
    BIG,
    DocumentError,
    _check_labels,
    _decode_int,
    canonicalize,
    dumps,
    emit_matroid_document,
    emit_realization_document,
    load_path,
    parse_matroid_document,
    parse_realization_document,
)
from modmatroid.matroids import (
    Realization,
    ZMatroid,
    from_realization,
    random_realization,
    subset_key,
    subsets,
)

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


def _edited(edit) -> dict:
    doc = good_doc()
    edit(doc["modules"])
    return doc


def _bad_torsion(bad):
    return _edited(lambda mods: mods.update({"1": {"torsion": [bad]}}))


# (document, the start of the parser's message)
MALFORMED = [
    ([], "matroid document must be a JSON object"),
    ({"ground_set": "12", "modules": {}}, "ground_set must be a list of strings"),
    ({"ground_set": ["a,b"], "modules": {}}, "bad label 'a,b': empty or contains a comma"),
    ({"ground_set": ["a", "a"], "modules": {}}, "ground_set labels must be distinct"),
    (_edited(lambda mods: mods.pop("2")), "missing subset '2'"),
    (_edited(lambda mods: [mods.pop("2"), mods.pop("1")]), "missing subset '1'"),
    (_edited(lambda mods: mods.update({"2,1": {"rank": 0}})), "unknown subset key '2,1'"),
    (_edited(lambda mods: mods.update({"1": {"rank": -1}})), "subset '1': negative rank"),
    (_edited(lambda mods: mods.update({"1": {"torsion": [0]}})),
     "subset '1': torsion orders must be nonzero"),
    (_edited(lambda mods: mods.update({"1": {"rank": True}})),
     "subset '1' rank: expected an integer"),
    *[(_bad_torsion(bad), "subset '1' torsion: bad integer")
      for bad in ("x", "1_0", " 7", "7 ", "+3", "\u0663", "-", "")],
    (_edited(lambda mods: mods.update({"1": {"rank": "1_0"}})), "subset '1' rank: bad integer"),
]


def test_matroid_document_errors():
    for doc, message in MALFORMED:
        with pytest.raises(DocumentError) as exc:
            parse_matroid_document(doc)
        assert str(exc.value).startswith(message), (doc, message)


def per_entry_parse(doc):
    """The parser before entries were shared: every entry decoded on its own."""
    if not isinstance(doc, dict):
        raise DocumentError("matroid document must be a JSON object")
    labels = _check_labels(doc.get("ground_set"))
    modules = doc.get("modules")
    if not isinstance(modules, dict):
        raise DocumentError("modules must be an object keyed by subset")
    expected = {subset_key(labels, s): s for s in subsets(len(labels))}
    unknown = set(modules) - set(expected)
    if unknown:
        raise DocumentError(f"unknown subset key {sorted(unknown)[0]!r}")
    warnings = []
    table = [None] * (1 << len(labels))
    for key, mask in expected.items():
        if key not in modules:
            raise DocumentError(f"missing subset {key!r}")
        entry = modules[key]
        if not isinstance(entry, dict):
            raise DocumentError(f"subset {key!r}: entry must be an object")
        rank = _decode_int(entry.get("rank", 0), f"subset {key!r} rank")
        if rank < 0:
            raise DocumentError(f"subset {key!r}: negative rank")
        torsion = entry.get("torsion", [])
        if not isinstance(torsion, list):
            raise DocumentError(f"subset {key!r}: torsion must be a list")
        orders = [_decode_int(t, f"subset {key!r} torsion") for t in torsion]
        if any(t == 0 for t in orders):
            raise DocumentError(f"subset {key!r}: torsion orders must be nonzero")
        g = canonicalize(orders, rank)
        if g.factors != tuple(orders):
            warnings.append(f"subset {key!r}: torsion canonicalized to {list(g.factors)}")
        table[mask] = g
    return ZMatroid(labels, tuple(table)), warnings


def outcome(parse, doc):
    try:
        m, warnings = parse(doc)
    except DocumentError as exc:
        return "error", str(exc)
    return m, warnings


# (valid entry, later entry): equal as Python values (True == 1, 1.0 == 1,
# "24" unpacks like ["2", "4"]) but not as document values, or unhashable
LOOKALIKES = [
    ({"rank": 1}, {"rank": True}), ({"rank": 0}, {"rank": False}),
    ({"rank": 1}, {"rank": 1.0}), ({"torsion": [2]}, {"torsion": [2.0]}),
    ({"torsion": [1]}, {"torsion": [True]}), ({"torsion": ["2", "4"]}, {"torsion": "24"}),
    ({"torsion": [2]}, {"torsion": [[2]]}), ({}, {"torsion": [{}]}), ({"rank": 1}, {"rank": [1]}),
    ({}, {"torsion": 7}), ({}, {"torsion": None}), ({}, []), ({}, None),
]


def varied_documents():
    """Valid documents on 0-6 labels whose entries repeat, need
    canonicalizing and write integers as strings; then, from one label on,
    the same documents with a lookalike pair at the first and last subset."""
    rng = random.Random(5)
    pool = [
        {"rank": 1}, {"rank": 0, "torsion": ["2", "4"]}, {"rank": 0, "torsion": [2, 4]},
        {"rank": 0, "torsion": [4, 2]}, {"rank": 2, "torsion": [3, 2]}, {},
        {"rank": "1", "torsion": []}, {"torsion": [str(BIG + 1)]}, {"torsion": ["-6", 4]},
    ]
    for e in range(7):
        labels = ["é", "b", 'q"', "a\\", "x y", "\u2603"][:e]
        keys = [subset_key(tuple(labels), s) for s in subsets(e)]
        modules = {k: json.loads(json.dumps(rng.choice(pool))) for k in keys}
        yield {"ground_set": labels, "modules": modules}
        for first, last in LOOKALIKES if e else ():
            yield {"ground_set": labels, "modules": {**modules, keys[0]: first, keys[-1]: last}}


def test_shared_entry_parse_matches_per_entry_parse():
    docs = list(varied_documents()) + [doc for doc, _ in MALFORMED]
    for doc in docs:
        assert outcome(parse_matroid_document, doc) == outcome(per_entry_parse, doc), doc


def test_shared_entries_are_one_group():
    m, _ = parse_matroid_document({"ground_set": ["a", "b"], "modules": {
        "": {"rank": 1}, "a": {"rank": 1, "torsion": []}, "b": {"rank": 1}, "a,b": {}}})
    assert m.table[0] is m.table[2] and m.table[0] == m.table[1]


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


def encode(n: int):
    return str(n) if abs(n) >= BIG else n


def per_entry_emit(m: ZMatroid) -> dict:
    """The emitter before entries were shared: one entry per subset."""
    return {"ground_set": list(m.labels), "modules": {
        subset_key(m.labels, s): {"rank": g.rank, "torsion": [encode(f) for f in g.factors]}
        for s, g in enumerate(m.table)}}


def varied_tables():
    """Tables on 0-6 labels, with labels that JSON escapes, orders past 2^53,
    empty torsion and many repeated entries."""
    rng = random.Random(7)
    pool = [TRIVIAL, FgAbGroup(1), FgAbGroup(0, (2, 4)), FgAbGroup(3, (BIG,)),
            FgAbGroup(0, (2, 2 * BIG)), FgAbGroup(0, (BIG - 1,)), FgAbGroup(2, (5, 10**40))]
    for e in range(7):
        labels = ("é", "b", 'q"', "a\\", "x y", "\u2603")[:e]
        for width in (1, 3, len(pool)):
            yield ZMatroid(labels, tuple(rng.choice(pool[:width]) for _ in subsets(e)))
    yield from_realization(random_realization(random.Random(3), n_labels=6))


def test_writer_matches_json_dumps():
    for m in varied_tables():
        doc = emit_matroid_document(m)
        assert doc == per_entry_emit(m)
        assert dumps(doc) == json.dumps(per_entry_emit(m), indent=2)


def test_realization_writer_matches_json_dumps():
    rng = random.Random(9)
    configs = [random_realization(rng, max_entry=1 << 60) for _ in range(20)]
    configs += [Realization(("a", "b"), [[], []], [[1, 2], [3, 4]]),  # no relation columns
                Realization((), [[5, 6]], [[]]), Realization((), [], []),  # no labels
                Realization(("x y", "é"), [[BIG, -BIG]], [[0, BIG - 1]])]
    for r in configs:
        doc = emit_realization_document(r)
        columns = len(r.relations[0]) if r.relations else 0
        assert doc == {
            "ambient_relations": [[encode(row[k]) for row in r.relations] for k in range(columns)],
            "generators": {a: [encode(row[j]) for row in r.vectors] for j, a in enumerate(r.labels)},
        }
        assert dumps(doc) == json.dumps(doc, indent=2)
        assert parse_realization_document(json.loads(dumps(doc))) == r


def test_writer_shares_by_identity_at_every_depth():
    shared = {"torsion": [2, "x"], "empty": [], "none": {}}
    doc = {"a": shared, "b": [shared, [shared, {"c": shared}]], "d": [[], {}], "e": -3}
    assert dumps(doc) == json.dumps(doc, indent=2)
    assert dumps({}) == "{}" and dumps([]) == "[]"
    with pytest.raises(TypeError):
        dumps({"a": 1.5})


def test_output_integers_past_the_digit_limit_are_refused():
    limit = sys.get_int_max_str_digits()
    huge = 10**limit  # limit + 1 digits
    with pytest.raises(DocumentError, match=fr"^subset 'a' torsion: an integer of {limit + 1} "
                                            fr"digits, past the {limit}-digit limit"):
        emit_matroid_document(ZMatroid(("a",), (FgAbGroup(1), FgAbGroup(0, (huge,)))))
    with pytest.raises(DocumentError, match=fr"^generators\[b\]: an integer of {limit + 2} "):
        emit_realization_document(Realization(("a", "b"), [[1]], [[2, -11 * huge]]))
    with pytest.raises(DocumentError, match=r"^ambient_relations\[1\]: "):
        emit_realization_document(Realization(("a",), [[1, huge + 1]], [[2]]))
    ok = 10 ** (limit - 1)  # limit digits
    assert emit_matroid_document(ZMatroid(("a",), (FgAbGroup(0, (ok,)), TRIVIAL)))[
        "modules"][""]["torsion"] == [str(ok)]


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
