"""JSON documents for module tables and vector configurations.

Two kinds.  A matroid document lists the ground set and one entry per
subset, keyed by the comma-joined, lexicographically sorted labels (the
empty subset keys as "").  A realization document lists the ambient
relation columns and one generator column per label.  Integers whose
magnitude reaches 2^53 are serialized as decimal strings so that readers
with double-precision parsers cannot truncate them; both forms are
accepted on input.  An integer with more decimal digits than the
interpreter converts (4,300 by default) is refused both ways.

Parsing canonicalizes (torsion chains are merged, with a warning when
that changed anything) and emitting is deterministic, so emit-then-parse
is the identity on canonical documents.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Any

from .abgroups import FgAbGroup, canonicalize
from .matroids import MAX_GROUND, Realization, ZMatroid, subset_keys

BIG = 1 << 53


class DocumentError(ValueError):
    pass


def _encode_ints(ns, where) -> list:
    """Integers in document form, strings from 2^53 on.  Parsing refuses
    a string past the interpreter's limit on digits, so emitting does
    too; ``where()`` names the integers in that error."""
    out = []
    for n in ns:
        if -BIG < n < BIG:
            out.append(n)
            continue
        try:
            out.append(str(n))
        except ValueError:
            from decimal import Decimal  # counts the digits exactly; only here, for start-up

            raise DocumentError(
                f"{where()}: an integer of {Decimal(n).adjusted() + 1} digits, past the "
                f"{sys.get_int_max_str_digits()}-digit limit on document integers"
            ) from None
    return out


def _quote(x) -> str:
    """repr(x), with the middle of a long one cut out: a rejected value
    can be megabytes long."""
    r = repr(x)
    return r if len(r) <= 60 else f"{r[:28]}...{r[-28:]} ({len(r)} characters)"


def _decode_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise DocumentError(f"{what}: expected an integer, got {_quote(x)}")
    if isinstance(x, str):
        # a decimal string: no sign but "-", no spaces, "_" or non-ASCII digits
        digits = x[1:] if x.startswith("-") else x
        if not (digits.isascii() and digits.isdigit()):
            raise DocumentError(f"{what}: bad integer {_quote(x)}")
    try:
        return int(x)
    except ValueError:  # past the interpreter's limit on digits
        raise DocumentError(f"{what}: bad integer {_quote(x)}") from None


def _check_labels(ground: Any) -> tuple[str, ...]:
    if not isinstance(ground, list) or not all(isinstance(a, str) for a in ground):
        raise DocumentError("ground_set must be a list of strings")
    for a in ground:
        if not a or "," in a:
            raise DocumentError(f"bad label {a!r}: empty or contains a comma")
    if len(set(ground)) != len(ground):
        raise DocumentError("ground_set labels must be distinct")
    if len(ground) > MAX_GROUND:
        raise DocumentError(f"ground_set larger than {MAX_GROUND}")
    return tuple(ground)


def _decode_entry(key: str, entry: dict) -> tuple[FgAbGroup, bool]:
    """The group of one entry and whether canonicalizing changed its torsion."""
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
    return g, g.factors != tuple(orders)


def parse_matroid_document(doc: Any) -> tuple[ZMatroid, list[str]]:
    """Build the table; returns warnings for entries that needed canonicalizing.

    Subsets are read in mask order.  Entries whose rank and torsion values
    are alike, types included, are decoded once, into one table entry.
    """
    if not isinstance(doc, dict):
        raise DocumentError("matroid document must be a JSON object")
    labels = _check_labels(doc.get("ground_set"))
    modules = doc.get("modules")
    if not isinstance(modules, dict):
        raise DocumentError("modules must be an object keyed by subset")
    keys = subset_keys(labels)
    unknown = modules.keys() - set(keys)
    if unknown:
        raise DocumentError(f"unknown subset key {min(unknown)!r}")
    warnings = []
    code = []
    groups = []  # one per distinct raw entry; from_code merges equal ones
    decoded = {}  # raw entry values and their types -> (number, group if canonicalized)
    for key in keys:
        try:
            entry = modules[key]
        except KeyError:
            raise DocumentError(f"missing subset {key!r}") from None
        if not isinstance(entry, dict):
            raise DocumentError(f"subset {key!r}: entry must be an object")
        rank = entry.get("rank", 0)
        torsion = entry.get("torsion", [])
        try:
            raw = (rank, rank.__class__, torsion.__class__, *torsion, *map(type, torsion))
            hit = decoded.get(raw)
        except TypeError:  # torsion not iterable, or a list or object among the values
            raw = hit = None
        if hit is None:
            g, canonicalized = _decode_entry(key, entry)
            hit = len(groups), g if canonicalized else None
            groups.append(g)
            if raw is not None:
                decoded[raw] = hit
        n, fixed = hit
        if fixed is not None:
            warnings.append(f"subset {key!r}: torsion canonicalized to {list(fixed.factors)}")
        code.append(n)
    return ZMatroid.from_code(labels, groups.__getitem__, code, False), warnings


def emit_matroid_document(m: ZMatroid) -> dict:
    """The document of a table; its subsets share one object per table entry."""
    keys = subset_keys(m.labels)
    docs = []
    for n, g in enumerate(m.entries):
        where = lambda: f"subset {keys[m.code.index(n)]!r} torsion"
        docs.append({"rank": g.rank, "torsion": _encode_ints(g.factors, where)})
    return {"ground_set": list(m.labels),
            "modules": dict(zip(keys, map(docs.__getitem__, m.code)))}


def _columns(value: Any, what: str) -> list[list[int]]:
    if not isinstance(value, list):
        raise DocumentError(f"{what} must be a list of column vectors")
    cols = []
    for k, col in enumerate(value):
        if not isinstance(col, list):
            raise DocumentError(f"{what}[{k}] is not a list")
        cols.append([_decode_int(x, f"{what}[{k}]") for x in col])
    return cols


def parse_realization_document(doc: Any) -> Realization:
    if not isinstance(doc, dict):
        raise DocumentError("realization document must be a JSON object")
    relations = _columns(doc.get("ambient_relations", []), "ambient_relations")
    gens = doc.get("generators")
    if not isinstance(gens, dict):
        raise DocumentError("generators must be an object mapping label to column")
    labels = _check_labels(sorted(gens))
    gen_cols = {a: _columns([gens[a]], f"generators[{a}]")[0] for a in labels}
    heights = {len(c) for c in relations} | {len(gen_cols[a]) for a in labels}
    if len(heights) > 1:
        raise DocumentError("all columns must have the same length")
    n = heights.pop() if heights else 0
    rel_rows = [[c[i] for c in relations] for i in range(n)]
    vec_rows = [[gen_cols[a][i] for a in labels] for i in range(n)]
    return Realization(labels, rel_rows, vec_rows)


def emit_realization_document(r: Realization) -> dict:
    n = len(r.relations)
    m = len(r.relations[0]) if n else 0
    return {
        "ambient_relations": [
            _encode_ints([row[k] for row in r.relations], lambda: f"ambient_relations[{k}]")
            for k in range(m)
        ],
        "generators": {
            a: _encode_ints([row[j] for row in r.vectors], lambda: f"generators[{a}]")
            for j, a in enumerate(r.labels)
        },
    }


def dumps(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` for documents, which hold objects with
    string keys, lists, strings and integers.  A value that an object or a
    list holds more than once is written once."""
    return _write(doc, "\n")


def _write(value, newline: str) -> str:
    t = value.__class__
    if t is str:
        return encode_basestring_ascii(value)
    if t is int:
        return int.__repr__(value)
    if t is not dict and t is not list:
        raise TypeError(f"{t.__name__} is not a document value")
    if not value:
        return "{}" if t is dict else "[]"
    inner = newline + "  "
    values = value.values() if t is dict else value
    done = {i: _write(v, inner) for i, v in dict(zip(map(id, values), values)).items()}
    items = map(done.__getitem__, map(id, values))
    if t is dict:
        items = map("{}: {}".format, map(encode_basestring_ascii, value), items)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def load_path(path: str) -> Any:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise DocumentError(str(exc)) from None
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep
        raise DocumentError(f"malformed JSON: {exc}") from None
    except ValueError:  # the only other: an integer literal past the digit limit
        raise DocumentError(
            f"an integer literal past the {sys.get_int_max_str_digits()}-digit limit"
            " on document integers"
        ) from None
