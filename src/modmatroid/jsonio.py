"""JSON documents for module tables and vector configurations.

Two kinds.  A matroid document lists the ground set and one entry per
subset, keyed by the comma-joined, lexicographically sorted labels (the
empty subset keys as "").  A realization document lists the ambient
relation columns and one generator column per label.  Integers whose
magnitude reaches 2^53 are serialized as decimal strings so that readers
with double-precision parsers cannot truncate them; both forms are
accepted on input.

Parsing canonicalizes (torsion chains are merged, with a warning when
that changed anything) and emitting is deterministic, so emit-then-parse
is the identity on canonical documents.
"""

from __future__ import annotations

import json
from typing import Any

from .abgroups import FgAbGroup, canonicalize
from .matroids import MAX_GROUND, Realization, ZMatroid, subset_key, subsets

BIG = 1 << 53


class DocumentError(ValueError):
    pass


def _encode_int(n: int):
    return str(n) if abs(n) >= BIG else n


def _decode_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise DocumentError(f"{what}: expected an integer, got {x!r}")
    if isinstance(x, str):
        # a decimal string: no sign but "-", no spaces, "_" or non-ASCII digits
        digits = x[1:] if x.startswith("-") else x
        if not (digits.isascii() and digits.isdigit()):
            raise DocumentError(f"{what}: bad integer {x!r}")
    try:
        return int(x)
    except ValueError:  # past the interpreter's limit on digits
        raise DocumentError(f"{what}: bad integer {x!r}") from None


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


def parse_matroid_document(doc: Any) -> tuple[ZMatroid, list[str]]:
    """Build the table; returns warnings for entries that needed canonicalizing."""
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
    table: list[FgAbGroup | None] = [None] * (1 << len(labels))
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


def emit_matroid_document(m: ZMatroid) -> dict:
    modules = {}
    for s in subsets(len(m.labels)):
        g = m.table[s]
        modules[subset_key(m.labels, s)] = {
            "rank": g.rank,
            "torsion": [_encode_int(f) for f in g.factors],
        }
    return {"ground_set": list(m.labels), "modules": modules}


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
            [_encode_int(r.relations[i][k]) for i in range(n)] for k in range(m)
        ],
        "generators": {
            a: [_encode_int(r.vectors[i][j]) for i in range(n)]
            for j, a in enumerate(r.labels)
        },
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def load_path(path: str) -> Any:
    import sys

    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep
        raise DocumentError(f"malformed JSON: {exc}") from None
    except OSError as exc:
        raise DocumentError(str(exc)) from None
