"""Brute-force verifiers over small finite abelian groups.

Elements are residue tuples, one coordinate per invariant factor.
Quotients by one or two elements are computed by appending those
elements as relator columns to the diagonal presentation and rerunning
the normal form.  Exhaustive search over elements is the ground truth
that the closed-form criteria are cross-checked against.

Torsion only: free summands are separated analytically by the rank-drop
rule, so the searches here never need them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator

from .abgroups import FgAbGroup, cokernel

DEFAULT_MAX_ORDER = 256
TRIAL_GUARD = 10**6


def _require_finite(g: FgAbGroup, max_order: int) -> int:
    if g.rank:
        raise ValueError("oracle handles torsion groups only")
    order = g.torsion_order
    if order > max_order:
        raise ValueError(f"group order {order} exceeds bound {max_order}")
    return order


def elements(g: FgAbGroup) -> Iterator[tuple[int, ...]]:
    return product(*(range(n) for n in g.factors))


def _presentation_with(g: FgAbGroup, *cols: tuple[int, ...]) -> list[list[int]]:
    n = len(g.factors)
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = g.factors[i]
        row.extend(c[i] for c in cols)
        rows.append(row)
    return rows


def _torsion_quotient(g: FgAbGroup, *cols: tuple[int, ...]) -> FgAbGroup:
    q = cokernel(_presentation_with(g, *cols))
    if q.rank:
        raise RuntimeError(f"quotient of the finite group {g} has a free part")
    return q


def quotient_by_element(g: FgAbGroup, x: tuple[int, ...]) -> FgAbGroup:
    """Isomorphism type of g/(x)."""
    if len(x) != len(g.factors):
        raise ValueError("element has wrong arity")
    return _torsion_quotient(g, x)


def quotient_by_pair(
    g: FgAbGroup, x: tuple[int, ...], y: tuple[int, ...]
) -> FgAbGroup:
    return _torsion_quotient(g, x, y)


@lru_cache(maxsize=4096)
def cyclic_quotients(g: FgAbGroup) -> frozenset[FgAbGroup]:
    """All isomorphism types of g/(x) over single elements x."""
    return frozenset(quotient_by_element(g, x) for x in elements(g))


def surjection_oracle(
    src: FgAbGroup, dst: FgAbGroup, max_order: int = DEFAULT_MAX_ORDER
) -> bool:
    """Exhaustive test: does some x in src give src/(x) isomorphic to dst?"""
    _require_finite(src, max_order)
    _require_finite(dst, max_order)
    return dst in cyclic_quotients(src)


@lru_cache(maxsize=4096)
def pair_quotient_map(
    g: FgAbGroup,
) -> dict[tuple[FgAbGroup, FgAbGroup], frozenset[FgAbGroup]]:
    """(g/(x), g/(y)) -> all isomorphism types of g/(x,y), over all pairs."""
    singles = [(x, quotient_by_element(g, x)) for x in elements(g)]
    out: dict[tuple[FgAbGroup, FgAbGroup], set[FgAbGroup]] = {}
    for x, qx in singles:
        for y, qy in singles:
            out.setdefault((qx, qy), set()).add(quotient_by_pair(g, x, y))
    return {key: frozenset(val) for key, val in out.items()}


def pushout_oracle(
    n0: FgAbGroup,
    n1: FgAbGroup,
    n2: FgAbGroup,
    n12: FgAbGroup,
    max_order: int = DEFAULT_MAX_ORDER,
) -> bool:
    """Exhaustive test for a pair x, y with the three prescribed quotients."""
    order = _require_finite(n0, max_order)
    for g in (n1, n2, n12):
        _require_finite(g, max_order)
    if order * order > TRIAL_GUARD:
        raise RuntimeError("pair search would exceed the trial guard")
    return n12 in pair_quotient_map(n0).get((n1, n2), frozenset())


def _partitions(k: int) -> Iterator[tuple[int, ...]]:
    """Nonincreasing partitions of k."""
    if k == 0:
        yield ()
        return
    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(k, k)


def abelian_p_groups(p: int, max_order: int) -> list[FgAbGroup]:
    """All abelian p-groups of order at most max_order, trivial group included."""
    out = []
    k = 0
    while p**k <= max_order:
        for lam in _partitions(k):
            # ascending prime powers form a valid invariant chain
            out.append(FgAbGroup(0, tuple(p**e for e in reversed(lam))))
        k += 1
    return out
