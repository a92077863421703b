"""The universal deletion-contraction invariant and its specializations.

Every subset contributes one monomial: an X-exponent (the free rank of
its entry), a Y-exponent (the free rank of the dual entry at the
complement), and a torsion tag shared by both sides, since entry and
dual entry carry the same torsion.  Summing over subsets gives a class
that adds under deletion-contraction and multiplies under direct sum.

Specializations: drop the tags to get the classical Tutte polynomial,
replace each tag by its cardinality to get the arithmetic one, or
evaluate at an integer point (x, y) with the tag of A contributing
prod gcd(n_i, q) for q = (x-1)(y-1), the order of T_A / q T_A.  The last
choice interpolates between the other two: it matches the arithmetic
value when q is divisible by every tag order and the classical value
when q is coprime to all of them.  (It equals |T_A| / |q T_A|, which is
not the same number as |q T_A|.)
"""

from __future__ import annotations

import math
from collections import Counter

from .abgroups import canonicalize
from .duality import dual  # not called here; perfbench/spans.py traces calls through this name
from .matroids import ZMatroid, subsets, verify

# (cork, nullity, torsion tag)
Monomial = tuple[int, int, tuple[int, ...]]
Poly2 = dict  # dict[tuple[int, int], int], (x power, y power) -> coefficient


class TutteClass:
    """Integer combination of monomials; no zero coefficients stored.
    Mutable, so unhashable; equal when of one type with equal terms."""

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms: dict | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.terms == other.terms
        return NotImplemented

    def __repr__(self) -> str:
        return f"TutteClass(terms={self.terms!r})"

    @property
    def mass(self) -> int:
        return sum(self.terms.values())

    def __add__(self, other: "TutteClass") -> "TutteClass":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return TutteClass(out)

    def __mul__(self, other: "TutteClass") -> "TutteClass":
        out: dict = {}
        for (c1, n1, t1), v1 in self.terms.items():
            for (c2, n2, t2), v2 in other.terms.items():
                tag = canonicalize(t1 + t2).factors
                k = (c1 + c2, n1 + n2, tag)
                out[k] = out.get(k, 0) + v1 * v2
        return TutteClass(out)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items())


def tutte_class(m: ZMatroid) -> TutteClass:
    """One term per subset; input must be verified and essential.

    The Y-exponent is the rank of the dual entry at the complement,
    rank M(A) + |A| - rank M(empty), read off without building the dual.
    """
    m = verify(m)
    if m.entries[m.code[m.full]].rank != 0:
        raise ValueError("input is not essential; essentialize first")
    r0 = m.entries[m.code[0]].rank
    terms: Counter = Counter()
    sizes = map(int.bit_count, subsets(len(m.labels)))
    for (n, size), count in Counter(zip(m.code, sizes)).items():
        g = m.entries[n]
        terms[g.rank, g.rank + size - r0, g.factors] += count
    return TutteClass(terms)


def _pow_binomials(c: int, n: int) -> Poly2:
    """(x-1)^c (y-1)^n expanded over integer points."""
    out: Poly2 = {}
    for i in range(c + 1):
        xi = math.comb(c, i) * (-1) ** (c - i)
        for j in range(n + 1):
            out[(i, j)] = xi * math.comb(n, j) * (-1) ** (n - j)
    return out


def _specialize(t: TutteClass, tag_value) -> Poly2:
    out: Poly2 = {}
    for (c, n, tag), coeff in t.terms.items():
        w = coeff * tag_value(tag)
        for k, v in _pow_binomials(c, n).items():
            s = out.get(k, 0) + w * v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def classical_tutte(t: TutteClass) -> Poly2:
    """Tags collapse to 1; the classical Tutte polynomial of the generic matroid."""
    return _specialize(t, lambda tag: 1)


def arithmetic_tutte(t: TutteClass) -> Poly2:
    """Tags collapse to their cardinality."""
    return _specialize(t, lambda tag: math.prod(tag))


def quasi_tutte_eval(m: ZMatroid, x: int, y: int) -> int:
    """Integer-point evaluation of the class: the tag of each term contributes
    |T_A / q T_A| = prod gcd(n_i, q), q = (x-1)(y-1).

    gcd(n, 0) = n makes the q = 0 case exact without special handling:
    the whole tag order survives.
    """
    q = (x - 1) * (y - 1)
    t = tutte_class(m)
    return poly_eval(_specialize(t, lambda tag: math.prod(math.gcd(f, q) for f in tag)), x, y)


def poly_eval(p: Poly2, x: int, y: int) -> int:
    return sum(v * x**i * y**j for (i, j), v in p.items())


def poly_render(p: Poly2) -> str:
    """Canonical string: terms by descending total degree, then x power.

    Examples: "y^2", "x + 1", "x^2*y + 3*x - 2".
    """
    if not p:
        return "0"
    items = sorted(p.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0]))
    chunks = []
    for (i, j), v in items:
        mono = "*".join(
            s
            for s in (
                "x" if i == 1 else f"x^{i}" if i else "",
                "y" if j == 1 else f"y^{j}" if j else "",
            )
            if s
        )
        a = abs(v)
        if not mono:
            body = str(a)
        elif a == 1:
            body = mono
        else:
            body = f"{a}*{mono}"
        if not chunks:
            chunks.append(body if v > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if v > 0 else f"- {body}")
    return " ".join(chunks)
