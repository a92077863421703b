"""Finitely generated abelian groups and their local forms.

A group is stored canonically as a free rank plus an invariant-factor
chain n_1 | n_2 | ... with every n_i >= 2, so equality of values is
isomorphism.  Localizing at a prime p forgets everything coprime to p
and records the module over the p-local integers as a multiset of
exponents; the d-sequence calculus (d_i = generator count of N/p^i N)
lives on that side.

``INF`` is a first-class arithmetic value: n + INF = INF and
min(n, INF) = n, which is exactly what the d-sequence formulas need.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from functools import lru_cache
from operator import mul
from typing import Iterable

from .intmat import Mat, Record, identity, setfield, shape, smith_normal_form

INF = math.inf


class FgAbGroup(Record):
    """Free rank plus invariant-factor chain; the canonical form over the integers."""

    __slots__ = ("rank", "factors")

    def __init__(self, rank: int = 0, factors: tuple[int, ...] = ()):
        if rank < 0:
            raise ValueError("negative rank")
        for f in factors:
            if f < 2:
                raise ValueError(f"invariant factor {f} < 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError(f"broken divisibility chain: {a} does not divide {b}")
        setfield(self, "rank", rank)
        setfield(self, "factors", factors)

    @property
    def torsion_order(self) -> int:
        return math.prod(self.factors)

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{f}" for f in self.factors)
        return " + ".join(parts) if parts else "0"


TRIVIAL = FgAbGroup()


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 37: exact below about
    3.2 * 10^23, a probable-prime test above; it factorizes nothing."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


# Bounds of the factorize and localize caches: a 10-label realize batch
# meets up to about 700 distinct orders and 19k distinct (group, prime)
# keys, a 16-label realize-and-check about 600 and 28k.
@lru_cache(maxsize=1 << 12)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    counts: Counter[int] = Counter()
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            counts[p] += 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            counts[m] += 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(counts.items()))


def pval(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def canonicalize(orders: Iterable[int], rank: int = 0) -> FgAbGroup:
    """Group with cyclic summands of the given orders, in canonical form.

    Order 0 encodes a free summand, order 1 is dropped.  The torsion
    orders are merged pairwise, Z/a + Z/b = Z/gcd + Z/lcm: after the pass
    over i < j every order divides the later ones, so no factorization is
    needed and the input ordering never matters.
    """
    fs: list[int] = []
    r = rank
    for n in orders:
        n = abs(int(n))
        if n == 0:
            r += 1
        elif n > 1:
            fs.append(n)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            a, b = fs[i], fs[j]
            g = math.gcd(a, b)
            fs[i], fs[j] = g, a // g * b
    return FgAbGroup(r, tuple(f for f in fs if f > 1))


def cokernel(relations: Mat) -> FgAbGroup:
    """Quotient of Z^n by the column span of an n-row relation matrix."""
    rows, _ = shape(relations)
    d = smith_normal_form(relations).d
    nonzero = [x for x in d if x]
    return FgAbGroup(rows - len(nonzero), tuple(x for x in nonzero if x > 1))


def subset_cokernels(relations: Mat, columns: list[list[int]]) -> tuple[list, list[int]]:
    """Cokernel of [relations | the chosen columns] for every subset of ``columns``.

    Returns the distinct groups, numbered in the order the walk meets
    them, and each mask's group number; a mask picks column j when bit
    j is set.  The walk runs over the subset tree in which a mask's
    parent is the mask minus its highest column.  A node keeps the
    invariant diagonal d of its cokernel and a row transform U mapping
    Z^n onto Z^r / diag(d), so a child adding column v needs only the
    normal form of the r x (<= r+1) matrix [diag(d) | U v]; the node's U
    rides in it as the row block, so the child's U comes out of that
    normal form with no product after it.  Rows with d_i = 1 are dropped
    and row i of U is reduced mod d_i where d_i != 0, which bounds entry
    growth; neither changes the map into the quotient.  Two rules fill
    most of the table without a normal form:

    - A node walks its columns from the highest down.  When U v_j is 0
      modulo d, v_j already lies in the node's lattice, so adding it to
      the node or to any later subset S changes no lattice:
      ``table[mask | 1<<j | S] == table[mask | S]``.  The right side is
      the subtree of columns above j, already walked, and one strided
      slice copies it.
    - A node with one live row (diagonal g, row u) is cyclic, and so is
      every quotient below it: each group there is Z/gcd(g, u v_a : a
      chosen).  The images u v_j of the remaining columns are taken
      once, and the subtree's diagonals are built column by column, the
      list doubling with the gcd of each diagonal and the column's
      image; an image that g divides leaves every diagonal as it is,
      and the list doubles by a copy.  No U, dot product or normal form
      is needed below the node.

    Both give the group the normal form would give: the first copies a
    group of the same lattice, and in the second the cokernel of
    [g | x] is Z/gcd(g, x), whatever the sign of x.
    """
    n, _ = shape(relations)
    e = len(columns)
    table = [0] * (1 << e)
    numbers: dict[tuple[int, ...], int] = {}  # a node's diagonal -> its group's number

    def node(d: tuple[int, ...], u: Mat | None, rows: int):
        # pad to one entry per row, drop unit rows, reduce U mod d
        d = d + (0,) * (rows - len(d))
        live = [i for i in range(rows) if d[i] != 1]
        dl = tuple(d[i] for i in live)
        k = numbers.setdefault(dl, len(numbers))
        if u is None:
            return k, dl, None
        ul = [[x % d[i] for x in u[i]] if d[i] else u[i] for i in live]
        return k, dl, ul

    def descend(mask: int, first: int, d: tuple[int, ...], u: Mat):
        if len(d) != 1:
            walk(mask, first, d, u)
            return
        diagonals = [d[0]]
        for v in columns[first:]:
            x = sum(map(mul, u[0], v))
            if math.gcd(diagonals[0], x) == diagonals[0]:
                diagonals += diagonals
            else:
                diagonals += [math.gcd(g, x) for g in diagonals]
        number = {g: numbers.setdefault((g,) if g != 1 else (), len(numbers))
                  for g in dict.fromkeys(diagonals)}
        table[mask::1 << first] = map(number.__getitem__, diagonals)

    def walk(mask: int, first: int, d: tuple[int, ...], u: Mat):
        t = len(d) - d.count(0)  # torsion rows come first in d
        for j in range(e - 1, first - 1, -1):
            child = mask | 1 << j
            w = [sum(map(mul, row, columns[j])) for row in u]
            w = [x % di if di else x for x, di in zip(w, d)]
            if not any(w):
                table[child::2 << j] = table[mask::2 << j]
                continue
            leaf = j + 1 == e
            mat = [[d[i] if i == k else 0 for k in range(t)] + [w[i]] for i in range(len(d))]
            s = smith_normal_form(mat, None if leaf else u)
            table[child], d2, u2 = node(s.d, s.u, len(d))
            if not leaf:
                descend(child, j + 1, d2, u2)

    root = smith_normal_form(relations, identity(n))
    table[0], d0, u0 = node(root.d, root.u, n)
    descend(0, 0, d0, u0)
    return [FgAbGroup(dl.count(0), tuple(x for x in dl if x)) for dl in numbers], table


def support_primes(*groups: FgAbGroup) -> tuple[int, ...]:
    """Primes dividing any torsion order of the given groups, ascending."""
    primes: set[int] = set()
    for g in groups:
        for n in g.factors:
            primes.update(p for p, _ in factorize(n))
    return tuple(sorted(primes))


class DMod(Record):
    """Module over a discrete valuation ring: free rank plus torsion exponents.

    ``exps`` is the nonincreasing multiset of exponents e of the cyclic
    summands R/m^e.  The d-sequence is d_i = rank + #{e >= i}; it is
    nonincreasing in i and eventually constant at ``rank``.
    """

    __slots__ = ("rank", "exps")

    def __init__(self, rank: int = 0, exps: tuple[int, ...] = ()):
        if rank < 0:
            raise ValueError("negative rank")
        for e in exps:
            if e < 1:
                raise ValueError("exponents must be positive")
        for a, b in zip(exps, exps[1:]):
            if b > a:
                raise ValueError("exponents must be nonincreasing")
        setfield(self, "rank", rank)
        setfield(self, "exps", exps)

    @property
    def length(self) -> int:
        return sum(self.exps)

    @property
    def max_exp(self) -> int:
        return self.exps[0] if self.exps else 0


@lru_cache(maxsize=1 << 16)  # see factorize
def localize(g: FgAbGroup, p: int) -> DMod:
    lam = sorted((v for v in (pval(n, p) for n in g.factors) if v), reverse=True)
    return DMod(g.rank, tuple(lam))


def d_seq(m: DMod, n: int) -> list[int]:
    """The d-sequence d_1, ..., d_n of m, in one pass over the exponents."""
    out = []
    k = len(m.exps)
    for i in range(1, n + 1):
        while k and m.exps[k - 1] < i:
            k -= 1
        out.append(m.rank + k)
    return out


def d_leq(m: DMod, n):
    """Partial sum d_1 + ... + d_n; INF allowed (total length, or INF if free part)."""
    if n == INF:
        return INF if m.rank else sum(m.exps)
    if n < 1:
        raise ValueError("horizon must be at least 1")
    return n * m.rank + sum(min(e, n) for e in m.exps)
