"""Exact integer matrices and Smith normal form.

Matrices are dense row-major lists of Python ints, so every operation is
arbitrary precision.  The normal form carries the transforms a caller
asks for in its working matrix, so the moves act on them as they act on
the input; the rest of the package reads quotient groups off the
invariant diagonal and bases of quotients off ``m @ v``, whose column i
is d_i times column i of the inverse row transform.
"""

from __future__ import annotations

from operator import attrgetter

Mat = list  # list[list[int]], row major


class Record:
    """Base of the package's immutable records.

    A subclass names its fields in ``__slots__``, after its base's; the
    class keyword ``compare`` names the fields that equality and the hash
    read (default: all).  Construction, equality, the hash, the repr and
    pickling all derive from the fields.  The constructor binds them in
    order, by position or by name; a field left out takes its value from
    the class's ``_defaults`` mapping, and a missing, unknown, repeated
    or surplus field raises TypeError.  A record that validates its
    fields keeps its own signature and checks, then calls
    ``Record.__init__`` once.  Equality is type-strict, assigning or
    deleting a field raises AttributeError and the repr is
    ``Name(field=value, ...)``.  Plain classes, not dataclasses:
    importing ``dataclasses`` costs a few ms.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, compare: tuple[str, ...] | None = None):
        cls._fields = getattr(cls, "_fields", ()) + cls.__dict__.get("__slots__", ())
        cls._key = attrgetter(*(compare or cls._fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        for field, value in zip(fields, args):
            setfield(self, field, value)
        if kwargs or len(args) != len(fields):
            self._bind_rest(args, kwargs)

    def _bind_rest(self, args: tuple, kwargs: dict) -> None:
        """Bind the fields past ``args`` by name or from the defaults, or
        raise TypeError for a call that cannot bind them."""
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, {len(args)} given")
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{name}() has no field {field!r}")
            if fields.index(field) < len(args):
                raise TypeError(f"{name}() got field {field!r} twice")
        for field in fields[len(args):]:
            if field in kwargs:
                setfield(self, field, kwargs[field])
            elif field in self._defaults:
                setfield(self, field, self._defaults[field])
            else:
                raise TypeError(f"{name}() missing field {field!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


setfield = object.__setattr__  # past Record.__setattr__, for constructors only


def shape(m: Mat) -> tuple[int, int]:
    return len(m), len(m[0]) if m else 0


def identity(n: int) -> Mat:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def copy_mat(m: Mat) -> Mat:
    return [row[:] for row in m]


def transpose(m: Mat) -> Mat:
    rows, cols = shape(m)
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def hstack(a: Mat, b: Mat) -> Mat:
    """Concatenate columns; both matrices must have the same row count."""
    if len(a) != len(b):
        raise ValueError("row counts differ")
    return [ra + rb for ra, rb in zip(a, b)]


# not called in the library; perfbench/spans.py traces calls through this name
def det(m: Mat) -> int:
    """Determinant of a square matrix by fraction-free (Bareiss) elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    a = copy_mat(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class SnfResult(Record):
    """Invariant diagonal ``d`` with ``u @ input @ v == diag(d)``.

    ``d`` has length min(rows, cols); each entry is nonnegative and divides
    the next nonzero one.  ``v`` is unimodular, or None when not asked
    for.  ``u`` is the row block the caller passed, after the row moves:
    U itself for an identity block, U @ B for a block B, None for none.
    """

    __slots__ = ("d", "u", "v")


def smith_normal_form(m: Mat, rows: Mat | None = None, v: bool = False) -> SnfResult:
    """Diagonalize an integer matrix with unimodular row and column moves.

    Pivoting picks the entry of minimal nonzero absolute value in the
    remaining submatrix and re-sweeps until the pivot divides everything
    below and to the right, which forces the divisibility chain.

    The transforms ride in the working matrix: ``rows`` (one row per row
    of ``m``) is appended to the rows of ``m``, so every row move acts on
    it, and for ``v`` identity rows are appended below ``m``, so every
    column move acts on them.  The moves look at ``m``'s block only, so
    ``d`` and both transforms do not depend on what is tracked.  With
    ``v``, column i of m @ v is d_i times column i of U^-1.
    """
    n, cols = shape(m)
    a = copy_mat(m) if rows is None else [x + y for x, y in zip(m, rows, strict=True)]
    if v:
        a += identity(cols)
    limit = min(n, cols)

    def find_pivot(t: int):
        best = None
        for i in range(t, n):
            ai = a[i]
            for j in range(t, cols):
                e = ai[j]
                if e and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
        return best

    t = 0
    while t < limit:
        best = find_pivot(t)
        if best is None:
            break
        while True:
            _, pi, pj = best
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            p = a[t][t]
            at = a[t]
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], at)]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if at[j]:
                    q = at[j] // p
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if at[j]:
                        dirty = True
            if dirty:
                # a remainder smaller than the pivot appeared; re-pivot
                best = find_pivot(t)
                continue
            stray = None
            for i in range(t + 1, n):
                ai = a[i]
                for j in range(t + 1, cols):
                    if ai[j] % p:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            # fold the offending row into the pivot row; the next sweep
            # produces a remainder strictly smaller than the pivot
            a[t] = [x + y for x, y in zip(a[t], a[stray])]
            best = (p, t, t)
        t += 1
    d = tuple(a[i][i] for i in range(limit))
    u = None if rows is None else [row[cols:] for row in a[:n]]
    return SnfResult(d, u, a[n:] if v else None)
