"""Exact integer matrices and Smith normal form.

Matrices are dense row-major lists of Python ints, so every operation is
arbitrary precision.  The normal form records the unimodular transforms
a caller asks for (either side, and the inverse of the row side); the
rest of the package reads quotient groups off the invariant diagonal and
bases of quotients off ``uinv``.
"""

from __future__ import annotations

from dataclasses import dataclass

Mat = list  # list[list[int]], row major


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


@dataclass(frozen=True)
class SnfResult:
    """Invariant diagonal ``d`` with ``u @ input @ v == diag(d)``.

    ``d`` has length min(rows, cols); each entry is nonnegative and divides
    the next nonzero one.  ``u`` and ``v`` are unimodular and ``uinv`` is
    the inverse of ``u``; a transform that was not tracked is None.
    """

    d: tuple[int, ...]
    u: Mat | None
    v: Mat | None
    uinv: Mat | None


TRANSFORMS = ("u", "v", "uinv")


def smith_normal_form(m: Mat, track: tuple[str, ...] = ("u", "v")) -> SnfResult:
    """Diagonalize an integer matrix with unimodular row and column moves.

    Pivoting picks the entry of minimal nonzero absolute value in the
    remaining submatrix and re-sweeps until the pivot divides everything
    below and to the right, which forces the divisibility chain.

    ``track`` names the transforms to record, among ``TRANSFORMS``; the
    moves, and so ``d`` and every recorded transform, do not depend on
    it.  ``uinv`` mirrors each row move on ``u`` as the inverse column
    move, so no inverse is ever computed.
    """
    if not set(track) <= set(TRANSFORMS):
        raise ValueError(f"unknown transforms {sorted(set(track) - set(TRANSFORMS))}")
    rows, cols = shape(m)
    a = copy_mat(m)
    u = identity(rows) if "u" in track else None
    v = identity(cols) if "v" in track else None
    ui = identity(rows) if "uinv" in track else None
    limit = min(rows, cols)

    def find_pivot(t: int):
        best = None
        for i in range(t, rows):
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
                if u is not None:
                    u[t], u[pi] = u[pi], u[t]
                if ui is not None:
                    for row in ui:
                        row[t], row[pi] = row[pi], row[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
                if v is not None:
                    for row in v:
                        row[t], row[pj] = row[pj], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                if u is not None:
                    u[t] = [-x for x in u[t]]
                if ui is not None:
                    for row in ui:
                        row[t] = -row[t]
            p = a[t][t]
            at = a[t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], at)]
                        if u is not None:
                            u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                        if ui is not None:
                            for row in ui:
                                row[t] += q * row[i]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if at[j]:
                    q = at[j] // p
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                        if v is not None:
                            for row in v:
                                row[j] -= q * row[t]
                    if at[j]:
                        dirty = True
            if dirty:
                # a remainder smaller than the pivot appeared; re-pivot
                best = find_pivot(t)
                continue
            stray = None
            for i in range(t + 1, rows):
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
            if u is not None:
                u[t] = [x + y for x, y in zip(u[t], u[stray])]
            if ui is not None:
                for row in ui:
                    row[stray] -= row[t]
            best = (p, t, t)
        t += 1
    d = tuple(a[i][i] for i in range(limit))
    return SnfResult(d, u, v, ui)
