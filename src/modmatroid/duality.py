"""Duality of module tables and of integer vector configurations.

The dual table reads the entry at the complement: its torsion part is
carried over unchanged and its rank is rank(M(A)) + |A| - rank(M(empty)).
Over the integers the ideal-class twist that would appear for a general
Dedekind domain is trivial, so the rank datum maps across identically;
this is where ideal classes would enter otherwise.

Dualizing a configuration is a Gale transform: stack the relation and
generator columns, transpose, and read the new generators off the block
of standard basis vectors sitting over the old generators.
"""

from __future__ import annotations

from operator import mul

from .abgroups import FgAbGroup
from .intmat import (
    Mat,
    hstack,
    identity,
    shape,
    smith_normal_form,
    transpose,
)
from .matroids import Realization, ZMatroid, subsets, verify


def dual(m: ZMatroid) -> ZMatroid:
    """Dual table; requires a matroid and always produces an essential one."""
    m = verify(m)
    r0 = m.entries[m.code[0]].rank
    # the entry at mask B reads A = full ^ B, which runs down as B runs
    # up, and depends on (the entry at A, |A|) only: one group per pair
    pairs = tuple(zip(reversed(m.code), map(int.bit_count, reversed(subsets(len(m.labels))))))

    def entry(pair: tuple[int, int]) -> FgAbGroup:
        g = m.entries[pair[0]]
        return FgAbGroup(g.rank + pair[1] - r0, g.factors)

    return ZMatroid.from_code(m.labels, entry, pairs, True)


def _independent_relations(relations: Mat) -> Mat:
    """Spanning subset of the relation lattice with independent columns.

    Dependent relation columns would leak extra free rank into the dual
    ambient, so they are replaced by a basis of their column span; columns
    that are already independent pass through unchanged.
    """
    _, m_cols = shape(relations)
    if m_cols == 0:
        return relations
    s = smith_normal_form(relations, v=True)
    rank = sum(1 for x in s.d if x)
    if rank == m_cols:
        return relations
    # U M V = D: the first rank columns of M V are d_j times columns of
    # U^-1, a basis of the column span
    basis = transpose(s.v)[:rank]
    return [[sum(map(mul, row, col)) for col in basis] for row in relations]


def gale_dual(r: Realization) -> Realization:
    """Configuration realizing the dual table.

    New ambient: Z^(m+e) modulo the transposed stack of old relations and
    generators; new generator for each label: the standard basis column
    over that label's slot.
    """
    relations = _independent_relations(r.relations)
    n, m_cols = shape(relations)
    e = len(r.labels)
    stacked = hstack(relations, r.vectors)  # n x (m+e)
    new_relations = transpose(stacked)  # (m+e) x n
    eye = identity(m_cols + e)
    new_vectors = [[eye[i][m_cols + j] for j in range(e)] for i in range(m_cols + e)]
    return Realization(r.labels, new_relations, new_vectors)
