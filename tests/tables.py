"""Table constructions that only the tests use, to state the paper's
statements: direct sums (sums are matroids, the Tutte class is
multiplicative), generic loops and coloops (deletion-contraction), the
dual of a localized table (localization commutes with duality) and the
residue corank functions (they are matroid rank functions and dualize
classically).  Lookups by label and the matrix identities that the
tests state about the Smith normal form live here too."""

from modmatroid.abgroups import TRIVIAL, DMod, FgAbGroup, canonicalize, localize
from modmatroid.intmat import Mat, SnfResult, det, shape, transpose
from modmatroid.matroids import DvrMatroid, ZMatroid, subsets
from modmatroid.tropical import HeightFunction


def mask_of(labels: tuple[str, ...], subset) -> int:
    mask = 0
    for a in subset:
        try:
            mask |= 1 << labels.index(a)
        except ValueError:
            raise KeyError(f"unknown label {a!r}") from None
    return mask


def entry(m: ZMatroid, subset) -> FgAbGroup:
    return m.table[mask_of(m.labels, subset)]


def height(h: HeightFunction, subset) -> object:
    return h.values[mask_of(h.labels, subset)]


def is_trivial(g: FgAbGroup) -> bool:
    return g == TRIVIAL


def matmul(a: Mat, b: Mat) -> Mat:
    ar, ac = shape(a)
    br, bc = shape(b)
    if ac != br:
        raise ValueError(f"cannot multiply {ar}x{ac} by {br}x{bc}")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def is_unimodular(m: Mat) -> bool:
    return abs(det(m)) == 1


def diagonal(snf: SnfResult, rows: int, cols: int) -> Mat:
    """The rows x cols matrix with the invariant diagonal ``snf.d``."""
    out = [[0] * cols for _ in range(rows)]
    for i, x in enumerate(snf.d):
        out[i][i] = x
    return out


def group_sum(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    return canonicalize(a.factors + b.factors, a.rank + b.rank)


def direct_sum(m: ZMatroid, m2: ZMatroid) -> ZMatroid:
    if set(m.labels) & set(m2.labels):
        raise ValueError("ground sets overlap; relabel one summand first")
    labels = m.labels + m2.labels
    e1 = len(m.labels)
    table = tuple(
        group_sum(m.table[s & ((1 << e1) - 1)], m2.table[s >> e1])
        for s in subsets(len(labels))
    )
    return ZMatroid(labels, table, verified=m.verified and m2.verified)


def relabel(m: ZMatroid, mapping: dict[str, str]) -> ZMatroid:
    labels = tuple(mapping.get(a, a) for a in m.labels)
    return ZMatroid(labels, m.table, verified=m.verified)


def generic_loops_coloops(m: ZMatroid) -> tuple[tuple[str, ...], tuple[str, ...]]:
    r0 = m.table[0].rank
    full = m.full
    loops = tuple(
        a for i, a in enumerate(m.labels) if m.table[1 << i].rank == r0
    )
    coloops = tuple(
        a
        for i, a in enumerate(m.labels)
        if m.table[full & ~(1 << i)].rank > m.table[full].rank
    )
    return loops, coloops


def dual_dvr(m: DvrMatroid) -> DvrMatroid:
    """The dual table of a localized table, entry by entry as ``dual``."""
    r0 = m.table[0].rank
    full = m.full
    out: list[DMod | None] = [None] * len(m.table)
    for a in subsets(len(m.labels)):
        g = m.table[a]
        out[full ^ a] = DMod(g.rank + a.bit_count() - r0, g.exps)
    return DvrMatroid(m.labels, tuple(out))


def residue_matroid(m: ZMatroid, p: int) -> dict[int, int]:
    """Corank function mod p: minimal generator count of each entry at p."""
    out = {}
    for s in subsets(len(m.labels)):
        loc = localize(m.table[s], p)
        out[s] = loc.rank + len(loc.exps)
    return out
