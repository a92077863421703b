"""Existence tests for cyclic-kernel surjections and compatible quotient squares.

Both questions start from d-sequence arithmetic after localizing.  A
surjection N -> N' with cyclic kernel exists over a discrete valuation
ring iff d_i(N) - d_i(N') is 0 or 1 for every i.  For a square of four
such surjections (N0 onto N1 and N2, both onto N12, with the kernels of
the long maps generated by one element each) the same 0/1 test on every
edge plus nonnegativity of the inclusion-exclusion partial sums

    L(n) = d_{<=n}(N0) - d_{<=n}(N1) - d_{<=n}(N2) + d_{<=n}(N12)

(with equality forced at every n where d_n(N1) and d_n(N2) differ) is
necessary.  It is not sufficient: the smallest failure is
(Z/2+Z/8, Z/4, Z/4, Z/2), which passes every sequence test yet admits
no element pair (x, y) with the three prescribed quotients, because the
construction proving sufficiency silently consumes a cyclic summand of
N0 at each joint descent of the two lower kernels, and such a summand
need not exist.  The full decision therefore runs in three stages:

1. the d-sequence conditions above (reject on failure);
2. a summand-supply audit: at every index i where both lower kernel
   sequences descend, N0 must hold one summand of exponent exactly i
   beyond those already consumed by the upper kernels (accept when
   supply suffices; the classical construction then goes through);
3. otherwise a bounded witness search: the candidate x is unique up to
   an ambient automorphism, the image of any valid y in N0/(x) has a
   forced height profile, and every realization of that profile is a
   unit-and-lift twist of finitely many canonical ones.  Each candidate
   is verified by direct integer quotient computation, so a hit is
   always genuine: N0/(y) once per valuation profile of y (scaling a
   summand by a unit is an automorphism of N0), N0/(x, y) once per
   element of N0 that y reduces to.  Exhaustive pair
   search settles a miss up to _ORACLE_ORDER, the order of N0's p-part
   (no-pair); past it a miss is no-witness-pair, which proves nothing.

Stage 3 depends on the residue field, not only on the sequences:
Z/2+Z/8 against Z/4, Z/4, Z/2 has no witness pair at p = 2, while the
same exponent shapes at p = 3 (Z/3+Z/27 against Z/9, Z/9, Z/3) do,
because at p = 3 a twist can already differ by a unit in depth zero.
The checks over the integers therefore run all three stages at every
support prime.  The bare DVR-lane checks (the *_dvr functions) apply
the sequence conditions alone: a module presented as (rank, exponents)
does not pin down a residue field, and the sequence conditions are the
residue-independent part of the answer.

Stages 2 and 3 read the drop sequences off exponent multiplicities.
Over a DVR a module is its free rank plus the multiset of exponents e of
its summands R/m^e, and d_i - d_{i+1} counts its summands of exponent i.
So for two modules of equal rank where every drop d_i(hi) - d_i(lo) is
0 or 1 (the multiplicity rule), a block of ones in the drop ends at i
exactly where hi has one more summand of exponent i than lo, and the
next block starts where hi has one fewer.

Stages 2 and 3 refine the sequence conditions only where the four free
ranks agree and the exponents at the prime stay within _EXACT_CAPS, the
range where the canonical witness family has been checked exhaustively
against elementwise quotient search, and they see torsion parts only.
Equal ranks lose nothing: x and y must be torsion, or a rank would
drop, so a pair exists exactly when one exists for the torsion parts,
and the lift (Z+Z/2+Z/8, Z+Z/4, Z+Z/4, Z+Z/2) of the smallest failure
gets its verdict.  Where a rank drops the family is provably too narrow:
for (Z+Z/4+Z/4, Z/16+Z/4+Z/4, Z/32+Z/4, Z/16+Z/4) the pair
x = (16,0,0), y = (8,1,0) works, but y spends the free coordinate at a
lower depth than x and no twist of the canonical candidates reaches it.
There, as past the caps, the sequence verdict stands, so the test is
necessary only.

Over the integers the free ranks carry conditions of their own, read
at the generic point (after tensoring with the rationals): each edge
drops the rank by 0 or 1, and the slope
rank(N0) - rank(N1) - rank(N2) + rank(N12) is nonnegative, and zero
when rank(N1) and rank(N2) differ.  The drops are checked first.  The
sequence conditions at any prime imply the slope conditions, since L(n)
moves linearly with the slope once every sequence is constant (past
1 + the largest exponent, which also makes the checks finite).  When no
prime divides a torsion order, the slope conditions are checked
directly, as the sequence test of the free parts with prime None.
Determinant comparisons of projective parts are vacuous over the
integers and are documented rather than coded.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from operator import mul

from .abgroups import DMod, FgAbGroup, cokernel, d_seq, localize, pval, support_primes
from .intmat import Record, smith_normal_form, transpose
from .oracle import pushout_oracle

# failure kinds, also used verbatim in diagnostics
RANK_DROP = "rank-drop"
M1_LOCAL = "M1-local"
L2A = "L2a"
L2B = "L2b"
NO_WITNESS = "no-witness-pair"
NO_PAIR = "no-pair"

_SEARCH_GUARD = 500_000
# Largest order of N0's p-part at which oracle.pushout_oracle (64^2 pairs
# at most, a few tenths of a second) settles a miss of the witness search
_ORACLE_ORDER = 64

# Largest exponent per prime for which the stage-2/3 refinement of the
# square test is enabled.  Each entry matches an exhaustive comparison
# of the refined decision against elementwise quotient search over all
# torsion quadruples in that range; other primes get the elementary
# range covered by direct small sweeps.  Beyond the cap the sequence
# conditions alone decide.
_EXACT_CAPS = {2: 9, 3: 5, 5: 4, 7: 3}
_EXACT_CAP_DEFAULT = 2


class SquareVerdict(Record):
    """Outcome of a (possibly degenerate) square check.

    ``kind`` is None when ok; otherwise one of rank-drop, M1-local, L2a,
    L2b, no-pair, no-witness-pair, with the prime and the d-index
    (M1-local), the partial-sum horizon (L2a/L2b), or the blocked
    joint-descent index (the last two).  Local kinds carry prime=None
    when the check ran directly over a discrete valuation ring.
    """

    __slots__ = ("ok", "kind", "prime", "index")
    _defaults = {"kind": None, "prime": None, "index": None}


_OK = SquareVerdict(True)


def _nmax(*mods: DMod) -> int:
    return 1 + max((m.max_exp for m in mods), default=0)


def _drop_failure(hi: list[int], lo: list[int]) -> int | None:
    """First index i (from 1) where d_i drops by other than 0 or 1."""
    for i, (a, b) in enumerate(zip(hi, lo), 1):
        if a - b not in (0, 1):
            return i
    return None


def m1_failure_dvr(src: DMod, dst: DMod) -> SquareVerdict:
    """The single-element test over a DVR: the degenerate square
    (src, dst, dst, dst), which can fail only at an edge drop."""
    return square_failure_dvr(src, dst, dst, dst)


def square_failure_dvr(n0: DMod, n1: DMod, n2: DMod, n12: DMod) -> SquareVerdict:
    top = _nmax(n0, n1, n2, n12)
    # an edge's first bad drop lies within its own horizon: past it the
    # drop is the constant rank drop
    d0, d1, d2, d12 = (d_seq(m, top) for m in (n0, n1, n2, n12))
    for hi, lo in ((d0, d1), (d0, d2), (d1, d12), (d2, d12)):
        i = _drop_failure(hi, lo)
        if i is not None:
            return SquareVerdict(False, M1_LOCAL, None, i)
    acc = 0
    for n in range(1, top + 1):
        acc += d0[n - 1] - d1[n - 1] - d2[n - 1] + d12[n - 1]
        if acc < 0:
            return SquareVerdict(False, L2A, None, n)
        if d1[n - 1] != d2[n - 1] and acc != 0:
            return SquareVerdict(False, L2B, None, n)
    # past ``top`` every d_n equals the rank, so L(n) moves linearly by
    # the slope from acc = L(top) >= 0 and first turns negative at
    # top + 1 + acc // -slope.  No L2b is left to find there: with every
    # edge drop 0 or 1, unequal ranks of N1 and N2 force slope 0, and
    # d_top differs, so the loop has already required acc = 0 at n = top
    slope = n0.rank - n1.rank - n2.rank + n12.rank
    if slope < 0:
        return SquareVerdict(False, L2A, None, top + 1 + acc // -slope)
    return _OK


def _blocks(hi: DMod, lo: DMod) -> list[tuple[int, int]]:
    """End and offset of each block of ones in the drop d_i(hi) - d_i(lo),
    ascending, for equal ranks with every drop 0 or 1.

    Ends and starts come from the multiplicity rule (module docstring);
    a start i is 0-based, so d_{i+1} is the block's first drop, and the
    first block starts at 0 when hi has more summands, as d_1 then
    drops.  The offset is the start minus the lengths of the earlier
    blocks; blocks are separated by zeros, so each offset is at least 1
    more than the one before.
    """
    diff = Counter(hi.exps)
    diff.subtract(lo.exps)
    ends = sorted(i for i, c in diff.items() if c == 1)
    starts = [0] * (len(hi.exps) > len(lo.exps)) + sorted(i for i, c in diff.items() if c == -1)
    blocks = []
    t = 0
    for s, e in zip(starts, ends):
        blocks.append((e, s - t))
        t += e - s
    return blocks


def _local_cokernel(rows: list[list[int]], p: int) -> DMod:
    """Quotient of Z^n by the span of ``rows``, each of length n, localized at p."""
    return localize(cokernel(transpose(rows)), p)


def _unit_reps(p: int) -> list[int]:
    """Unit classes enumerated by the witness search.

    Classes are taken mod p^b with p^b <= 32 (at least mod p), which
    separates every class the quotient verification can distinguish for
    exponents up to 5 at p = 2 and up to 3 at p = 3.
    """
    b = 1
    while p ** (b + 1) <= 32:
        b += 1
    return [u for u in range(1, p**b) if u % p]


def _valuation_profile(y: tuple[int, ...], exps: tuple[int, ...], p: int) -> tuple[int, ...]:
    """v_p(y_j) for each coordinate of an element y of N0 = (+) Z/p^e_j,
    each y_j reduced mod p^e_j, and e_j where y_j = 0.

    Scaling each summand by a unit is an automorphism of N0 that takes y
    to the representative (p^v_j), so N0/(y) depends on y only through
    its profile.  Coordinates keep their order: the summand each
    valuation sits in matters.
    """
    return tuple(pval(v, p) if v else e for v, e in zip(y, exps))


def _witness_search(n0: DMod, n1: DMod, n2: DMod, n12: DMod, p: int) -> bool:
    """Decide a gray-zone square by enumerating verified element pairs.

    Requires torsion modules (``check_square`` passes the torsion parts
    of an equal-rank square) that pass the sequence conditions.  The
    element x with N0/(x) = N1 is canonical up to an ambient
    automorphism: one summand of exponent equal to the end of each block
    of the drop sequence, with offsets forced by the block starts, both
    read by the multiplicity rule (module docstring, ``_blocks``).  Any
    partner y reduces to a*x - w where w runs over one carrier summand
    of N0/(rel, x) per block of the N1 -> N12 drop sequence, again with
    forced offsets, twisted by unit classes on carriers that interact
    with x.  Every candidate pair is checked by computing all three
    quotients, so True is unconditional; False means no candidate in
    the enumerated family worked.  N0/(x) is read off the normal form
    that gives N0/(rel, x) its basis.  Once stage 1 has passed and
    N0/(x) is checked to be N1, x and the carriers always exist, so a
    miss comes only from the candidate loop.  Both quotients of a
    candidate y depend only on its element of N0 (each coordinate mod
    p^e_j), so each element is tested once per search.  The first,
    N0/(y), depends only on y's valuation profile
    (``_valuation_profile``), since a unit on each summand is an
    automorphism of N0, so it is computed once per profile: a few normal
    forms per search instead of one per element met.  The candidate
    order, the count against _SEARCH_GUARD and the first success are
    those of the plain loop.
    """
    exps = n0.exps
    n = len(exps)
    rel = [[p ** exps[j] if i == j else 0 for j in range(n)] for i in range(n)]

    # canonical x: one exact-exponent summand per block of the N0 -> N1
    # drop, at the block's offset.  Each block end is an exponent where
    # N0 has one more summand than N1, so each block finds its own summand
    x = [0] * n
    for e, c in _blocks(n0, n1):
        x[exps.index(e)] = p**c

    # basis of N0/(rel, x): with U M V = D, column i of M V is d_i times
    # column i of U^-1, whose orders come from the SNF and whose exponents
    # give N0/(x) itself
    mat = transpose(rel + [x])
    snf = smith_normal_form(mat, v=True)
    vt = transpose(snf.v)
    gens: list[tuple[int, list[int]]] = []
    for i, o in enumerate(snf.d):
        e = pval(o, p)
        if o != p**e:
            raise RuntimeError("foreign torsion in canonical quotient")
        if e:
            gens.append((e, [sum(map(mul, row, vt[i])) // o for row in mat]))
    if DMod(0, tuple(e for e, _ in reversed(gens))) != n1:
        raise RuntimeError("canonical element does not give the stated quotient")

    def untouched(vec: list[int]) -> bool:
        nz = [j for j in range(n) if vec[j]]
        return len(nz) == 1 and abs(vec[nz[0]]) == 1 and not x[nz[0]]

    # per block of the N1 -> N12 drop, carriers of exponent equal to the
    # block end, at the block's offset.  N0/(x) is N1, so it has a
    # generator of every block end; and carriers of different blocks
    # differ in exponent, so no choice of carriers repeats one
    blocks = _blocks(n1, n12)
    carrier_sets = [[gi for gi, (eg, _) in enumerate(gens) if eg == e] for e, _ in blocks]

    unit_reps = _unit_reps(p)
    a_opts = [0]
    for s in range(_nmax(n0) + 1):
        for u in unit_reps:
            a_opts.append(p**s * u)
            a_opts.append(-(p**s) * u)

    # elements of N0 already found wanting, and whether N0/(y) is N2 per
    # valuation profile of y; a success returns at once
    mods = [p**e for e in exps]
    failed: set[tuple[int, ...]] = set()
    gives_n2: dict[tuple[int, ...], bool] = {}
    tried = 0
    for idxs in product(*carrier_sets):
        carriers = [gens[gi] for gi in idxs]
        unit_sets = [[1] if untouched(vec) else unit_reps for (_, vec) in carriers]
        for units in product(*unit_sets):
            w = [0] * n
            for (_, c), u, (_, vec) in zip(blocks, units, carriers):
                pc = p**c * u
                for r in range(n):
                    w[r] += pc * vec[r]
            for a in a_opts:
                tried += 1
                if tried > _SEARCH_GUARD:
                    raise RuntimeError(
                        "witness search budget exceeded; exponents too large"
                        " for the exact square decision"
                    )
                key = tuple((a * xi - wi) % m for xi, wi, m in zip(x, w, mods))
                if key in failed:
                    continue
                y = list(key)
                profile = _valuation_profile(key, exps, p)
                if profile not in gives_n2:
                    gives_n2[profile] = _local_cokernel(rel + [y], p) == n2
                if gives_n2[profile] and _local_cokernel(rel + [x, y], p) == n12:
                    return True
                failed.add(key)
    return False


@lru_cache(maxsize=1 << 18)
def check_m1(src: FgAbGroup, dst: FgAbGroup) -> SquareVerdict:
    """Does a surjection src -> dst with cyclic kernel exist over the
    integers?  The degenerate square (src, dst, dst, dst), which has no
    joint descent and so never reaches the witness search."""
    # past check_square's cache, whose counts (read by perfbench/spans.py)
    # stay those of the scan's own square calls
    return check_square.__wrapped__(src, dst, dst, dst)


def exact_cap(p: int) -> int:
    """Largest exponent at which the stage-2/3 refinement applies at the
    prime p."""
    return _EXACT_CAPS.get(p, _EXACT_CAP_DEFAULT)


def audited(cap: int, n0: DMod, n1: DMod, n2: DMod, n12: DMod) -> bool:
    """Whether stage 2 audits the square at a prime with ``exact_cap``
    cap: N0 and N12 of equal rank (with stage 1 passed, all four ranks
    agree) and every exponent within the cap.  ``square_screen`` reads
    the cap through this flag alone."""
    return n0.rank == n12.rank and max(m.max_exp for m in (n0, n1, n2, n12)) <= cap


def _unsupplied(cap: int, n0: DMod, n1: DMod, n2: DMod, n12: DMod) -> list[int]:
    """Stage 2: the joint descents of the lower kernels that lack a spare
    summand of N0, for a square that passes stage 1.

    Building a square from the sequence conditions consumes, at every
    index i where the drop sequences of both N1 -> N12 and N2 -> N12
    close a block, one summand of N0 of exponent exactly i beyond those
    consumed at i by the maps out of N0.  Each edge's block ends are
    read by the multiplicity rule (module docstring) from one Counter of
    exponents per module.  Returns every index where that supply falls
    short, ascending; an empty list means the construction goes through
    and the square exists.  Only quadruples whose four ranks agree and
    whose exponents stay within ``cap`` are audited (``audited``): a
    common rank adds the same to every d_i, so the audit is that of the
    torsion parts.  Where a rank drops, or an exponent passes the cap,
    stage 1 alone decides, and the list is empty.
    """
    if not audited(cap, n0, n1, n2, n12):
        return []
    c0, c1, c2, c12 = (Counter(m.exps) for m in (n0, n1, n2, n12))

    def descents(hi: Counter, lo: Counter) -> set[int]:
        # stage 1 passed and the ranks agree, so every drop is 0 or 1 and
        # the multiplicity rule applies
        return {i for i in hi if hi[i] - lo[i] == 1}

    upper = descents(c0, c1) | descents(c0, c2)
    return [i for i in sorted(descents(c1, c12) & descents(c2, c12))
            if c0[i] < 1 + (i in upper)]


def square_screen(cap: int, n0: DMod, n1: DMod, n2: DMod, n12: DMod) -> bool:
    """Stages 1 and 2 of the square test at a prime with ``exact_cap`` cap,
    or at the generic point on free modules with cap 0.

    True means the square exists there.  False means the sequence test
    fails or the summand supply falls short, so only the full decision
    (``check_square``) can tell.  The answer depends on the prime only
    through its cap, and on the cap only through ``audited``.  A pass at
    a prime implies a pass of the free parts at the generic point, so
    the generic point need be asked only when a square has no prime.
    """
    return square_failure_dvr(n0, n1, n2, n12).ok and not _unsupplied(cap, n0, n1, n2, n12)


@lru_cache(maxsize=1 << 18)
def check_square(
    n0: FgAbGroup, n1: FgAbGroup, n2: FgAbGroup, n12: FgAbGroup
) -> SquareVerdict:
    """Square test over the integers with a located failure.

    The sequence conditions decide almost every instance.  On equal-rank
    quadruples within the validated exponent range, when they pass but
    the summand supply audit at some prime comes up short, the answer
    comes from the verified witness search on the torsion parts at that
    prime.  A miss is reported at the blocked index: up to
    _ORACLE_ORDER exhaustive pair search passes it or reports no-pair,
    past it as no-witness-pair.  When no prime divides a torsion order,
    the slope conditions of the free ranks decide, with prime None.  A
    witness search that raises is not cached and propagates.
    """
    for a, b in ((n0, n1), (n0, n2), (n1, n12), (n2, n12)):
        if a.rank - b.rank not in (0, 1):
            return SquareVerdict(False, RANK_DROP)
    primes = support_primes(n0, n1, n2, n12)
    if not primes:
        return square_failure_dvr(*(DMod(g.rank) for g in (n0, n1, n2, n12)))
    for p in primes:
        local = [localize(g, p) for g in (n0, n1, n2, n12)]
        f = square_failure_dvr(*local)
        if not f.ok:
            return SquareVerdict(False, f.kind, p, f.index)
        short = _unsupplied(exact_cap(p), *local)
        if short and not _witness_search(*(DMod(0, m.exps) for m in local), p):
            if p ** local[0].length > _ORACLE_ORDER:
                return SquareVerdict(False, NO_WITNESS, p, short[0])
            groups = (FgAbGroup(0, tuple(p**e for e in reversed(m.exps))) for m in local)
            if not pushout_oracle(*groups, _ORACLE_ORDER):
                return SquareVerdict(False, NO_PAIR, p, short[0])
    return _OK
