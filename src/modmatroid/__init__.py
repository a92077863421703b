"""Exact matroids with module coefficients over the integers.

Tables assigning a finitely generated abelian group to every subset of
a ground set, verified against the local quotient-square criteria, with
duality, minors, Tutte-Grothendieck invariants, quasi-arithmetic data
and tropical exchange certificates on top.  Everything is exact integer
arithmetic; there are no floating point paths except the INF sentinel.
"""

from .abgroups import (
    INF,
    DMod,
    FgAbGroup,
    TRIVIAL,
    canonicalize,
    cokernel,
    d_i,
    d_leq,
    group_sum,
    localize,
    support_primes,
    tensor_group,
)
from .duality import dual, dual_dvr, gale_dual
from .intmat import SnfResult, det, smith_normal_form
from .matroids import (
    DvrMatroid,
    MatroidError,
    Realization,
    Verdict,
    Violation,
    ZMatroid,
    contract,
    delete,
    direct_sum,
    essentialize,
    from_realization,
    generic_loops_coloops,
    generic_rank,
    is_matroid,
    is_matroid_dvr,
    localize_matroid,
    matroid_support_primes,
    relabel,
    residue_matroid,
    tensor_mod,
    verify,
)
from .oracle import pushout_oracle, quotient_by_element, surjection_oracle
from .qam import QamData, check_axioms, to_qam
from .surjections import cyclic_surjection_exists, square_exists
from .tropical import (
    HeightFunction,
    TropicalVerdict,
    dressian_check,
    flag_pluecker_scan,
    heights,
    single_exchange_check,
    three_term_check,
    valuated_matroid_check,
)
from .tutte import (
    TutteClass,
    arithmetic_tutte,
    classical_tutte,
    poly_eval,
    poly_render,
    quasi_tutte_eval,
    tutte_class,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
