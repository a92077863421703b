"""Exact matroids with module coefficients over the integers.

Tables assigning a finitely generated abelian group to every subset of
a ground set, verified against the local quotient-square criteria, with
duality, minors, Tutte-Grothendieck invariants, quasi-arithmetic data
and tropical exchange certificates on top.  Everything is exact integer
arithmetic; there are no floating point paths except the INF sentinel.
"""

from types import ModuleType as _ModuleType

from .abgroups import (
    INF,
    DMod,
    FgAbGroup,
    TRIVIAL,
    canonicalize,
    cokernel,
    d_leq,
    localize,
    support_primes,
)
from .duality import dual, gale_dual
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
    essentialize,
    from_realization,
    generic_rank,
    is_matroid,
    localize_matroid,
    matroid_support_primes,
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

# the import block above is the export list; the relative imports also
# bind the submodules themselves, which are not exports
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
