"""Rudin-Shapiro sums over F_q[t]: exact arithmetic, exhaustive checks.

The package covers polynomial arithmetic over odd-characteristic finite
fields, the coefficient-correlation functionals, the associated quadratic
forms and their ranks, additive character sums with their rank bounds, the
sieve decomposition of weighted prime-power sums, and the distribution of
the Rudin-Shapiro statistic over monic irreducibles, all at enumeration
scale with exact integer accounting.
"""

from .arith import (
    Dirichlet,
    FactorTable,
    check_tau_bound,
    check_tau_second_moment,
    count_reversal_solutions,
    divisors_monic,
    mobius,
    scan_reversal_counts,
    tau,
    von_mangoldt,
)
from .charsum import (
    CharSpec,
    char_eval,
    char_values,
    max_gauss_magnitude,
    quad_form_char_sum,
    rs_char_sum_over_set,
    rs_pair_char_sum,
    scan_gauss_bound,
)
from .dist import DistTable, deviation_trend, distribution, pnt_bracket_exact
from .errors import (
    ConfigError,
    DegreeBoundError,
    EnumerationCapError,
    ExactIdentityError,
    ExactTraceError,
    InvalidCutoffsError,
    NotMonicError,
    PolyDivisionError,
    RsfqError,
    TrivialCharacterError,
    ZeroInversionError,
    ZeroPolynomialError,
)
from .field import FieldCtx
from .poly import DEFAULT_CAP, PolyRing, PolySet, irreducible_count_formula
from .quadform import (
    RankReport,
    SymMatrix,
    adjacent_pair_matrix,
    bab_matrix,
    bilinear_eval,
    kernel_dim,
    matrix_rank,
    monic_slice_rank,
    qa_matrix,
    qa_matrix_entrywise,
    quad_eval,
    scan_bab_ranks,
    scan_qa_ranks,
    sym_matrix,
)
from .rudin import autocorrelation, reversal_product_correlations, rudin_shapiro
from .sieve import count_irreducibles_sieve
from .vaughan import (
    VaughanContext,
    VaughanReport,
    character_rs_weight,
    default_cutoffs,
    random_weight_values,
    sigma1,
    sigma2,
    unit_weight,
    vaughan_decompose,
)
from .verify import RunConfig, build_cells, run_cell, verify_all

__version__ = "0.1.0"
