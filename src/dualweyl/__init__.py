"""Exact constructions of dual Weyl modules and inverse-Schur-functor
images as quotients of tabloid spaces over prime fields."""

from .partitions import (
    InvariantError,
    Partition,
    binom_parity,
    count_syt,
    dominates,
    hook_content_dim,
    min_odd_binomial_index,
    parse_partition,
    partitions_of,
)
from .tableaux import ColOrderResult, Tableau, TableauClass, col_compare, enumerate_tableaux
from .tabloids import (
    ALT_COLUMN,
    SignedTabloid,
    TabloidBasis,
    TabloidVector,
    build_basis,
    canonicalize,
    skew_column,
)
from .garnir import GarnirLabel, RelationKind
from .quotients import (
    QuotientModule,
    apply_transvection,
    build_dual_weyl,
    build_gtensor_specht,
    module_dim,
    restrict_entries,
    straighten,
    u_lambda_dim,
    u_lambda_weight_table,
    verify_iso,
)
from .predictions import (
    D1Result,
    IsoVerdict,
    d1_predict,
    frobenius_weight_check,
    hook_d2_dim,
    predict_iso,
    table1_weight_counts,
    verify_characterization,
)
from .decomposition import (
    DecompositionData,
    DecompositionDataError,
    composition_factors_U,
    load_default_data,
    nabla_filtration_feasible,
)

__version__ = "0.1.0"
