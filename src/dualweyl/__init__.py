"""Exact constructions of dual Weyl modules and inverse-Schur-functor
images as quotients of tabloid spaces over prime fields.

The names below are exported lazily: each loads its submodule on first
use, so a process imports only the modules it runs (`dim` never loads
`predictions` or `decomposition`).
"""

from importlib import import_module

_EXPORTS = {
    "partitions": (
        "InvariantError", "Partition", "count_syt", "dominates",
        "hook_content_dim", "min_odd_binomial_index", "parse_partition",
        "partitions_of",
    ),
    "tableaux": (
        "ColOrderResult", "Tableau", "TableauClass", "col_compare",
        "enumerate_tableaux",
    ),
    "tabloids": (
        "ALT_COLUMN", "SignedTabloid", "TabloidBasis", "TabloidVector",
        "build_basis", "canonicalize", "skew_column",
    ),
    "garnir": ("GarnirLabel", "RelationKind"),
    "quotients": (
        "QuotientModule", "apply_transvection", "build_dual_weyl",
        "build_gtensor_specht", "module_dim", "restrict_entries", "straighten",
        "u_lambda_dim", "u_lambda_weight_table", "verify_iso",
    ),
    "predictions": (
        "D1Result", "d1_predict", "frobenius_weight_check", "hook_d2_dim",
        "predict_iso", "table1_weight_counts",
    ),
    "decomposition": (
        "composition_factors_U", "decomposition_rows", "dim_simple",
        "nabla_filtration_feasible", "simple_dims",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as the eager package had it bound
        return import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
