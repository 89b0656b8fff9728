"""The verification suites and the table reports of the command line: one
handler per check unit, the units of each suite, their `--n-max` caps,
and the tables rendered from the units `verify` runs.

The handlers reach `quotients`, `predictions` and `decomposition` through
their module attributes, where a tracer that replaces a package function
by module and name finds the call. Only `verify` and `table` load this
module; it never imports `dualweyl.cli`, which `python -m` runs as
``__main__``.
"""

from __future__ import annotations

from . import decomposition as dc
from . import predictions as pred
from . import quotients
from .partitions import (
    InvariantError,
    Partition,
    format_partition,
    hook_content_dim,
    orbit,
    parse_partition,
    partitions_of,
)
from .tableaux import kostka_number

EXPECTED_NON_ISO = {
    4: {Partition((1, 1, 1, 1)), Partition((2, 1, 1))},
    5: {
        Partition((1, 1, 1, 1, 1)),
        Partition((2, 1, 1, 1)),
        Partition((2, 2, 1)),
        Partition((3, 1, 1)),
    },
}

U_DIM_FORMULA_SHAPE = Partition((2, 2, 1))

# The default --n-max of the sweeps but d1, which `verify --suite all` runs.
N_MAX_DEFAULT = 6
# The d1 sweep walks every partition of each n up to its --n-max; past
# this many boxes that takes minutes and then hours, so it stops here.
D1_N_MAX = 15
# thm1's full builds grow fastest: seconds at 8 boxes. thm2 reads only
# dominant blocks: seconds at 9 boxes.
N_MAX_CAPS = {"thm1": 8, "thm2": 9, "d1": D1_N_MAX}


def _u_dim_expected(d: int) -> int:
    value, rem = divmod(d**4 + 5 * d**2, 6)
    if rem:
        raise InvariantError(f"(d^4 + 5d^2)/6 is not an integer at d={d}")
    return value


# ---------------------------------------------------------------------------
# Check units. Each is a tuple of a module-level handler below and its
# primitive arguments; the handler returns the report items of its unit,
# plain values that a forked check process sends back by `marshal`.


def _item(check: str, *, expected, got, **fields) -> dict:
    """A report item; it passes when ``got`` is ``expected``, and always
    when ``expected`` is None, which marks it informational."""
    out = {"check": check, **fields, "expected": expected, "got": got}
    out["pass"] = expected is None or expected == got
    return out


def _check_thm1(lam: str) -> list[dict]:
    """The skew builds at p = 3 and 5 against the hook-content dimension
    and the semistandard-tableau census by weight, at each d up to 4: the
    Kostka number of each dominant weight, repeated over its S_d-orbit
    (Kostka numbers are symmetric in the letters). A block depends only on
    the letters of its weight, so each prime is built once, at d = 4, and
    a smaller d reads the weights with no letter past d."""
    shape = parse_partition(lam)
    tables = {
        p: quotients.build_gtensor_specht(shape, 4, p).weight_table() for p in (3, 5)
    }
    items = []
    for d in range(1, 5):
        kostka = {
            w: count
            for beta in partitions_of(shape.n, d)
            if (count := kostka_number(shape, beta))
            for w in orbit(beta, d)
        }
        for p, table in tables.items():
            items.append(_item(
                "verify_iso", lam=lam, d=d, p=p, expected=True,
                got=quotients.verify_iso(shape, d, p),
            ))
            restricted = {w[:d]: v for w, v in table.items() if not any(w[d:])}
            item = _item(
                "gtensor_matches_weyl", lam=lam, d=d, p=p,
                expected=hook_content_dim(shape, d), got=sum(restricted.values()),
            )
            item["pass"] = item["pass"] and restricted == kostka
            items.append(item)
    return items


def _check_thm2(lam: str) -> list[dict]:
    """The characteristic-2 prediction against the construction at
    d = max(1, n - 2) and d = n, and the rank the supplementary snakes add
    at the smaller d."""
    shape = parse_partition(lam)
    low = max(1, shape.n - 2)
    predicted = pred.predict_iso(shape)
    items = [
        _item(
            "predicted_iso_matches_construction", lam=lam, d=d, p=2,
            expected=predicted, got=quotients.verify_iso(shape, d, 2),
        )
        for d in sorted({low, shape.n})
    ]
    gain = pred.supplementary_rank_gain(shape, low)
    return items + [_item(
        "supplementary_rank_gain", lam=lam, d=low, p=2, expected=None, got=gain
    )]


def _check_non_iso_set(n: int) -> list[dict]:
    d = n - 2
    return [_item(
        "non_iso_set",
        n=n,
        d=d,
        p=2,
        expected=sorted(format_partition(s) for s in EXPECTED_NON_ISO[n]),
        got=sorted(format_partition(s) for s in pred.non_iso_shapes(n, d)),
    )]


def _check_d1(lam: str) -> list[dict]:
    shape = parse_partition(lam)
    predicted = 0 if pred.d1_predict(shape) is pred.D1Result.ZERO else 1
    return [_item(
        "one_letter_dim",
        lam=lam,
        d=1,
        p=2,
        expected=predicted,
        got=quotients.build_gtensor_specht(shape, 1, 2).dim,
    )]


def _check_hook(a: int, l: int) -> list[dict]:
    """The two-letter dimension of the hook with arm a and leg l and, for
    an even leg, its weight multiset."""
    shape = pred.hook_partition(a, l)
    fields = {"lam": format_partition(shape), "d": 2, "p": 2}
    items = [_item(
        "hook_two_letter_dim",
        **fields,
        expected=pred.hook_d2_dim(a, l),
        got=quotients.build_gtensor_specht(shape, 2, 2).dim,
    )]
    if l % 2 == 0:
        items.append(_item(
            "hook_frobenius_weights",
            **fields,
            expected=True,
            got=pred.frobenius_weight_check(a, l),
        ))
    return items


def _check_u_dim_formula(d: int) -> list[dict]:
    return [_item(
        "kernel_dim_formula",
        lam=format_partition(U_DIM_FORMULA_SHAPE),
        d=d,
        p=2,
        expected=_u_dim_expected(d),
        got=quotients.u_lambda_dim(U_DIM_FORMULA_SHAPE, d),
    )]


def _check_u_degree(lam: str) -> list[dict]:
    shape = parse_partition(lam)
    n = shape.n
    degree = pred.u_dim_degree(shape)
    item = _item(
        "kernel_dim_degree", lam=lam, p=2, expected=f"<= {n - 1}", got=degree
    )
    item["pass"] = degree <= n - 1
    return [item]


def _check_table1(d: int) -> list[dict]:
    return [_item(
        "kernel_weight_census",
        lam=format_partition(U_DIM_FORMULA_SHAPE),
        d=d,
        p=2,
        expected=_encode_counts(pred.table1_expected(d)),
        got=_encode_counts(pred.table1_weight_counts(d)),
    )]


def _encode_counts(counts: dict[Partition, int]) -> dict[str, int]:
    return {format_partition(k): v for k, v in sorted(counts.items())}


def _check_decomposition() -> list[dict]:
    """Decomposition gates, the factor table, and filtration feasibility;
    only the gates item when a derived row or a factor solve fails its
    checks."""
    from collections import Counter

    golden = _load_table3_golden()
    try:
        rows = [dc.decomposition_rows(n) for n in range(1, 6)]
        got = {
            lam: dc.composition_factors_U(parse_partition(lam)) for lam in golden
        }
        factors = Counter(rows[-1][U_DIM_FORMULA_SHAPE])
        factors.update(dc.composition_factors_U(U_DIM_FORMULA_SHAPE))
    except InvariantError as exc:
        return [_item("decomposition_data_gates", expected="valid", got=str(exc))]
    items = [_item("decomposition_data_gates", expected="valid", got="valid")]
    items += [
        _item(
            "kernel_composition_factors",
            lam=lam,
            p=2,
            expected=_encode_counts(expected_row),
            got=_encode_counts(got[lam]),
        )
        for lam, expected_row in golden.items()
    ]
    items.append(
        _item(
            "no_weyl_filtration",
            lam=format_partition(U_DIM_FORMULA_SHAPE),
            p=2,
            expected=False,
            got=dc.nabla_filtration_feasible(factors),
        )
    )
    return items


def _check_example61() -> list[dict]:
    shape = Partition((4, 3, 2, 1, 1))
    lam = format_partition(shape)
    return [
        _item(
            "below_threshold_iso",
            lam=lam,
            d=2,
            p=2,
            expected=True,
            got=quotients.verify_iso(shape, 2, 2),
        ),
        _item(
            "below_threshold_prediction",
            lam=lam,
            p=2,
            expected=False,
            got=pred.predict_iso(shape),
        ),
    ]


# ---------------------------------------------------------------------------
# Suites


def _per_shape(handler, n_max: int) -> list[tuple]:
    """One unit of the handler per shape of at most n_max boxes."""
    return [
        (handler, format_partition(shape))
        for n in range(1, n_max + 1)
        for shape in partitions_of(n)
    ]


# The units of each suite, from its capped --n-max, in the order
# `verify --suite all` runs them.
SUITE_UNITS = {
    "thm1": lambda n_max: _per_shape(_check_thm1, n_max),
    "thm2": lambda n_max: _per_shape(_check_thm2, n_max) + [
        (_check_non_iso_set, n) for n in EXPECTED_NON_ISO if n <= n_max
    ],
    "d1": lambda n_max: _per_shape(_check_d1, n_max),
    "hooks-d2": lambda n_max: [
        (_check_hook, a, l) for a in range(2, 7) for l in range(2, 7)
    ],
    "tables": lambda n_max: [
        *((_check_table1, d) for d in (4, 5, 6)),
        *((_check_u_dim_formula, d) for d in (4, 5, 6, 7)),
        *(
            (_check_u_degree, format_partition(shape))
            for n in (4, 5)
            for shape in partitions_of(n)
        ),
        (_check_decomposition,),
    ],
    "example61": lambda n_max: [(_check_example61,)],
}


# ---------------------------------------------------------------------------
# Table rendering


def _load_table3_golden() -> dict[str, dict[Partition, int]]:
    import csv
    import io
    from importlib import resources

    text = resources.files("dualweyl").joinpath("data/table3.csv").read_text()
    out: dict[str, dict[Partition, int]] = {}
    for row in csv.DictReader(io.StringIO(text)):
        lam = format_partition(parse_partition(row["lambda"]))
        out.setdefault(lam, {})[parse_partition(row["mu"])] = int(
            row["multiplicity"]
        )
    return out


def render_table1(d: int) -> tuple[list[tuple], bool]:
    """The census item of the tables suite at d, one row per weight class
    of the stored formulas, in their sorted order."""
    [item] = _check_table1(d)
    rows = [("dominant_weight", "count")]
    rows += [(lam, item["got"].get(lam, 0)) for lam in item["expected"]]
    return rows, item["pass"]


def render_table3() -> tuple[list[tuple], bool]:
    """The factor items of the decomposition unit, one row per factor; none
    when its gates item fails."""
    gates, *items = _check_decomposition()
    factors = [it for it in items if it["check"] == "kernel_composition_factors"]
    rows = [("lambda", "mu", "multiplicity")]
    rows += [(it["lam"], mu, n) for it in factors for mu, n in it["got"].items()]
    return rows, gates["pass"] and all(it["pass"] for it in factors)
