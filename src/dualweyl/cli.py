"""Command-line front end: constructions, verification suites, and table
reports with machine-readable output.

Exit codes: 0 on success, 1 on a failed assertion or golden mismatch,
2 on usage errors, refused input and unreadable or unwritable paths.

A `dim` call runs in a fresh process, so the module imports at the top
only what `dim` runs; the verification suites, the tables and the reports
import the rest where they use it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .partitions import (
    InvariantError,
    Partition,
    format_partition,
    hook_content_dim,
    hook_content_log10,
    orbit,
    parse_partition,
    partitions_of,
)
from .quotients import (
    DIM_REP_BUDGET,
    build_gtensor_specht,
    dominant_rep_bound,
    module_dim,
    u_lambda_dim,
    verify_iso,
)

SCHEMA = "dualweyl-report/1"

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

# The default --n-max of the sweeps but d1, and the cap of thm1, whose full
# builds grow fastest; thm2 reads only dominant blocks: seconds at 9 boxes.
THM_N_MAX = 6
# The d1 sweep walks every partition of each n up to its --n-max; past
# this many boxes that takes minutes and then hours, so it stops here.
D1_N_MAX = 15
N_MAX_CAPS = {"thm1": THM_N_MAX, "thm2": 9, "d1": D1_N_MAX}


def _u_dim_expected(d: int) -> int:
    value, rem = divmod(d**4 + 5 * d**2, 6)
    if rem:
        raise InvariantError(f"(d^4 + 5d^2)/6 is not an integer at d={d}")
    return value


# ---------------------------------------------------------------------------
# Check units. Each is a tuple of a module-level handler below and its
# primitive arguments, so the pool can ship it to workers (functions pickle
# by reference); the handler returns the report items of its unit.


def _run_check(check: tuple) -> list[dict]:
    handler, *args = check
    return handler(*args)


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
    from .tableaux import kostka_number

    shape = parse_partition(lam)
    tables = {p: build_gtensor_specht(shape, 4, p).weight_table() for p in (3, 5)}
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
                got=verify_iso(shape, d, p),
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
    from . import predictions as pred

    shape = parse_partition(lam)
    low = max(1, shape.n - 2)
    predicted = pred.predict_iso(shape)
    items = [
        _item(
            "predicted_iso_matches_construction", lam=lam, d=d, p=2,
            expected=predicted, got=verify_iso(shape, d, 2),
        )
        for d in sorted({low, shape.n})
    ]
    gain = pred.supplementary_rank_gain(shape, low)
    return items + [_item(
        "supplementary_rank_gain", lam=lam, d=low, p=2, expected=None, got=gain
    )]


def _check_non_iso_set(n: int) -> list[dict]:
    from . import predictions as pred

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
    from . import predictions as pred

    shape = parse_partition(lam)
    predicted = 0 if pred.d1_predict(shape) is pred.D1Result.ZERO else 1
    return [_item(
        "one_letter_dim",
        lam=lam,
        d=1,
        p=2,
        expected=predicted,
        got=build_gtensor_specht(shape, 1, 2).dim,
    )]


def _check_hook(a: int, l: int) -> list[dict]:
    """The two-letter dimension of the hook with arm a and leg l and, for
    an even leg, its weight multiset."""
    from . import predictions as pred

    shape = pred.hook_partition(a, l)
    fields = {"lam": format_partition(shape), "d": 2, "p": 2}
    items = [_item(
        "hook_two_letter_dim",
        **fields,
        expected=pred.hook_d2_dim(a, l),
        got=build_gtensor_specht(shape, 2, 2).dim,
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
        got=u_lambda_dim(U_DIM_FORMULA_SHAPE, d),
    )]


def _check_u_degree(lam: str) -> list[dict]:
    from . import predictions as pred

    shape = parse_partition(lam)
    n = shape.n
    degree = pred.u_dim_degree(shape)
    item = _item(
        "kernel_dim_degree", lam=lam, p=2, expected=f"<= {n - 1}", got=degree
    )
    item["pass"] = degree <= n - 1
    return [item]


def _check_table1(d: int) -> list[dict]:
    from . import predictions as pred

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

    from . import decomposition as dc

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
    from . import predictions as pred

    shape = Partition((4, 3, 2, 1, 1))
    lam = format_partition(shape)
    return [
        _item(
            "below_threshold_iso",
            lam=lam,
            d=2,
            p=2,
            expected=True,
            got=verify_iso(shape, 2, 2),
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
_SUITE_UNITS = {
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
SUITES = (*_SUITE_UNITS, "all")


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


def _render_table1(d: int) -> tuple[list[tuple], bool]:
    """The census item of the tables suite at d, one row per weight class
    of the stored formulas, in their sorted order."""
    [item] = _check_table1(d)
    rows = [("dominant_weight", "count")]
    rows += [(lam, item["got"].get(lam, 0)) for lam in item["expected"]]
    return rows, item["pass"]


def _render_table3() -> tuple[list[tuple], bool]:
    """The factor items of the decomposition unit, one row per factor; none
    when its gates item fails."""
    gates, *items = _check_decomposition()
    factors = [it for it in items if it["check"] == "kernel_composition_factors"]
    rows = [("lambda", "mu", "multiplicity")]
    rows += [(it["lam"], mu, n) for it in factors for mu, n in it["got"].items()]
    return rows, gates["pass"] and all(it["pass"] for it in factors)


# ---------------------------------------------------------------------------
# Command plumbing


def _emit_report(args, command: str, items: list[dict], started: float) -> int:
    import json
    from pathlib import Path

    failures = [it for it in items if not it["pass"]]
    report = {
        "schema": SCHEMA,
        "command": command,
        "items": items,
        "failures": failures,
    }
    if not args.no_timing:
        report["timing_ms"] = int((time.monotonic() - started) * 1000)
    text = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    if args.format == "json":
        sys.stdout.write(text)
    else:
        for it in items:
            status = "pass" if it["pass"] else "FAIL"
            detail = ", ".join(
                f"{k}={it[k]}" for k in ("lam", "n", "d", "p") if k in it
            )
            print(f"[{status}] {it['check']}({detail}): "
                  f"expected {it['expected']!r}, got {it['got']!r}")
        print(f"{len(items) - len(failures)}/{len(items)} checks passed")
    return 1 if failures else 0


def _run_checks(checks: list[tuple], jobs: int) -> list[list[dict]]:
    if jobs == 1 or len(checks) <= 1:
        return [_run_check(c) for c in checks]
    # Imported here: a `dim` call never needs the pool, and the import
    # is a noticeable share of start-up.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(checks))) as pool:
        return list(pool.map(_run_check, checks, chunksize=4))


def _resolve_jobs(value: int | None) -> int:
    cores = os.cpu_count() or 1
    if value is None or value == 0:
        return cores
    if value < 1:
        raise ValueError(f"--jobs must be 0 (all cores) or positive, got {value}")
    if value > cores:
        print(f"note: --jobs {value} is capped at {cores} cores", file=sys.stderr)
    return min(value, cores)


def cmd_dim(args) -> int:
    started = time.monotonic()
    shape = parse_partition(args.lam)
    if args.which == "u" and args.p != 2:
        raise ValueError("the kernel dimension is a characteristic-2 notion")
    query = f"{args.which} of {args.lam} at d={args.d}, p={args.p}"
    bound = dominant_rep_bound(args.which, shape, args.d, args.p)
    if bound > DIM_REP_BUDGET:
        raise ValueError(
            f"{query} may need {bound} steps (boxes, or snake terms, weights "
            f"and representatives), over the budget of {DIM_REP_BUDGET}"
        )
    # 0 means no limit, as does an interpreter older than the limit (3.10.7).
    digits = getattr(sys, "get_int_max_str_digits", int)()
    too_long = f"{query} has over {digits} digits, more than dim prints"
    # Both module dimensions are at least the hook-content count, whose
    # digits a float sum forecasts: a forecast clear of its rounding over
    # the limit is refused before any product is taken.
    if (digits and args.which != "u"
            and hook_content_log10(shape, args.d) >= digits + 1):
        raise ValueError(too_long)
    if args.which in ("nabla", "gtensor"):
        value = module_dim(args.which, shape, args.d, args.p)
    else:
        value = u_lambda_dim(shape, args.d)
    if digits and value >= 10**digits:
        raise ValueError(too_long)
    if args.format == "json" or args.out:
        item = _item(
            "dim", kind=args.which, lam=args.lam, d=args.d, p=args.p,
            expected=None, got=value,
        )
        return _emit_report(args, "dim", [item], started)
    print(value)
    return 0


def cmd_verify(args) -> int:
    started = time.monotonic()
    jobs = _resolve_jobs(args.jobs)
    if args.n_max < 1:
        raise ValueError(f"--n-max must be positive, got {args.n_max}")
    # Loaded here, in the parent, so the pool workers the checks fork
    # inherit them instead of each importing them again.
    from . import decomposition, predictions  # noqa: F401

    suites = list(_SUITE_UNITS) if args.suite == "all" else [args.suite]
    units: list[tuple] = []
    for suite in suites:
        cap = N_MAX_CAPS.get(suite, args.n_max)
        if args.n_max > cap:
            print(
                f"note: --n-max {args.n_max} is capped at {cap} for {suite}",
                file=sys.stderr,
            )
        units += _SUITE_UNITS[suite](min(args.n_max, cap))
    items = [item for unit_items in _run_checks(units, jobs) for item in unit_items]
    return _emit_report(args, f"verify --suite {args.suite}", items, started)


def cmd_table(args) -> int:
    import csv
    import io
    from pathlib import Path

    if args.which == "table1":
        rows, ok = _render_table1(args.d)
    else:
        rows, ok = _render_table3()
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if not ok:
        print("golden mismatch", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualweyl",
        description=(
            "Exact constructions of dual Weyl modules and inverse-Schur-"
            "functor images over prime fields, with verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", help="write the JSON report here")
    common.add_argument(
        "--no-timing", action="store_true", help="omit timing for stable output"
    )

    p_dim = sub.add_parser("dim", parents=[common], help="print one dimension")
    p_dim.add_argument("--which", choices=("nabla", "gtensor", "u"), required=True)
    p_dim.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    p_dim.add_argument("--d", type=int, required=True)
    p_dim.add_argument("--p", type=int, default=2)
    p_dim.set_defaults(func=cmd_dim)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a verification suite"
    )
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument(
        "--jobs", type=int, default=None, help="0 or omitted = all cores"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="emit a CSV table and check it")
    p_table.add_argument("--which", choices=("table1", "table3"), required=True)
    p_table.add_argument("--out", help="write the CSV here")
    p_table.add_argument("--d", type=int, default=5)
    p_table.set_defaults(func=cmd_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "command", None) == "verify" and args.n_max is None:
        args.n_max = 10 if args.suite == "d1" else THM_N_MAX
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
