"""Command-line front end: constructions, verification suites, and table
reports with machine-readable output.

Exit codes: 0 on success, 1 on a failed assertion or golden mismatch,
2 on usage errors, refused input and unreadable or unwritable paths.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from importlib import resources
from pathlib import Path

from . import decomposition as dc
from . import predictions as pred
from .gfp import is_prime
from .partitions import (
    InvariantError,
    Partition,
    format_partition,
    hook_content_dim,
    parse_partition,
    partitions_of,
)
from .quotients import (
    _orbit,
    build_gtensor_specht,
    dominant_rep_bound,
    module_dim,
    u_lambda_dim,
    verify_iso,
)
from .tableaux import kostka_numbers

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

# The thm1 and thm2 sweeps stop at this many boxes whatever --n-max says.
THM_N_MAX = 6
# The d1 sweep walks every partition of each n up to its --n-max; past
# this many boxes that takes minutes and then hours, so it stops here.
D1_N_MAX = 15
N_MAX_CAPS = {"thm1": THM_N_MAX, "thm2": THM_N_MAX, "d1": D1_N_MAX}
# `dim` refuses a query whose dominant weights and their row-semistandard
# representatives may number more than this (`quotients.dominant_rep_bound`);
# near it a query takes seconds.
DIM_REP_BUDGET = 100_000


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


def _check_verify_iso_true(lam: str, d: int, p: int) -> list[dict]:
    shape = parse_partition(lam)
    return [_item(
        "verify_iso", lam=lam, d=d, p=p, expected=True, got=verify_iso(shape, d, p)
    )]


def _check_dims_match_weyl(lam: str, d: int, p: int) -> list[dict]:
    """The full skew build against the hook-content dimension and the
    semistandard-tableau census by weight: the Kostka number of each
    dominant weight, repeated over its S_d-orbit (Kostka numbers are
    symmetric in the letters)."""
    shape = parse_partition(lam)
    image = build_gtensor_specht(shape, d, p)
    item = _item(
        "gtensor_matches_weyl",
        lam=lam,
        d=d,
        p=p,
        expected=hook_content_dim(shape, d),
        got=image.dim,
    )
    kostka = {
        w: count
        for beta, count in kostka_numbers(shape).items()
        if len(beta) <= d
        for w in _orbit(beta, d)
    }
    item["pass"] = item["pass"] and image.weight_table() == kostka
    return [item]


def _check_predict_vs_verify(lam: str, d: int) -> list[dict]:
    shape = parse_partition(lam)
    return [_item(
        "predicted_iso_matches_construction",
        lam=lam,
        d=d,
        p=2,
        expected=pred.predict_iso(shape),
        got=verify_iso(shape, d, 2),
    )]


def _check_supp_gain(lam: str, d: int) -> list[dict]:
    gain = pred.supplementary_rank_gain(parse_partition(lam), d)
    return [_item(
        "supplementary_rank_gain", lam=lam, d=d, p=2, expected=None, got=gain
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
        got=build_gtensor_specht(shape, 1, 2).dim,
    )]


def _check_hook_dim(a: int, l: int) -> list[dict]:
    shape = pred.hook_partition(a, l)
    return [_item(
        "hook_two_letter_dim",
        lam=format_partition(shape),
        d=2,
        p=2,
        expected=pred.hook_d2_dim(a, l),
        got=build_gtensor_specht(shape, 2, 2).dim,
    )]


def _check_hook_frobenius(a: int, l: int) -> list[dict]:
    shape = pred.hook_partition(a, l)
    return [_item(
        "hook_frobenius_weights",
        lam=format_partition(shape),
        d=2,
        p=2,
        expected=True,
        got=pred.frobenius_weight_check(a, l),
    )]


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


def _check_decomposition(data_path: str | None) -> list[dict]:
    """Decomposition gates, the factor table, and filtration feasibility;
    only the gates item when the data fails them."""
    try:
        data = dc.DecompositionData.load(data_path)
    except dc.DecompositionDataError as exc:
        return [_item("decomposition_data_gates", expected="valid", got=str(exc))]
    items = [_item("decomposition_data_gates", expected="valid", got="valid")]
    golden = _load_table3_golden()
    for lam, expected_row in golden.items():
        shape = parse_partition(lam)
        got = dc.composition_factors_U(shape, data)
        items.append(
            _item(
                "kernel_composition_factors",
                lam=lam,
                p=2,
                expected=_encode_counts(expected_row),
                got=_encode_counts(got),
            )
        )
    shape = U_DIM_FORMULA_SHAPE
    factors = dict(dc.composition_factors_U(shape, data))
    for nu, mult in data.row(shape).items():
        factors[nu] = factors.get(nu, 0) + mult
    items.append(
        _item(
            "no_weyl_filtration",
            lam=format_partition(shape),
            p=2,
            expected=False,
            got=dc.nabla_filtration_feasible(factors, data),
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


def _suite_thm1_checks(n_max: int) -> list[tuple]:
    checks = []
    for n in range(1, n_max + 1):
        for shape in partitions_of(n):
            lam = format_partition(shape)
            for d in range(1, 5):
                for p in (3, 5):
                    checks.append((_check_verify_iso_true, lam, d, p))
                    checks.append((_check_dims_match_weyl, lam, d, p))
    return checks


def _suite_thm2_checks(n_max: int) -> list[tuple]:
    checks = []
    for n in range(1, n_max + 1):
        for shape in partitions_of(n):
            lam = format_partition(shape)
            low = max(1, n - 2)
            for d in sorted({low, n}):
                checks.append((_check_predict_vs_verify, lam, d))
            checks.append((_check_supp_gain, lam, low))
    checks += [(_check_non_iso_set, n) for n in EXPECTED_NON_ISO if n <= n_max]
    return checks


def _suite_d1_checks(n_max: int) -> list[tuple]:
    return [
        (_check_d1, format_partition(shape))
        for n in range(1, n_max + 1)
        for shape in partitions_of(n)
    ]


def _suite_hooks_checks() -> list[tuple]:
    checks = []
    for a in range(2, 7):
        for l in range(2, 7):
            checks.append((_check_hook_dim, a, l))
            if l % 2 == 0:
                checks.append((_check_hook_frobenius, a, l))
    return checks


def _suite_tables_checks(data_path: str | None) -> list[tuple]:
    checks = [(_check_table1, d) for d in (4, 5, 6)]
    checks += [(_check_u_dim_formula, d) for d in (4, 5, 6, 7)]
    checks += [
        (_check_u_degree, format_partition(shape))
        for n in (4, 5)
        for shape in partitions_of(n)
    ]
    checks.append((_check_decomposition, data_path))
    return checks


# The units of each suite, from its capped --n-max and the --data path, in
# the order `verify --suite all` runs them.
_SUITE_UNITS = {
    "thm1": lambda n_max, data: _suite_thm1_checks(n_max),
    "thm2": lambda n_max, data: _suite_thm2_checks(n_max),
    "d1": lambda n_max, data: _suite_d1_checks(n_max),
    "hooks-d2": lambda n_max, data: _suite_hooks_checks(),
    "tables": lambda n_max, data: _suite_tables_checks(data),
    "example61": lambda n_max, data: [(_check_example61,)],
}
SUITES = (*_SUITE_UNITS, "all")


# ---------------------------------------------------------------------------
# Table rendering


def _load_table3_golden() -> dict[str, dict[Partition, int]]:
    text = resources.files("dualweyl").joinpath("data/table3.csv").read_text()
    out: dict[str, dict[Partition, int]] = {}
    for row in csv.DictReader(io.StringIO(text)):
        lam = format_partition(parse_partition(row["lambda"]))
        out.setdefault(lam, {})[parse_partition(row["mu"])] = int(
            row["multiplicity"]
        )
    return out


def _render_table1(d: int) -> tuple[str, bool]:
    counts = pred.table1_weight_counts(d)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dominant_weight", "count"])
    for shape, _, _ in pred.TABLE1_FORMULAS:
        writer.writerow([format_partition(shape), counts.get(shape, 0)])
    return buf.getvalue(), counts == pred.table1_expected(d)


def _render_table3(data_path: str | None) -> tuple[str, bool]:
    data = dc.DecompositionData.load(data_path)
    golden = _load_table3_golden()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lambda", "mu", "multiplicity"])
    ok = True
    for lam, expected_row in golden.items():
        got = dc.composition_factors_U(parse_partition(lam), data)
        ok = ok and got == expected_row
        for mu in sorted(got):
            writer.writerow([lam, format_partition(mu), got[mu]])
    return buf.getvalue(), ok


# ---------------------------------------------------------------------------
# Command plumbing


def _emit_report(args, command: str, items: list[dict], started: float) -> int:
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
    if not is_prime(args.p) or (args.p not in (2, 3, 5) and not args.any_prime):
        raise ValueError(f"p={args.p} not allowed (pass --any-prime to override)")
    if args.which == "u" and args.p != 2:
        raise ValueError("the kernel dimension is a characteristic-2 notion")
    bound = dominant_rep_bound(args.which, shape, args.d, args.p)
    if bound > DIM_REP_BUDGET:
        raise ValueError(
            f"{args.which} of {args.lam} at d={args.d}, p={args.p} may need "
            f"{bound} weights and representatives, over the budget of "
            f"{DIM_REP_BUDGET}"
        )
    if args.which in ("nabla", "gtensor"):
        value = module_dim(args.which, shape, args.d, args.p)
    else:
        value = u_lambda_dim(shape, args.d)
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
    suites = list(_SUITE_UNITS) if args.suite == "all" else [args.suite]
    units: list[tuple] = []
    for suite in suites:
        cap = N_MAX_CAPS.get(suite, args.n_max)
        if args.n_max > cap:
            print(
                f"note: --n-max {args.n_max} is capped at {cap} for {suite}",
                file=sys.stderr,
            )
        units += _SUITE_UNITS[suite](min(args.n_max, cap), args.data)
    items = [item for unit_items in _run_checks(units, jobs) for item in unit_items]
    return _emit_report(args, f"verify --suite {args.suite}", items, started)


def cmd_table(args) -> int:
    if args.which == "table1":
        text, ok = _render_table1(args.d)
    else:
        text, ok = _render_table3(args.data)
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
    common.add_argument("--out", help="write the JSON report or CSV here")
    common.add_argument(
        "--no-timing", action="store_true", help="omit timing for stable output"
    )

    p_dim = sub.add_parser("dim", parents=[common], help="print one dimension")
    p_dim.add_argument("--which", choices=("nabla", "gtensor", "u"), required=True)
    p_dim.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    p_dim.add_argument("--d", type=int, required=True)
    p_dim.add_argument("--p", type=int, default=2)
    p_dim.add_argument("--any-prime", action="store_true")
    p_dim.set_defaults(func=cmd_dim)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a verification suite"
    )
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument(
        "--jobs", type=int, default=None, help="0 or omitted = all cores"
    )
    p_verify.add_argument("--data", help="decomposition data file")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser(
        "table", parents=[common], help="emit a CSV table and check it"
    )
    p_table.add_argument("--which", choices=("table1", "table3"), required=True)
    p_table.add_argument("--d", type=int, default=5)
    p_table.add_argument("--data", help="decomposition data file")
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
