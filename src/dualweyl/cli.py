"""Command-line front end: the parser, `dim`, and the `verify` and `table`
commands over the suites of `suites`, with machine-readable reports.

Exit codes: 0 on success, 1 on a failed assertion or golden mismatch,
2 on usage errors, refused input and unreadable or unwritable paths.

A `dim` call runs in a fresh process, so the module imports at the top
only `argparse` and `partitions`. An alternating `dim` query (the dual
Weyl module at every p, the skew construction at odd p) is the
hook-content count, with its kind and forecast from `partitions`, and
loads nothing more; a mod-2 skew query loads `quotients`; `verify` and
`table` load `suites` and the modules it runs. `verify --jobs N` runs its
check units in N processes: this one, and N - 1 it forks after the
suites are loaded, each with a fixed share of the units, so no executor
or worker start-up is paid.
"""

from __future__ import annotations

import argparse
import marshal
import os
import sys
import time

from .partitions import (
    DIM_REP_BUDGET,
    _check_prime,
    alternating_forecast,
    hook_content_dim,
    hook_content_log10,
    parse_partition,
)

SCHEMA = "dualweyl-report/1"
# The keys of `suites.SUITE_UNITS`, in order, and "all".
SUITES = ("thm1", "thm2", "d1", "hooks-d2", "tables", "example61", "all")



def _write_out(path: str, text: str) -> None:
    """Write to the ``--out`` path. Any failure there, a full device
    included, is an error in the user's input (exit 2); an OSError of the
    program itself, such as a closed pipe, propagates."""
    from pathlib import Path

    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit_report(args, command: str, items: list[dict], started: float) -> int:
    import json

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
        _write_out(args.out, text)
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


def _run_check(check: tuple) -> list[dict]:
    """The report items of one check unit of `suites`: a handler and its
    arguments."""
    handler, *args = check
    return handler(*args)


def _run_checks(checks: list[tuple], jobs: int) -> list[list[dict]]:
    """The items of each check unit, in order, from ``jobs`` processes,
    this one included: unit i runs in process i mod jobs. This process
    runs its own share while it forks the others (where `os.fork` exists)
    and reads theirs back from pipes; an exception raised in a child is
    raised here with its type and message, chained to the child's
    traceback, and no child outlives the call."""
    jobs = min(jobs, len(checks))
    if jobs <= 1 or not hasattr(os, "fork"):
        return [_run_check(c) for c in checks]
    children = {}  # pid -> the read end of its pipe
    try:
        for k in range(1, jobs):
            share = checks[k::jobs]
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(share, read, write)
            os.close(write)
            children[pid] = open(read, "rb")
        shares = [[_run_check(c) for c in checks[::jobs]]]
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            shares.append(_child_share(data, os.waitstatus_to_exitcode(status)))
    finally:
        if children:
            import signal

            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [shares[i % jobs][i // jobs] for i in range(len(checks))]


def _child(checks: list[tuple], read: int, write: int) -> None:
    """A forked check process: its units' items go to the pipe by
    `marshal`, or what it raised: the exception by `pickle` (None if it
    does not pickle), its class and message, and its formatted traceback.
    It leaves only through `os._exit`, so nothing of the parent's command
    runs again here."""
    code = 1
    try:
        os.close(read)
        try:
            payload = b"R" + marshal.dumps([_run_check(c) for c in checks])
        except Exception as exc:
            import pickle
            import traceback

            try:
                pickled = pickle.dumps(exc)
            except Exception:
                pickled = None
            name = f"{type(exc).__module__}.{type(exc).__qualname__}"
            sent = (pickled, name, str(exc), traceback.format_exc())
            payload = b"E" + marshal.dumps(sent)
        with open(write, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _child_share(data: bytes, code: int) -> list[list[dict]]:
    """The items a child sent, or what it raised, raised again from the
    child's traceback; an exception that cannot be rebuilt is a
    `RuntimeError` naming its class and message. A pipe that came back
    empty or cut short is an error naming its exit."""
    if code == 0 and data[:1] in (b"R", b"E"):
        try:
            sent = marshal.loads(data[1:])
        except (EOFError, ValueError):
            pass
        else:
            if data[:1] == b"R":
                return sent
            import pickle

            pickled, name, message, frames = sent
            try:
                exc = pickle.loads(pickled)  # fails on None too: it did not pickle
            except Exception:
                exc = RuntimeError(f"a check process raised {name}: {message}")
            raise exc from RuntimeError(f"in a check process:\n{frames}")
    how = f"signal {-code}" if code < 0 else f"exit status {code}"
    raise RuntimeError(
        f"a check process ended with {how} after sending {len(data)} bytes "
        "of its results"
    )


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
    _check_prime(args.p)
    if args.which == "u" and args.p != 2:
        raise ValueError("the kernel dimension is a characteristic-2 notion")
    query = f"{args.which} of {args.lam} at d={args.d}, p={args.p}"
    # An alternating dimension is the hook-content count: no construction
    # is loaded for it.
    bound = alternating_forecast(args.which, shape, args.d, args.p)
    alternating = bound is not None
    if not alternating:
        from . import quotients

        bound = quotients.dominant_rep_bound(shape, args.d)
    if bound > DIM_REP_BUDGET:
        raise ValueError(
            f"{query} may need {bound} steps (boxes, or snake terms, weights "
            f"with their boxes, and representatives), over the budget of "
            f"{DIM_REP_BUDGET}"
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
    if alternating:
        value = hook_content_dim(shape, args.d)
    elif args.which == "gtensor":
        value = quotients.module_dim(args.which, shape, args.d, args.p)
    else:
        value = quotients.u_lambda_dim(shape, args.d)
    if digits and value >= 10**digits:
        raise ValueError(too_long)
    if args.format == "json" or args.out:
        # an informational report item, as `suites._item` makes them
        item = {"check": "dim", "kind": args.which, "lam": args.lam, "d": args.d,
                "p": args.p, "expected": None, "got": value, "pass": True}
        return _emit_report(args, "dim", [item], started)
    print(value)
    return 0


def cmd_verify(args) -> int:
    started = time.monotonic()
    jobs = _resolve_jobs(args.jobs)
    # Loaded here, before `_run_checks` forks, so the check processes
    # inherit the suites and the modules they run instead of each
    # importing them again.
    from . import suites

    if args.n_max is None:
        args.n_max = 10 if args.suite == "d1" else suites.N_MAX_DEFAULT
    if args.n_max < 1:
        raise ValueError(f"--n-max must be positive, got {args.n_max}")
    names = list(suites.SUITE_UNITS) if args.suite == "all" else [args.suite]
    units: list[tuple] = []
    for name in names:
        cap = suites.N_MAX_CAPS.get(name, args.n_max)
        if args.n_max > cap:
            print(
                f"note: --n-max {args.n_max} is capped at {cap} for {name}",
                file=sys.stderr,
            )
        units += suites.SUITE_UNITS[name](min(args.n_max, cap))
    items = [item for unit_items in _run_checks(units, jobs) for item in unit_items]
    return _emit_report(args, f"verify --suite {args.suite}", items, started)


def cmd_table(args) -> int:
    import csv
    import io

    from . import suites

    if args.which == "table1":
        rows, ok = suites.render_table1(args.d)
    else:
        rows, ok = suites.render_table3()
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    text = buf.getvalue()
    if args.out:
        _write_out(args.out, text)
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
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
