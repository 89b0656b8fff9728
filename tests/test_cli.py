import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from dualweyl import cli
from dualweyl.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"
VERIFY_ALL_SHA256 = "4651521214fa13f502de04c267f2259a433e062f1682606ae85bfcef7231d4cf"
# `verify --suite thm2 --n-max 5 --no-timing --format json`, 55 items
VERIFY_THM2_PROBE_SHA256 = (
    "56b9d102dee31e1e31d4b5e1723b64f93c1505385bc96b5197f69ba7d5cdec14"
)


def child_env():
    """The environment for a child interpreter that imports the package
    from the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_u(capsys):
    code, out, _ = run(
        capsys, "dim", "--which", "u", "--lambda", "2,2,1", "--d", "4", "--p", "2"
    )
    assert code == 0 and out.strip() == "56"


def test_dim_nabla_and_gtensor(capsys):
    code, out, _ = run(
        capsys, "dim", "--which", "nabla", "--lambda", "2,2,1", "--d", "3", "--p", "2"
    )
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(
        capsys, "dim", "--which", "gtensor", "--lambda", "1,1,1", "--d", "2", "--p", "2"
    )
    assert code == 0 and out.strip() == "4"


@pytest.mark.parametrize(
    "lam, d, expected", [("7", 7, "1716"), ("8", 8, "6435"), ("100", 2, "101")]
)
def test_dim_nabla_one_row_answers_at_once(lam, d, expected):
    # The dual Weyl dimension is the hook-content count, with no
    # elimination and no partition of n enumerated (p(100) is about 2e8).
    proc = subprocess.run(
        [sys.executable, "-m", "dualweyl.cli", "dim", "--which", "nabla",
         "--lambda", lam, "--d", str(d), "--p", "3"],
        capture_output=True, text=True, env=child_env(), timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


def test_dim_refuses_work_over_the_budget(capsys):
    code, out, err = run(
        capsys, "dim", "--which", "gtensor", "--lambda", "15,15", "--d", "30", "--p", "2"
    )
    assert code == 2 and out == ""
    assert "budget" in err


def test_dim_refuses_a_tall_snake_template_at_once(capsys):
    # A snake on two columns of height 300 lists C(301, 150) terms, so the
    # forecast is past the budget before any block is built; two columns
    # of height 12 (a template of 1716 terms) stay under it.
    from dualweyl.partitions import parse_partition
    from dualweyl.quotients import dominant_rep_bound
    from dualweyl.partitions import DIM_REP_BUDGET

    started = time.perf_counter()
    code, out, err = run(
        capsys, "dim", "--which", "u", "--lambda", "2^300", "--d", "2"
    )
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "") and "budget" in err
    bound = dominant_rep_bound(parse_partition("2^12"), 2)
    assert 1716 < bound <= DIM_REP_BUDGET


def test_dim_refuses_a_long_column_at_once(capsys):
    # Each of the 25001 dominant weights of 1^50000 at d = 2 builds a block
    # whose enumeration places the 50000 boxes, so the forecast refuses it
    # before the hook-content count over 50001 letters is taken. A one-row
    # shape builds no block, and a long row still answers.
    from dualweyl.partitions import parse_partition
    from dualweyl.quotients import dominant_rep_bound
    from dualweyl.partitions import DIM_REP_BUDGET

    column = parse_partition("1^50000")
    for which in ("gtensor", "u"):
        # First the forecast alone: one that admits the query fails here
        # instead of running it for minutes.
        assert dominant_rep_bound(column, 2) > DIM_REP_BUDGET, which
        started = time.perf_counter()
        code, out, err = run(
            capsys, "dim", "--which", which, "--lambda", "1^50000", "--d", "2",
            "--p", "2",
        )
        assert time.perf_counter() - started < 1, which
        assert (code, out) == (2, "") and "budget" in err, which
    code, out, err = run(
        capsys, "dim", "--which", "gtensor", "--lambda", "10000", "--d", "2", "--p", "2"
    )
    assert (code, out.strip(), err) == (0, "10001", "")


def test_dim_refuses_an_answer_too_long_to_print(capsys):
    # The answer has more digits than the interpreter converts to text; the
    # error names the query, not the interpreter's limit.
    d = "1" + "0" * 1500
    for fmt in ("text", "json"):
        code, out, err = run(
            capsys, "dim", "--which", "nabla", "--lambda", "2,1", "--d", d,
            "--format", fmt,
        )
        assert (code, out) == (2, ""), fmt
        assert "digits" in err and "2,1" in err
        assert "set_int_max_str_digits" not in err


def test_dim_forecasts_an_answer_too_long_to_print(capsys):
    # A forecast of the digits refuses 33000 boxes at d = 10^21 before the
    # product of their contents is taken (seconds of work).
    started = time.perf_counter()
    code, out, err = run(
        capsys, "dim", "--which", "nabla", "--lambda", "33000",
        "--d", str(10**21), "--p", "3",
    )
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "") and "over 4300 digits" in err


def test_dim_checks_the_digits_exactly_near_the_limit(capsys):
    # Near the limit the forecast defers to the exact value: a one-row
    # dimension d(d+1)/2 of 4300 digits prints, one of 4301 is refused,
    # and a one-box answer of 4300 nines prints.
    d = 14 * 10**2149
    code, out, _ = run(capsys, "dim", "--which", "nabla", "--lambda", "2", "--d", str(d))
    assert code == 0 and len(out.strip()) == 4300
    d = 15 * 10**2149
    code, out, err = run(capsys, "dim", "--which", "nabla", "--lambda", "2", "--d", str(d))
    assert (code, out) == (2, "") and "over 4300 digits" in err
    d = 10**4300 - 1
    code, out, _ = run(capsys, "dim", "--which", "gtensor", "--lambda", "1", "--d", str(d))
    assert (code, out) == (0, f"{d}\n")


def test_dim_refuses_many_weights_at_once(capsys):
    # The partition count stops once it passes the budget: the 8 million
    # partitions of 10000 with at most 3 parts are enough, and the ones
    # with up to 10000 parts, a quadratic count, are not counted.
    from dualweyl.partitions import Partition
    from dualweyl.quotients import dominant_rep_bound
    from dualweyl.partitions import DIM_REP_BUDGET

    started = time.perf_counter()
    bound = dominant_rep_bound(Partition((10000,)), 10000)
    assert time.perf_counter() - started < 1
    assert bound > DIM_REP_BUDGET
    code, out, err = run(
        capsys, "dim", "--which", "gtensor", "--lambda", "10000", "--d", "10000",
        "--p", "2",
    )
    assert (code, out) == (2, "") and "budget" in err


def test_dim_nabla_is_the_hook_content_count(capsys):
    # An alternating dimension is one hook-content product over its
    # boxes, so a row of 10000 boxes answers at once.
    started = time.perf_counter()
    code, out, err = run(
        capsys, "dim", "--which", "nabla", "--lambda", "10000", "--d", "2", "--p", "3"
    )
    assert time.perf_counter() - started < 1
    assert (code, out, err) == (0, "10001\n", "")


def test_dim_refuses_too_many_parts_before_expanding_them(capsys):
    # The exponents are summed before any part is made, so a hundred
    # million parts are refused with exit 2, not a MemoryError.
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "dim", "--which", "nabla", "--lambda", "1^100000000", "--d", "2"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "") and "limit" in err
    assert peak < 4 * 2**20


def test_dim_budget_admits_the_documented_queries():
    # Every query of the benchmark's dim-queries workload and every `dim`
    # example of the README stays under the budget.
    from dualweyl.partitions import Partition, alternating_forecast, parse_partition
    from dualweyl.quotients import dominant_rep_bound
    from dualweyl.partitions import DIM_REP_BUDGET

    sys.path.insert(0, str(PERFBENCH))
    try:
        import run as perfbench_run
    finally:
        sys.path.remove(str(PERFBENCH))
    queries = [
        (which, Partition(shape), d, p)
        for which, shape, d, p in perfbench_run.DIM_QUERIES
    ]
    readme = (SRC.parent / "README.md").read_text()
    for line in readme.splitlines():
        if line.startswith("dualweyl dim "):
            args = line.split("#")[0].split()
            opts = dict(zip(args[2::2], args[3::2]))
            queries.append((opts["--which"], parse_partition(opts["--lambda"]),
                            int(opts["--d"]), int(opts["--p"])))
    assert len(queries) == 15
    for which, shape, d, p in queries:
        # `dim`'s dispatch: only a mod-2 skew query reaches the block forecast
        bound = alternating_forecast(which, shape, d, p)
        if bound is None:
            bound = dominant_rep_bound(shape, d)
        assert bound <= DIM_REP_BUDGET, (which, shape, d, p)


def test_readme_commands_run_as_written(capsys, monkeypatch, tmp_path):
    # Every command of the README's block exits 0, and a `dim` line prints
    # the value its comment gives. They run in a scratch directory, since
    # one writes table3.csv, and the pool is held to two workers.
    readme = (SRC.parent / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("dualweyl ")]
    assert [line.split()[1] for line in lines] == (
        ["dim"] * 3 + ["verify"] * 2 + ["table"] * 2
    )
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for line in lines:
        command, _, expected = line.partition("# ->")
        code, out, err = run(capsys, *command.split()[1:])
        assert code == 0, (line, err)
        if expected:
            assert out.strip() == expected.strip(), line
    assert (tmp_path / "table3.csv").is_file()


def test_dim_json_report(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "dim", "--which", "u", "--lambda", "2,2,1", "--d", "4",
        "--format", "json", "--no-timing", "--out", str(out_file),
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "dualweyl-report/1"
    assert report["items"][0]["got"] == 56
    assert report["failures"] == []
    assert "timing_ms" not in report
    assert out_file.read_text() == out


def test_dim_usage_errors(capsys):
    code, _, err = run(capsys, "dim", "--which", "u", "--lambda", "1,2", "--d", "2")
    assert code == 2 and "error" in err
    # The prime is checked before the kind: 4 is no prime, and 3 is a prime
    # away from characteristic 2.
    for p, message in (("4", "p must be prime, got 4"),
                       ("3", "the kernel dimension is a characteristic-2 notion")):
        code, _, err = run(
            capsys, "dim", "--which", "u", "--lambda", "2,1", "--d", "2", "--p", p
        )
        assert code == 2 and message in err, p
    for p in ("4", "1"):
        code, _, err = run(
            capsys, "dim", "--which", "nabla", "--lambda", "2,1", "--d", "2", "--p", p
        )
        assert code == 2 and "prime" in err, p
    code, _, _ = run(capsys, "bogus")
    assert code == 2


def test_every_odd_prime_gives_the_odd_answer(capsys):
    # p only selects the mod-2 kind or the odd kind, so every odd prime is
    # accepted and answers as p = 3 does; there is no override flag.
    answers = set()
    for p in ("3", "7", "11"):
        code, out, _ = run(
            capsys, "dim", "--which", "gtensor", "--lambda", "2,1", "--d", "3", "--p", p
        )
        assert code == 0, p
        answers.add(out.strip())
    assert answers == {"8"}
    code, _, _ = run(
        capsys,
        "dim", "--which", "nabla", "--lambda", "2,1", "--d", "2", "--p", "7",
        "--any-prime",
    )
    assert code == 2


def test_dim_answers_a_huge_prime_at_once(capsys):
    # A p near 10^18 is tested by Miller-Rabin, not by trial division,
    # which would take hours.
    from dualweyl.partitions import is_prime

    started = time.perf_counter()
    assert is_prime(1000000000000000003)
    assert time.perf_counter() - started < 1
    code, out, err = run(
        capsys, "dim", "--which", "nabla", "--lambda", "2,1", "--d", "2",
        "--p", "1000000000000000003",
    )
    assert (code, out, err) == (0, "2\n", "")
    code, out, err = run(
        capsys, "dim", "--which", "nabla", "--lambda", "2,1", "--d", "2",
        "--p", str(10**25),
    )
    assert (code, out) == (2, "") and "below" in err


def test_dim_refuses_a_huge_shape_at_once(capsys):
    # A million boxes are over the budget on their own; the hook-content
    # product is not evaluated.
    from dualweyl.partitions import alternating_forecast, parse_partition
    from dualweyl.partitions import DIM_REP_BUDGET

    for lam in ("1000000", "1^1000000"):
        shape = parse_partition(lam)
        started = time.perf_counter()
        assert alternating_forecast("nabla", shape, 2, 2) > DIM_REP_BUDGET
        assert time.perf_counter() - started < 2, lam
        code, out, err = run(capsys, "dim", "--which", "nabla", "--lambda", lam, "--d", "2")
        assert (code, out) == (2, "") and "budget" in err, lam
    # A mod-2 skew representative holds every box, so a shape of 10^11
    # boxes is refused before any count of its weights is allocated.
    code, out, err = run(
        capsys, "dim", "--which", "gtensor", "--lambda", "100000000000", "--d", "1"
    )
    assert (code, out) == (2, "") and "budget" in err


def test_dim_refuses_a_non_positive_d(capsys):
    # An alternating query is answered without the constructions, after
    # the same check of d.
    for which in ("nabla", "gtensor"):
        for d in ("0", "-2"):
            code, out, err = run(
                capsys, "dim", "--which", which, "--lambda", "2,1", "--d", d,
                "--p", "3",
            )
            assert (code, out) == (2, "") and "d must be positive" in err, (which, d)


def test_dim_answers_a_long_row_or_column(capsys):
    # The enumerators backtrack without recursion, so a row of 600 boxes
    # or a column of 1200 is no deeper than the interpreter allows.
    code, out, err = run(
        capsys, "dim", "--which", "nabla", "--lambda", "600", "--d", "1", "--p", "3"
    )
    assert (code, out.strip(), err) == (0, "1", "")
    code, out, err = run(
        capsys, "dim", "--which", "nabla", "--lambda", "1^1200", "--d", "1"
    )
    assert (code, out.strip(), err) == (0, "0", "")


def test_unreadable_paths_exit_2(capsys, tmp_path):
    for argv in (
        ["dim", "--which", "u", "--lambda", "2,2,1", "--d", "4",
         "--out", str(tmp_path / "no-such-dir" / "x.json")],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "Traceback" not in err, argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_an_out_path_that_fills_up_exits_2(capsys):
    # /dev/full opens, and every write to it fails with ENOSPC.
    for argv in (
        ["dim", "--which", "u", "--lambda", "2,2,1", "--d", "4"],
        ["table", "--which", "table1"],
    ):
        code, out, err = run(capsys, *argv, "--out", "/dev/full")
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: cannot write /dev/full"), argv


def test_other_os_errors_are_not_reported_as_usage_errors(capsys, monkeypatch):
    # Only the errors of a path the user gave exit 2; an operating-system
    # failure of the program itself, such as a closed pipe, propagates.
    def broken(shape, d):
        raise BrokenPipeError("closed")

    from dualweyl import quotients

    monkeypatch.setattr(quotients, "u_lambda_dim", broken)
    with pytest.raises(BrokenPipeError):
        main(["dim", "--which", "u", "--lambda", "2,1", "--d", "2"])


def test_verify_example61(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "example61")
    assert code == 0
    assert "2/2 checks passed" in out


def test_verify_thm2_small_json(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "thm2", "--n-max", "4",
        "--format", "json", "--no-timing", "--jobs", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    checks = {item["check"] for item in report["items"]}
    assert "predicted_iso_matches_construction" in checks
    assert "non_iso_set" in checks


def test_verify_thm2_runs_to_nine_boxes(capsys):
    # thm2 reads only mod-2 skew dominant blocks, so its cap is 9 boxes,
    # not the 8 of thm1's full builds.
    code, out, err = run(
        capsys,
        "verify", "--suite", "thm2", "--n-max", "9",
        "--format", "json", "--no-timing", "--jobs", "2",
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert len(report["items"]) == 289 and report["failures"] == []


def test_verify_usage_errors(capsys):
    code, out, err = run(capsys, "verify", "--suite", "d1", "--n-max", "0")
    assert code == 2 and out == "" and "--n-max" in err
    code, out, err = run(capsys, "verify", "--suite", "d1", "--jobs", "-1")
    assert code == 2 and out == "" and "--jobs" in err


def test_verify_reports_the_n_max_cap(capsys, monkeypatch):
    # The note names the cap, and the units reach it and stop there. The
    # pool is stubbed: thm1 at 8 boxes takes seconds, and
    # `test_thm1_passes_at_seven_boxes` runs its checks.
    from dualweyl.partitions import parse_partition

    asked = []
    monkeypatch.setattr(cli, "_run_checks", lambda units, jobs: asked.extend(units) or [])
    code, _, err = run(
        capsys, "verify", "--suite", "thm1", "--n-max", "9", "--jobs", "1"
    )
    assert code == 0 and "note: --n-max 9 is capped at 8 for thm1" in err
    assert max(parse_partition(lam).n for _, lam in asked) == 8
    monkeypatch.undo()
    code, _, err = run(
        capsys, "verify", "--suite", "thm2", "--n-max", "3", "--jobs", "1"
    )
    assert code == 0 and err == ""


def test_verify_d1_n_max_is_capped():
    # p(80) is about 1.6e7 partitions; the cap keeps the sweep to seconds.
    proc = subprocess.run(
        [sys.executable, "-m", "dualweyl.cli", "verify", "--suite", "d1",
         "--n-max", "80", "--jobs", "1", "--no-timing"],
        capture_output=True, text=True, env=child_env(), timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert "note: --n-max 80 is capped at 15 for d1" in proc.stderr
    assert proc.stdout.strip().endswith("683/683 checks passed")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the check processes the CLI forks, counted around the
    real `os.fork` (a child's own count is its copy, and is lost)."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def no_child_left():
    """Whether every child of this process has been reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_verify_all_report_is_pinned():
    # The report bytes of the full sweep are fixed; any change to a
    # construction that alters a dimension, verdict or table shows here.
    proc = subprocess.run(
        [sys.executable, "-m", "dualweyl.cli", "verify", "--suite", "all",
         "--jobs", "2", "--no-timing", "--format", "json"],
        capture_output=True, env=child_env(), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["items"]) == 650
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_ALL_SHA256


def test_verify_thm2_probe_is_pinned(capsys, monkeypatch, forks):
    # The thm2 slice the benchmark times is fixed too; a reshuffle of the
    # thm2 units or their items shows here. Three jobs are this process
    # and two children, each with a fixed share of the units.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for jobs in (1, 2, 3):
        before = len(forks)
        code, out, _ = run(
            capsys,
            "verify", "--suite", "thm2", "--n-max", "5", "--jobs", str(jobs),
            "--no-timing", "--format", "json",
        )
        assert code == 0 and len(forks) - before == jobs - 1
        assert len(json.loads(out)["items"]) == 55
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_THM2_PROBE_SHA256
    assert no_child_left()


def test_thm1_builds_each_shape_once_per_prime(capsys):
    # A smaller d reads the d = 4 build: 11 shapes of at most 4 boxes, at
    # p = 3 and 5, make 22 builds, not one per (shape, d, p).
    from dualweyl import quotients

    quotients._build.cache_clear()
    code, out, _ = run(capsys, "verify", "--suite", "thm1", "--n-max", "4",
                       "--jobs", "1")
    assert code == 0 and out.strip().endswith("176/176 checks passed")
    assert quotients._build.cache_info().misses == 22


def test_verify_d1_parallel_matches_serial(capsys):
    code, serial, _ = run(
        capsys,
        "verify", "--suite", "d1", "--n-max", "5",
        "--format", "json", "--no-timing", "--jobs", "1",
    )
    assert code == 0
    code, parallel, _ = run(
        capsys,
        "verify", "--suite", "d1", "--n-max", "5",
        "--format", "json", "--no-timing", "--jobs", "2",
    )
    assert code == 0
    assert serial == parallel


def test_verify_all_parallel_matches_serial(capsys):
    # Every item comes from a check unit, so the pool changes nothing in
    # the report, the multi-item units included.
    reports = []
    for jobs in ("1", "2"):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "all", "--format", "json", "--no-timing",
            "--jobs", jobs,
        )
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]
    assert hashlib.sha256(reports[0].encode()).hexdigest() == VERIFY_ALL_SHA256


def test_verify_tables_reports_failed_data_gates(capsys, monkeypatch):
    # Each fault breaks the checks of one derived row: a weight space of a
    # simple module read too large (a negative multiplicity, at degree 2
    # and at degree 5) or a Kostka number read as 0 (no 1 on the
    # diagonal). The sweep runs in this process, so the patch reaches it.
    from dualweyl import decomposition as dc
    from dualweyl.partitions import Partition as P
    from helpers import patch_values

    faults = {
        "degree 2": ("_simple_weight_dim", (P((2,)), P((1, 1))), 2),
        "degree 5": ("_simple_weight_dim", (P((3, 2)), P((3, 1, 1))), 2),
        "diagonal": ("kostka_number", (P((4, 1)), P((4, 1))), 0),
    }
    for name, (attr, key, value) in faults.items():
        patch_values(monkeypatch, dc, attr, {key: value})
        dc.decomposition_rows.cache_clear()
        try:
            code, out, _ = run(
                capsys,
                "verify", "--suite", "tables",
                "--format", "json", "--no-timing", "--jobs", "1",
            )
        finally:
            monkeypatch.undo()
            dc.decomposition_rows.cache_clear()
        assert code == 1, name
        items = json.loads(out)["items"]
        gates = [it for it in items if it["check"] == "decomposition_data_gates"]
        assert len(gates) == 1 and gates[0]["pass"] is False, name
        assert gates[0]["got"] != "valid", name
        assert not any(it["check"] == "kernel_composition_factors" for it in items)


def test_pool_is_clamped_to_the_check_count(forks):
    # d1 to 2 boxes is three units: --jobs 8 runs them in three processes,
    # this one and two children.
    from dualweyl import cli, suites

    checks = suites.SUITE_UNITS["d1"](2)
    assert cli._run_checks(checks, 8) == [cli._run_check(c) for c in checks]
    assert len(forks) == len(checks) - 1 == 2
    assert no_child_left()


def test_pool_is_capped_at_the_cores(capsys, monkeypatch, forks):
    # --jobs beyond the cores forks no more processes than there are
    # cores, this one included, with a note; the report is the serial one.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ["verify", "--suite", "thm2", "--n-max", "3", "--format", "json",
            "--no-timing", "--jobs"]
    code, serial, _ = run(capsys, *argv, "1")
    assert code == 0 and len(forks) == 0
    code, out, err = run(capsys, *argv, "1000")
    assert code == 0 and out == serial and len(forks) == 2
    assert "note: --jobs 1000 is capped at 3 cores" in err
    code, out, err = run(capsys, *argv, "2")
    assert code == 0 and out == serial and len(forks) == 3 and err == ""
    assert no_child_left()


def _raise_in(where: str, parent: int, unit: int) -> list[dict]:
    """A check unit that raises in the parent or in a child only."""
    if (os.getpid() == parent) == (where == "parent"):
        raise ValueError(f"unit {unit} failed in the {where}")
    return [{"check": "probe", "unit": unit}]


class _TwoArgs(Exception):
    """An exception that pickle cannot rebuild: its args are one message,
    but its class takes two arguments."""

    def __init__(self, unit, where):
        super().__init__(f"unit {unit} failed in the {where}")


def _raise_two_args_in_child(parent: int, unit: int) -> list[dict]:
    if os.getpid() != parent:
        raise _TwoArgs(unit, "child")
    return [{"check": "probe", "unit": unit}]


def test_a_childs_exception_reaches_the_parent(capsys, monkeypatch, forks):
    # Units 1 and 3 run in the child; its ValueError is raised here with
    # its type and message, chained to the child's traceback, which names
    # the handler's frame, and through `main` it is exit 2.
    from dualweyl import suites

    checks = [(_raise_in, "child", os.getpid(), unit) for unit in range(4)]
    with pytest.raises(ValueError, match="^unit 1 failed in the child$") as info:
        cli._run_checks(checks, 2)
    frames = str(info.value.__cause__)
    assert "in _raise_in\n" in frames and "ValueError: unit 1 failed" in frames
    assert len(forks) == 1 and no_child_left()
    # An exception class that cannot be rebuilt from its args is a
    # RuntimeError naming the class and its message, with the same cause.
    two = [(_raise_two_args_in_child, os.getpid(), unit) for unit in range(2)]
    name = re.escape(f"{_TwoArgs.__module__}._TwoArgs")
    with pytest.raises(
        RuntimeError, match=f"^a check process raised {name}: unit 1 failed in the child$"
    ) as info:
        cli._run_checks(two, 2)
    assert "in _raise_two_args_in_child\n" in str(info.value.__cause__)
    assert len(forks) == 2 and no_child_left()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setitem(suites.SUITE_UNITS, "d1", lambda n_max: checks)
    code, out, err = run(capsys, "verify", "--suite", "d1", "--jobs", "2")
    assert (code, out) == (2, "")
    assert err == "error: unit 1 failed in the child\n"
    assert len(forks) == 3 and no_child_left()


def _sleep_in_child(parent: int) -> list[dict]:
    if os.getpid() != parent:
        time.sleep(60)
    return []


def test_a_raise_in_the_parents_share_ends_the_children(forks):
    # Unit 0 is this process's and raises while the child sleeps on unit
    # 1: the error propagates at once and the child is killed and reaped.
    checks = [(_raise_in, "parent", os.getpid(), 0),
              (_sleep_in_child, os.getpid())]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^unit 0 failed in the parent$"):
        cli._run_checks(checks, 2)
    assert time.perf_counter() - start < 30
    assert len(forks) == 1 and no_child_left()


def _kill_the_child(parent: int) -> list[dict]:
    import signal

    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return [{"check": "probe"}]


def test_a_killed_child_is_an_error_not_a_partial_report(capsys, forks):
    # A child that dies without sending its results is an error naming
    # how it ended; no report is printed and nothing hangs.
    checks = [(_kill_the_child, os.getpid())] * 3
    with pytest.raises(RuntimeError, match="ended with signal 9 after sending 0 bytes"):
        cli._run_checks(checks, 3)
    assert len(forks) == 2 and no_child_left()
    assert capsys.readouterr().out == ""


def test_thm1_passes_at_seven_boxes():
    # thm1's cap is 8 boxes; every shape of 7 passes every item.
    from dualweyl import suites
    from dualweyl.partitions import format_partition, partitions_of

    items = [
        item
        for shape in partitions_of(7)
        for item in suites._check_thm1(format_partition(shape))
    ]
    assert len(items) == 15 * 16
    assert [item for item in items if not item["pass"]] == []


def test_thm1_check_has_an_independent_oracle(monkeypatch):
    # The thm1 item judges the construction against closed forms, not
    # against a second build: with every builder returning the p = 2 skew
    # build, (1,1) at d = 2 has dimension 3 where the dual Weyl module has 1.
    from dualweyl import quotients, suites
    from dualweyl.quotients import build_gtensor_specht

    def mod2_build(shape, d, p):
        return build_gtensor_specht(shape, d, 2)

    monkeypatch.setattr(quotients, "build_gtensor_specht", mod2_build)
    monkeypatch.setattr(quotients, "build_dual_weyl", mod2_build)
    [item] = [
        it for it in suites._check_thm1("1,1")
        if (it["check"], it["d"], it["p"]) == ("gtensor_matches_weyl", 2, 3)
    ]
    assert (item["expected"], item["got"], item["pass"]) == (1, 3, False)


def test_cli_import_leaves_out_numpy_and_the_pool():
    # numpy is not a dependency, and a `dim` call never needs the pool;
    # `verify` forks its check processes itself, with no executor.
    code = (
        "import sys, dualweyl.cli as cli; "
        "unused = ('numpy', 'concurrent.futures', 'multiprocessing'); "
        "print([m for m in unused if m in sys.modules]); "
        "cli.main(['verify', '--suite', 'd1', '--n-max', '3', '--jobs', '2']); "
        "print([m for m in unused if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]"
    assert lines[-2] == "6/6 checks passed"


def test_dim_imports_only_what_it_runs():
    # A `dim` process compiles only the modules a query runs: the reports'
    # formats, the suites' modules and `dataclasses` (with the `inspect`
    # it pulls in) stay unloaded, after the import and after a query.
    code = (
        "import sys, dualweyl.cli as cli; "
        "unused = ('dataclasses', 'inspect', 'json', 'csv', "
        "'dualweyl.predictions', 'dualweyl.decomposition'); "
        "print([m for m in unused if m in sys.modules]); "
        "cli.main(['dim', '--which', 'u', '--lambda', '2,2,1', '--d', '4']); "
        "cli.main(['dim', '--which', 'gtensor', '--lambda', '4,2', '--d', '5', '--p', '3']); "
        "print([m for m in unused if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "56", "420", "[]", ""]


def test_each_command_imports_only_what_it_runs():
    # `import dualweyl.cli` loads no construction and no suite; an
    # alternating `dim` query is the hook-content count and loads no
    # construction either, nor the tabloids, tableaux, records or GF(p)
    # modules: its kind, forecast and prime check live in `partitions`; a
    # mod-2 skew query loads `quotients` but not the suites.
    script = """
import sys
import dualweyl.cli as cli

def loaded(*names):
    return [m for m in names if "dualweyl." + m in sys.modules]

print(loaded("quotients", "garnir", "tableaux", "suites", "predictions",
             "decomposition"))
cli.main(["dim", "--which", "nabla", "--lambda", "2,2,1", "--d", "3"])
cli.main(["dim", "--which", "gtensor", "--lambda", "4,2", "--d", "5", "--p", "3"])
print(loaded("quotients", "garnir"))
print(loaded("tabloids", "tableaux", "records", "gfp"))
cli.main(["dim", "--which", "u", "--lambda", "2,2,1", "--d", "4"])
print(loaded("quotients", "suites"))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "[]", "3", "420", "[]", "[]", "56", "['quotients']", ""
    ]


def test_verify_under_python_m_loads_the_cli_once():
    # `python -m dualweyl.cli` runs the file as __main__; the suites must
    # not import `dualweyl.cli`, which would compile it a second time.
    script = """
import runpy, sys
sys.argv = ["dualweyl", "verify", "--suite", "example61", "--jobs", "1",
            "--no-timing", "--format", "json"]
try:
    runpy.run_module("dualweyl.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, "dualweyl.cli" in sys.modules, file=sys.stderr)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=child_env(), timeout=60,
    )
    assert proc.stderr.split() == ["0", "False"], proc.stderr
    assert len(json.loads(proc.stdout)["items"]) == 2


def test_suite_choices_are_the_suites_units():
    # The parser names the suites without loading them.
    import argparse

    from dualweyl import suites

    [sub] = [
        a for a in cli._build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    [suite] = [a for a in sub.choices["verify"]._actions if a.dest == "suite"]
    assert tuple(suite.choices) == (*suites.SUITE_UNITS, "all")


def test_checks_hold_under_optimization():
    # `python -O` drops assert statements: the README example still
    # answers, and a built module still refuses an assignment.
    code = (
        "import sys; from dualweyl import cli; "
        "from dualweyl.partitions import Partition; "
        "from dualweyl.quotients import build_dual_weyl; "
        "from dualweyl.records import FrozenRecordError; "
        "assert False, 'asserts run'; "
        "cli.main(['dim', '--which', 'u', '--lambda', '2,2,1', '--d', '4', '--p', '2']); "
        "module = build_dual_weyl(Partition((2, 1)), 3, 3)\n"
        "try:\n    module.p = 5\nexcept FrozenRecordError:\n    print('frozen')"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["56", "frozen"]


def test_benchmark_tracer_still_attaches(tmp_path):
    # The benchmark's tracer hooks package functions by module and name,
    # and its module-ops client imports package names; a rename or move
    # that breaks either fails here, not only when the benchmark runs.
    code = (
        "import sys; from pathlib import Path; "
        f"sys.path.insert(0, {str(PERFBENCH)!r}); "
        "import modops, tracer; "
        f"tracer.install(Path({str(tmp_path)!r})); "
        "from dualweyl import cli; "
        "sys.exit(cli.main(['dim', '--which', 'u', '--lambda', '2,2,1', '--d', '4']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "56"


def test_a_module_ops_job_runs_untraced_and_traced(tmp_path):
    # One seeded job of the benchmark's module-ops workload, each time in
    # a fresh interpreter: once as it is and once under `tracer.install`.
    # Every answer checks out, and the planted wrong answer is caught.
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run as perfbench_run
    finally:
        sys.path.remove(str(PERFBENCH))
    job = perfbench_run.modops_job(random.Random(1))
    for trace_dir in (None, tmp_path):
        result = perfbench_run.modops_worker(job, trace_dir)
        assert result["failed"] == [], trace_dir
        assert result["canary_caught"], trace_dir
        assert len(result["latencies"]) == len(job["ops"]), trace_dir
    assert list(tmp_path.glob("*.json"))


def test_the_tracer_sees_the_suites_calls(tmp_path):
    # The suites call the package through module attributes, which the
    # tracer rewrites. They are loaded here before the tracer goes in, so
    # a name the suites bound at import would keep the untraced function,
    # and the per-layer numbers would read 0.
    script = f"""
import sys
from pathlib import Path
sys.path.insert(0, {str(PERFBENCH)!r})
import dualweyl.suites
import tracer
tr = tracer.install(Path({str(tmp_path)!r}))
from dualweyl import cli
code = cli.main(["verify", "--suite", "thm2", "--n-max", "4", "--jobs", "1",
                 "--no-timing", "--format", "json"])
tr.dump_own()
sys.exit(code)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    from dualweyl import suites

    stats = tracer.merge(sorted(tmp_path.glob("*.json")))["stats"]
    checks = [it["check"] for it in json.loads(proc.stdout)["items"]]
    # A shape's unit asks `predict_iso` and `supplementary_rank_gain`, a
    # list unit `non_iso_shapes`; each construction item is one
    # `verify_iso` call of a handler (`non_iso_shapes` makes more).
    assert stats["predictions.sweep"][0] == (
        2 * checks.count("supplementary_rank_gain") + checks.count("non_iso_set")
    )
    assert stats["gfp.probe"][0] >= checks.count("predicted_iso_matches_construction") > 0
    assert stats["cli.check"][0] == len(suites.SUITE_UNITS["thm2"](4))


def test_verify_all_runs_one_pool(tmp_path):
    # The whole sweep is one list of check units in one pool: the tracer
    # sees one `_run_checks` call and one `_run_check` call per unit.
    script = f"""
import sys
from pathlib import Path
sys.path.insert(0, {str(PERFBENCH)!r})
import tracer
tr = tracer.install(Path({str(tmp_path)!r}))
from dualweyl import cli
traced, units = cli._run_checks, []

def counting(checks, jobs):
    units.extend(checks)
    return traced(checks, jobs)

cli._run_checks = counting
code = cli.main(["verify", "--suite", "all", "--jobs", "2", "--no-timing",
                 "--format", "json"])
tr.dump_own()
print(len(units), file=sys.stderr)
sys.exit(code)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=child_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    units = int(proc.stderr.split()[-1])
    # one unit per shape of thm1 (29) and of thm2 (29, and the 2
    # non-isomorphism lists), of d1 (29); one per hook (25), 20 tables and
    # one example61 unit
    assert units == 29 + 31 + 29 + 25 + 20 + 1
    assert len(json.loads(proc.stdout)["items"]) == 650
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    stats = tracer.merge(sorted(tmp_path.glob("*.json")))["stats"]
    assert stats["cli.pool"][0] == 1
    assert stats["cli.check"][0] == units


def test_traced_parallel_sweeps_count_the_same_work(tmp_path):
    # Each check process runs a fixed share of the units, so its caches
    # fill the same way every time: two traced sweeps at --jobs 2 book
    # the same layer counts, merged over the processes.
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    counted = []
    for run_dir in (tmp_path / "first", tmp_path / "second"):
        run_dir.mkdir()
        script = f"""
import sys
from pathlib import Path
sys.path.insert(0, {str(PERFBENCH)!r})
import tracer
tr = tracer.install(Path({str(run_dir)!r}))
from dualweyl import cli
code = cli.main(["verify", "--suite", "all", "--n-max", "4", "--jobs", "2",
                 "--no-timing", "--format", "json"])
tr.dump_own()
sys.exit(code)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=child_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        counts = tracer.merge(sorted(run_dir.glob("*.json")))["counts"]
        counted.append([counts[name] for name in
                        ("tableaux.enumerated", "quotients.blocks", "cli.checks")])
    assert counted[0] == counted[1]
    assert min(counted[0]) > 0


def test_report_is_deterministic(capsys):
    args = (
        "verify", "--suite", "hooks-d2",
        "--format", "json", "--no-timing", "--jobs", "1",
    )
    code, first, _ = run(capsys, *args)
    code2, second, _ = run(capsys, *args)
    assert code == code2 == 0
    assert first == second


def test_table3_reports_a_failed_derivation(capsys, monkeypatch):
    # A derived row that fails its checks is a golden mismatch, as a
    # drifted count is, not a traceback.
    from dualweyl import decomposition as dc
    from dualweyl.partitions import InvariantError

    def broken(n):
        raise InvariantError(f"row of degree {n} fails its checks")

    monkeypatch.setattr(dc, "decomposition_rows", broken)
    code, out, err = run(capsys, "table", "--which", "table3")
    assert code == 1
    assert out == "lambda,mu,multiplicity\n"
    assert "golden mismatch" in err


def test_table1_csv(capsys):
    code, out, _ = run(capsys, "table", "--which", "table1", "--d", "5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["dominant_weight", "count"]
    assert rows[1] == ["2,1,1,1", "20"]
    assert rows[6] == ["5", "5"]
    assert "\r" not in out


@pytest.mark.parametrize("d", [40, 10**6])
def test_table1_at_a_large_alphabet(capsys, d):
    # Counted from the dominant weights, with orbit sizes as falling
    # factorials, so neither a skew basis nor d! is computed.
    code, out, err = run(capsys, "table", "--which", "table1", "--d", str(d))
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["2,1,1,1", str(4 * comb(d, 4))]
    assert rows[6] == ["5", str(d)]


def test_table_refuses_report_options(capsys):
    # table writes CSV only: the JSON report options belong to dim and verify.
    for extra in (("--format", "json"), ("--no-timing",)):
        code, out, _ = run(capsys, "table", "--which", "table1", "--d", "5", *extra)
        assert code == 2 and out == "", extra


def test_table3_matches_golden(capsys, tmp_path):
    out_file = tmp_path / "table3.csv"
    code, _, _ = run(capsys, "table", "--which", "table3", "--out", str(out_file))
    assert code == 0
    from importlib import resources

    golden = resources.files("dualweyl").joinpath("data/table3.csv").read_text()
    assert out_file.read_text() == golden


def test_console_script_entry_point():
    # The `[project.scripts]` target of pyproject.toml, called as the
    # installed script calls it, and the script itself when it is on PATH.
    import re
    import shutil

    pyproject = (SRC.parent / "pyproject.toml").read_text()
    target = re.search(
        r'^\[project\.scripts\]\ndualweyl = "([\w.]+):(\w+)"$', pyproject, re.M
    )
    assert target, "no dualweyl script in pyproject.toml"
    argv = ["dim", "--which", "nabla", "--lambda", "2,1", "--d", "2"]
    script = (
        "import importlib, sys; "
        f"sys.argv = ['dualweyl', *{argv!r}]; "
        f"sys.exit(importlib.import_module({target[1]!r}).{target[2]}())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=child_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "2\n"), proc.stderr
    exe = shutil.which("dualweyl")
    if exe is not None:
        proc = subprocess.run([exe, *argv], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == "2"
