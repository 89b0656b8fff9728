import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from dualweyl import cli
from dualweyl.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"
VERIFY_ALL_SHA256 = "4651521214fa13f502de04c267f2259a433e062f1682606ae85bfcef7231d4cf"


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
    # At odd p the dual Weyl dimension is a count of semistandard tableaux
    # in the dominant blocks, with no elimination; and only the partitions
    # of n with at most d parts are enumerated (p(100) is about 2e8).
    proc = subprocess.run(
        [sys.executable, "-m", "dualweyl.cli", "dim", "--which", "nabla",
         "--lambda", lam, "--d", str(d), "--p", "3"],
        capture_output=True, text=True, env=child_env(), timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


def test_dim_refuses_work_over_the_budget(capsys):
    code, out, err = run(
        capsys, "dim", "--which", "nabla", "--lambda", "15,15", "--d", "30", "--p", "3"
    )
    assert code == 2 and out == ""
    assert "budget" in err


def test_dim_budget_admits_the_documented_queries():
    # Every query of the benchmark's dim-queries workload and every `dim`
    # example of the README stays under the budget.
    from dualweyl import cli
    from dualweyl.partitions import Partition, parse_partition
    from dualweyl.quotients import dominant_rep_bound

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
    for query in queries:
        assert dominant_rep_bound(*query) <= cli.DIM_REP_BUDGET, query


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
    code, _, _ = run(capsys, "dim", "--which", "u", "--lambda", "2,1", "--d", "2", "--p", "3")
    assert code == 2
    code, _, _ = run(capsys, "dim", "--which", "nabla", "--lambda", "2,1", "--d", "2", "--p", "7")
    assert code == 2
    code, _, _ = run(capsys, "bogus")
    assert code == 2


def test_any_prime_override(capsys):
    code, out, _ = run(
        capsys,
        "dim", "--which", "nabla", "--lambda", "2,1", "--d", "2", "--p", "7",
        "--any-prime",
    )
    assert code == 0 and out.strip() == "2"


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
    missing = str(tmp_path / "missing.txt")
    for argv in (
        ["verify", "--suite", "tables", "--jobs", "1", "--data", missing],
        ["verify", "--suite", "tables", "--jobs", "1", "--data", str(tmp_path)],
        ["table", "--which", "table3", "--data", missing],
        ["dim", "--which", "u", "--lambda", "2,2,1", "--d", "4",
         "--out", str(tmp_path / "no-such-dir" / "x.json")],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_other_os_errors_are_not_reported_as_usage_errors(capsys, monkeypatch):
    # Only the errors of a path the user gave exit 2; an operating-system
    # failure of the program itself, such as a closed pipe, propagates.
    def broken(shape, d):
        raise BrokenPipeError("closed")

    monkeypatch.setattr(cli, "u_lambda_dim", broken)
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


def test_verify_usage_errors(capsys):
    code, out, err = run(capsys, "verify", "--suite", "d1", "--n-max", "0")
    assert code == 2 and out == "" and "--n-max" in err
    code, out, err = run(capsys, "verify", "--suite", "d1", "--jobs", "-1")
    assert code == 2 and out == "" and "--jobs" in err


def test_verify_reports_the_n_max_cap(capsys):
    code, _, err = run(
        capsys, "verify", "--suite", "thm2", "--n-max", "7", "--jobs", "1"
    )
    assert code == 0 and "capped at 6" in err
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


def test_verify_tables_reports_failed_data_gates(capsys, tmp_path):
    bad = tmp_path / "broken.txt"
    bad.write_text("2; 1,1:1\n1,1; 1,1:1\n")
    code, out, _ = run(
        capsys,
        "verify", "--suite", "tables", "--data", str(bad),
        "--format", "json", "--no-timing", "--jobs", "2",
    )
    assert code == 1
    items = json.loads(out)["items"]
    gates = [it for it in items if it["check"] == "decomposition_data_gates"]
    assert len(gates) == 1 and gates[0]["pass"] is False
    assert gates[0]["got"] != "valid"
    assert not any(it["check"] == "kernel_composition_factors" for it in items)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool the CLI opens; the pools run
    their checks inline, so no process starts."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_pool_is_clamped_to_the_check_count(pool_sizes):
    from dualweyl import cli

    checks = cli._suite_d1_checks(2)
    assert cli._run_checks(checks, 8) == [cli._run_check(c) for c in checks]
    assert pool_sizes == [len(checks)]


def test_pool_is_capped_at_the_cores(capsys, monkeypatch, pool_sizes):
    # --jobs beyond the cores forks no more interpreters than there are
    # cores, with a note; the report is the serial one.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ["verify", "--suite", "thm2", "--n-max", "3", "--format", "json",
            "--no-timing", "--jobs"]
    code, serial, _ = run(capsys, *argv, "1")
    assert code == 0 and pool_sizes == []
    code, out, err = run(capsys, *argv, "1000")
    assert code == 0 and out == serial and pool_sizes == [3]
    assert "note: --jobs 1000 is capped at 3 cores" in err
    code, out, err = run(capsys, *argv, "2")
    assert code == 0 and out == serial and pool_sizes == [3, 2] and err == ""


def test_thm1_check_has_an_independent_oracle(monkeypatch):
    # The thm1 item judges the construction against closed forms, not
    # against a second build: with every builder returning the p = 2 skew
    # build, (1,1) at d = 2 has dimension 3 where the dual Weyl module has 1.
    from dualweyl import cli
    from dualweyl.quotients import build_gtensor_specht

    def mod2_build(shape, d, p):
        return build_gtensor_specht(shape, d, 2)

    monkeypatch.setattr(cli, "build_gtensor_specht", mod2_build)
    monkeypatch.setattr(cli, "build_dual_weyl", mod2_build, raising=False)
    [item] = cli._check_dims_match_weyl("1,1", 2, 3)
    assert (item["expected"], item["got"], item["pass"]) == (1, 3, False)


def test_cli_import_leaves_out_numpy_and_the_pool():
    # numpy is not a dependency, and a `dim` call never needs the pool.
    code = (
        "import sys, dualweyl.cli; "
        "print([m for m in ('numpy', 'concurrent.futures.process') "
        "if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    # the decomposition unit gives 8 items and the example61 unit 2
    assert units == len(json.loads(proc.stdout)["items"]) - 8
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    stats = tracer.merge(sorted(tmp_path.glob("*.json")))["stats"]
    assert stats["cli.pool"][0] == 1
    assert stats["cli.check"][0] == units


def test_report_is_deterministic(capsys):
    args = (
        "verify", "--suite", "hooks-d2",
        "--format", "json", "--no-timing", "--jobs", "1",
    )
    code, first, _ = run(capsys, *args)
    code2, second, _ = run(capsys, *args)
    assert code == code2 == 0
    assert first == second


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


def test_table3_matches_golden(capsys, tmp_path):
    out_file = tmp_path / "table3.csv"
    code, _, _ = run(capsys, "table", "--which", "table3", "--out", str(out_file))
    assert code == 0
    from importlib import resources

    golden = resources.files("dualweyl").joinpath("data/table3.csv").read_text()
    assert out_file.read_text() == golden


def test_console_script_entry_point():
    import shutil
    import subprocess

    exe = shutil.which("dualweyl")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "dim", "--which", "nabla", "--lambda", "2,1", "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "2"


def test_env_var_data_path(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "broken.txt"
    bad.write_text("2; 1,1:1\n1,1; 1,1:1\n")
    monkeypatch.setenv("DUALWEYL_DATA", str(bad))
    import dualweyl.decomposition as dc

    dc.load_default_data.cache_clear()
    with pytest.raises(dc.DecompositionDataError):
        dc.load_default_data()
    monkeypatch.delenv("DUALWEYL_DATA")
    dc.load_default_data.cache_clear()
    assert dc.load_default_data().degrees() == [1, 2, 3, 4, 5]
