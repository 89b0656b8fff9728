#!/usr/bin/env python3
"""The dualweyl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the program from ``src`` in
fresh interpreters. ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` traces one unit of the workload for the per-layer metrics and
times an untraced/traced pair for the tracing overhead. Every answer is
checked; wrong answers count as failures. The lines before the last are a
readable report; the last line is the result JSON. NOTES.md explains the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from math import ceil, comb, prod
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PY = sys.executable
CHILD_TIMEOUT_S = 170

# Import samples per run, half before and half after the workload, so the
# median spans two moments of the machine.
SETUP_SAMPLES = 10

# Reports of `verify ARGS --jobs 2 --no-timing --format json` at the commit
# that defined this benchmark, as (sha256, item count); later commits must
# reproduce them byte for byte. The thm2 slice is the tracing-overhead
# probe of verify-all: the full sweep both traced and untraced does not
# fit in one run's time limit.
VERIFY_ALL = ("--suite", "all")
VERIFY_PROBE = ("--suite", "thm2", "--n-max", "5")
VERIFY_REPORTS = {
    VERIFY_ALL: ("4651521214fa13f502de04c267f2259a433e062f1682606ae85bfcef7231d4cf", 650),
    VERIFY_PROBE: ("56b9d102dee31e1e31d4b5e1723b64f93c1505385bc96b5197f69ba7d5cdec14", 55),
}

# (which, shape, d, p). Expected values come from closed forms below, or
# from U_PINNED where no closed form is known.
DIM_QUERIES = [
    ("gtensor", (5, 1), 6, 2),
    ("gtensor", (5, 1), 6, 3),
    ("nabla", (4, 2), 6, 5),
    ("gtensor", (3, 3), 6, 5),
    ("gtensor", (4, 2), 5, 3),
    ("u", (2, 2, 1), 7, 2),
    ("u", (2, 2, 1, 1), 6, 2),
    ("u", (3, 1, 1), 6, 2),
    ("u", (2, 2, 2), 5, 2),
    ("u", (2, 2, 1), 4, 2),  # the three README examples
    ("nabla", (2, 2, 1), 3, 2),
    ("gtensor", (1, 1, 1), 2, 2),
]
# Kernel dimensions pinned from the commit that defined this benchmark.
U_PINNED = {
    ((5, 1), 6): 0,
    ((2, 2, 1, 1), 6): 1035,
    ((3, 1, 1), 6): 336,
    ((2, 2, 2), 5): 210,
    ((1, 1, 1), 2): 4,
}

# (which, shape, d, p) built once per module-ops worker.
MODOPS_MODULES = [
    ("nabla", (4, 2), 5, 3),
    ("gtensor", (3, 3), 6, 5),
    ("nabla", (3, 2, 1), 5, 3),
    ("gtensor", (2, 2, 1), 6, 2),
]
# No code in the package calls the read-side API, so the query mix is an
# assumption: nothing marks one per-vector query as more common than
# another, so each module gets the same count of each per cycle
# (straighten applies to nabla modules only). quotient_indices returns the
# same list every time; a caller fetches it once per module and keeps it,
# so each client asks it once per module, first. It takes ~50 ms on the two
# larger modules, and at 2 of 900 queries per client it stays above
# op_p99_ms, which therefore tracks the per-vector queries.
MODOPS_CYCLE = [("reduce", 4), ("contains", 4), ("transvection", 4),
                ("straighten", 4)]
MODOPS_CYCLES = 16  # per client
MODOPS_WORKERS = 4  # clients per run, at least


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Closed forms, independent of the package under test.


def conjugate(shape):
    return tuple(sum(1 for r in shape if r > j) for j in range(shape[0]))


def hook_content(shape, d: int) -> int:
    """Dimension of the dual Weyl module: prod (d + content) / hook."""
    conj = conjugate(shape)
    num = den = 1
    for i, row in enumerate(shape):
        for j in range(row):
            num *= d + j - i
            den *= (row - j) + (conj[j] - i) - 1
    return num // den


def kernel_dim(shape, d: int) -> int:
    if shape == (2, 2, 1):
        return (d**4 + 5 * d**2) // 6
    return U_PINNED[(shape, d)]


def expected_dim(which: str, shape, d: int, p: int) -> int:
    if which == "u":
        return kernel_dim(shape, d)
    if which == "gtensor" and p == 2:
        return hook_content(shape, d) + kernel_dim(shape, d)
    return hook_content(shape, d)


def ambient_dim(which: str, shape, d: int, p: int) -> int:
    """Tabloid count: choose each column's entry set; mod-2 skew tabloids
    keep repeated entries, so columns are multisets there."""
    if which == "gtensor" and p == 2:
        return prod(comb(d + h - 1, h) for h in conjugate(shape))
    return prod(comb(d, h) for h in conjugate(shape))


# ---------------------------------------------------------------------------
# Process plumbing


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(args: list[str]) -> tuple[float, int, bytes]:
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [PY, *args], capture_output=True, env=child_env(), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[:3]} exceeded {CHILD_TIMEOUT_S} s") from exc
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def cli_args(trace_dir: Path | None, argv: list[str]) -> list[str]:
    if trace_dir is None:
        return ["-m", "dualweyl.cli", *argv]
    return [str(HERE / "traced.py"), str(trace_dir), "cli", *argv]


def measure_setup(n: int) -> list[float]:
    """Interpreter start plus `import dualweyl.cli`, in fresh processes."""
    samples = []
    for _ in range(n):
        wall, code, _ = run_child(["-c", "import dualweyl.cli"])
        if code:
            raise BenchError("import dualweyl.cli failed")
        samples.append(wall)
    return samples


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, ceil(len(s) * q / 100) - 1)]


# ---------------------------------------------------------------------------
# Workloads. Each returns a dict with the raw samples and check counts.


def verify_sweep(suite: tuple, trace_dir: Path | None) -> dict:
    argv = ["verify", *suite, "--jobs", "2", "--no-timing", "--format", "json"]
    wall, code, out = run_child(cli_args(trace_dir, argv))
    return {"suite": suite, "wall": wall, "code": code, "out": out}


def verify_failures(sweep: dict) -> tuple[int, int]:
    """(attempted, failed) for one sweep: failing items, and at least one
    failure when the exit code, the item count or the bytes are off."""
    sha, count = VERIFY_REPORTS[sweep["suite"]]
    try:
        items = json.loads(sweep["out"])["items"]
    except (ValueError, KeyError):
        return count, count
    failed = sum(1 for it in items if not it.get("pass"))
    intact = (
        sweep["code"] == 0
        and len(items) == count
        and hashlib.sha256(sweep["out"]).hexdigest() == sha
    )
    return max(len(items), count), failed if intact else max(failed, 1)


def run_verify_all(rng, seconds, trace_dir=None) -> dict:
    """Whole sweeps until the seconds are used, at least one. Traced: one
    traced sweep for the layers, then the probe slice untraced and traced
    for the overhead (probe stats stay out of the layer numbers)."""
    if trace_dir is None:
        sweeps = []
        t_end = time.perf_counter() + seconds
        while not sweeps or time.perf_counter() < t_end:
            sweeps.append(verify_sweep(VERIFY_ALL, None))
        pair = None
    else:
        probe_dir = trace_dir / "probe"
        probe_dir.mkdir()
        sweeps = [verify_sweep(VERIFY_ALL, trace_dir)]
        # Untraced, traced, traced, untraced: a steady drift of machine
        # speed cancels out of the two sums.
        probes = [verify_sweep(VERIFY_PROBE, d)
                  for d in (None, probe_dir, probe_dir, None)]
        pair = [probes[0]["wall"] + probes[3]["wall"],
                probes[1]["wall"] + probes[2]["wall"]]
    attempted = failed = 0
    for s in sweeps + ([] if trace_dir is None else probes):
        a, f = verify_failures(s)
        attempted, failed = attempted + a, failed + f
    # Self-check: the first report with one item's verdict altered.
    tampered = dict(sweeps[0], out=sweeps[0]["out"].replace(b'"pass": true', b'"pass": 1', 1))
    walls = [s["wall"] for s in sweeps]
    return {
        "wall": statistics.median(walls), "latencies": walls, "pair": pair,
        "attempted": attempted, "failed": failed,
        "canary_caught": verify_failures(tampered)[1] >= 1,
        "unit": "verify sweep",
    }


def dim_query(q, trace_dir: Path | None) -> tuple[float, int | None]:
    which, shape, d, p = q
    argv = ["dim", "--which", which, "--lambda", ",".join(map(str, shape)),
            "--d", str(d), "--p", str(p)]
    wall, code, out = run_child(cli_args(trace_dir, argv))
    try:
        return wall, int(out.decode().strip()) if code == 0 else None
    except ValueError:
        return wall, None


def dim_wrong(got: int | None, expected: int) -> bool:
    return got != expected


def run_dim_queries(rng, seconds, trace_dir=None) -> dict:
    """Whole passes over the seeded order until the seconds are used, at
    least one. Traced: one pass, each query run untraced and then traced,
    so the overhead pair sees the same machine moments."""
    passes, latencies, plain, failed, answers = [], [], [], 0, {}
    t_end = time.perf_counter() + seconds
    while not passes or (trace_dir is None and time.perf_counter() < t_end):
        order = DIM_QUERIES[:]
        rng.shuffle(order)
        t0 = time.perf_counter()
        for q in order:
            if trace_dir is not None:
                wall, got = dim_query(q, None)
                plain.append(wall)
                failed += dim_wrong(got, expected_dim(*q))
            wall, answers[q] = dim_query(q, trace_dir)
            latencies.append(wall)
            failed += dim_wrong(answers[q], expected_dim(*q))
        passes.append(time.perf_counter() - t0)
    # Self-check: a README answer of this run held against a wrong
    # expected value, through the same gate.
    q = DIM_QUERIES[-1]
    return {
        "wall": statistics.median(passes) if trace_dir is None else sum(latencies),
        "latencies": latencies,
        "pair": [sum(plain), sum(latencies)] if plain else None,
        "attempted": len(latencies) + len(plain), "failed": failed,
        "canary_caught": dim_wrong(answers[q], expected_dim(*q) + 1),
        "unit": "dim query",
    }


def random_coords(rng, which, shape, d, p, k):
    dim = ambient_dim(which, shape, d, p)
    return [[rng.randrange(dim), rng.randrange(1, p)] for _ in range(k)]


def modops_op(rng, kind: str, mi: int) -> list:
    which, shape, d, p = spec = MODOPS_MODULES[mi]
    if kind == "reduce":
        return [kind, mi, random_coords(rng, *spec, rng.randint(1, 4))]
    if kind == "contains":
        return [kind, mi, random_coords(rng, *spec, rng.randint(1, 4)),
                rng.choice(["span", "unit"]), rng.randrange(1 << 30)]
    if kind == "transvection":
        src, tgt = rng.sample(range(1, d + 1), 2)
        return [kind, mi, random_coords(rng, *spec, rng.randint(1, 3)),
                random_coords(rng, *spec, 1), src, tgt]
    if kind == "straighten":
        return [kind, mi, [[rng.randint(1, d) for _ in range(h)] for h in conjugate(shape)]]
    return [kind, mi]


def modops_cycle(rng) -> list[list]:
    ops = [
        modops_op(rng, kind, mi)
        for mi, spec in enumerate(MODOPS_MODULES)
        for kind, count in MODOPS_CYCLE
        if kind != "straighten" or spec[0] == "nabla"
        for _ in range(count)
    ]
    rng.shuffle(ops)
    return ops


def modops_worker(job: dict, trace_dir: Path | None) -> dict:
    """One client: set-up is spawn to modules built, wall is spawn to the
    last query answered (the client checks its answers after that)."""
    args = [str(HERE / "modops.py")] if trace_dir is None else [
        str(HERE / "traced.py"), str(trace_dir), "modops"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [PY, *args], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        env=child_env(), cwd=ROOT,
    )
    # The reads below block, so a watchdog bounds a hung client.
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        try:
            proc.stdin.write(json.dumps(job).encode())
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the client died early; reported below
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        done = proc.stdout.readline()
        wall = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != b"READY" or done.strip() != b"DONE" or proc.returncode:
        raise BenchError(f"module-ops worker failed (exit {proc.returncode})")
    out = json.loads(rest.decode().strip().splitlines()[-1])
    return dict(out, setup=setup, wall=wall)


def modops_job(rng) -> dict:
    """quotient_indices once per module, then MODOPS_CYCLES whole cycles."""
    first = [["qi", mi] for mi in range(len(MODOPS_MODULES))]
    rng.shuffle(first)
    return {
        "modules": [[w, list(s), d, p, ambient_dim(w, s, d, p)]
                    for w, s, d, p in MODOPS_MODULES],
        "ops": first + [op for _ in range(MODOPS_CYCLES) for op in modops_cycle(rng)],
    }


def run_module_ops(rng, seconds, trace_dir=None) -> dict:
    """Timed: fixed-size clients until the seconds are used, at least
    MODOPS_WORKERS. Traced: one client's job, traced and then untraced."""
    if trace_dir is None:
        runs = []
        t_end = time.perf_counter() + seconds
        while len(runs) < MODOPS_WORKERS or time.perf_counter() < t_end:
            runs.append(modops_worker(modops_job(rng), None))
        pair = None
    else:
        job = modops_job(rng)
        runs = [modops_worker(job, d) for d in (trace_dir, None)]
        pair = [runs[1]["wall"], runs[0]["wall"]]
    latencies = [x for r in runs for x in r["latencies"]]
    failed = sum(len(r["failed"]) for r in runs)
    for r in runs:
        for op in r["failed"][:5]:
            print(f"module-ops FAIL: {json.dumps(op)[:200]}")
    return {
        "wall": statistics.median(r["wall"] for r in runs) if pair is None else runs[0]["wall"],
        "pair": pair,
        "setups": [r["setup"] for r in runs], "latencies": latencies,
        "attempted": len(latencies), "failed": failed,
        "canary_caught": all(r["canary_caught"] for r in runs),
        "unit": "module query",
    }


WORKLOADS = {
    "verify-all": run_verify_all,
    "dim-queries": run_dim_queries,
    "module-ops": run_module_ops,
}


# ---------------------------------------------------------------------------
# Reporting


def environment(load_start) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "commit": git_commit(),
        "load_start": load_start,
        "load_end": os.getloadavg(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def declared_metrics(key: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[key]


def peak_rss_mb() -> float:
    # ru_maxrss of waited-for children is the largest single descendant
    # (pool workers included), in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def end_to_end(result: dict, setup: list[float]) -> dict[str, float]:
    lat = result["latencies"]
    return {
        "wall_s": result["wall"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p99_ms": percentile(lat, 99) * 1000,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dualweyl" / "cli.py").is_file():
        print(f"error: no dualweyl sources under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    rng = random.Random(args.seed)
    run = WORKLOADS[args.workload]
    # Untimed warm-up: compiles the package's bytecode once per checkout.
    run_child(["-c", "import dualweyl.cli"])

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    if args.trace:
        scratch = ROOT / ".perfbench"
        scratch.mkdir(exist_ok=True)
        trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=scratch))
        try:
            result = run(rng, 0, trace_dir)
            merged = tracer.merge(sorted(trace_dir.glob("*.json")))
        finally:
            shutil.rmtree(trace_dir)
        (scratch / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(merged))
        untraced, traced = result["pair"]
        metrics = tracer.layer_metrics(merged)
        metrics["trace.wall_s"] = (result["wall"], "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        print(f"tracing overhead: {traced - untraced:+.3f} s on {untraced:.3f} s untraced")
        declared = declared_metrics("per_layer")
    else:
        if args.workload == "module-ops":
            result = run(rng, args.seconds)
            setup = result["setups"]
        else:
            setup = measure_setup(SETUP_SAMPLES // 2)
            result = run(rng, args.seconds)
            setup += measure_setup(SETUP_SAMPLES // 2)
        units = {m["name"]: m["unit"] for m in declared_metrics("end_to_end")}
        metrics = {k: (v, units[k]) for k, v in end_to_end(result, setup).items()}
        declared = declared_metrics("end_to_end")
        print(f"samples: {len(result['latencies'])} x {result['unit']}, "
              f"{len(setup)} x setup")

    attempted, failed = result["attempted"], result["failed"]
    caught = result["canary_caught"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    print(f"env: {json.dumps(environment(load_start))}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(f"  {'error_rate':28s} {failed / attempted:14.6g} "
          f"({failed} of {attempted} answers wrong or failed)")
    print(f"self-check: a deliberately wrong expected value was "
          f"{'counted as a failure' if caught else 'NOT caught'}")
    out = {
        "correct": failed == 0 and caught,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
