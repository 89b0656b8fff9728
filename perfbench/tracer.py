"""In-process tracing of the dualweyl layers, installed from outside the package.

The tracer replaces a function at every place the package looks it up
(``quotients`` imports ``garnir_terms`` and friends by name, so patching the
defining module alone would miss those calls). Each timed wrapper pushes a
frame on a stack; on exit the frame's duration is added to its parent's
child time, so a name's self time is its duration minus the part covered by
traced children. Hot leaf calls are aggregated per name instead of being
kept one by one; coarse spans (commands, pools, checks, builds) are
kept in memory as (name, start, end, depth) and written when the process
ends. Pool workers forked by ``verify --jobs N`` inherit the wrappers; each
one rewrites its own stats file after every check, because pool workers
leave through ``os._exit`` and run no exit hooks.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

COARSE = {"cli.command", "cli.pool", "cli.check", "quotients.build"}
PREDICTION_FUNCS = (
    "predict_iso",
    "non_iso_shapes",
    "d1_predict",
    "hook_d2_dim",
    "frobenius_weight_check",
    "table1_weight_counts",
    "table1_expected",
    "supplementary_rank_gain",
    "u_dim_degree",
    "min_interpolation_degree",
)


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.owner = os.getpid()
        self.stack: list[list[float]] = []
        # name -> [calls, total_s, self_s]
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.maxes: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, int]] = []
        self.on = [True]
        os.register_at_fork(after_in_child=self._reset_in_child)

    @contextmanager
    def suspended(self):
        """Calls made inside are not traced (the benchmark's own checks)."""
        self.on[0] = False
        try:
            yield
        finally:
            self.on[0] = True

    def _reset_in_child(self) -> None:
        self.stack.clear()
        self.stats.clear()
        self.counts.clear()
        self.maxes.clear()
        self.spans.clear()

    def timed(self, name, fn, after=None):
        stack, stats, spans, on = self.stack, self.stats, self.spans, self.on
        coarse = name in COARSE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                s = stats[name]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[0]
                if coarse:
                    spans.append((name, t0, t1, len(stack)))
            if after is not None:
                after(args, kwargs, result, dt)
            return result

        return wrapper

    def timed_generator(self, name, fn, count_name):
        """Time each resumption of a generator; the pauses belong to the
        consumer."""
        stack, stats, counts, on = self.stack, self.stats, self.counts, self.on

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not on[0]:
                yield from it
                return
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dt
                    s = stats[name]
                    s[0] += 1
                    s[1] += dt
                    s[2] += dt - frame[0]
                counts[count_name] += 1
                yield item

        return wrapper

    def observed(self, fn, after):
        """Count-only hook: no frame, so the time stays with the caller."""

        on = self.on

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if on[0]:
                after(args, kwargs, result, 0.0)
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        payload = {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "maxes": dict(self.maxes),
            "spans": self.spans,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)

    def dump_own(self) -> None:
        self.dump(self.out_dir / f"{os.getpid()}.json")


def _replace_everywhere(modules, original, wrapper) -> int:
    hits = 0
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                hits += 1
    if not hits:
        raise RuntimeError(f"trace hook found no lookup site for {original!r}")
    return hits


def install(out_dir: Path) -> Tracer:
    """Wrap the layer entry points of the already importable package."""
    import dualweyl
    from dualweyl import (
        cli,
        decomposition,
        garnir,
        gfp,
        predictions,
        quotients,
        tableaux,
        tabloids,
    )

    tr = Tracer(out_dir)
    counts, maxes = tr.counts, tr.maxes
    modules = (
        dualweyl, tableaux, tabloids, garnir, gfp, quotients, predictions,
        decomposition, cli,
    )

    def hook(mod, attr, wrap):
        _replace_everywhere(modules, getattr(mod, attr), wrap(getattr(mod, attr)))

    def on_enumerate(args, kwargs, result, dt):
        counts["tableaux.enumerated"] += len(result)

    def on_canonicalize(args, kwargs, result, dt):
        counts["tabloids.canonicalize_zero"] += result.is_zero

    def on_basis(args, kwargs, result, dt):
        maxes["tabloids.ambient_dim"] = max(maxes["tabloids.ambient_dim"], result.dim)

    def on_terms(args, kwargs, result, dt):
        counts["garnir.empty_relations"] += not result

    def on_blocks(args, kwargs, result, dt):
        counts["quotients.blocks"] += len(result)
        largest = max((b.size for b in result.values()), default=0)
        maxes["quotients.largest_block"] = max(maxes["quotients.largest_block"], largest)

    def on_gens(args, kwargs, result, dt):
        counts["quotients.kernel_gens"] += sum(len(v) for v in result.values())

    def on_check(args, kwargs, result, dt):
        counts["cli.checks"] += 1
        maxes["cli.check_max_s"] = max(maxes["cli.check_max_s"], dt)
        if os.getpid() != tr.owner:
            tr.dump_own()

    def on_run_checks(args, kwargs, result, dt):
        checks, jobs = args
        if jobs != 1 and len(checks) > 1:
            counts["cli.pooled_s"] += dt
            maxes["cli.jobs"] = max(maxes["cli.jobs"], jobs)

    hook(tableaux, "enumerate_tableaux",
         lambda f: tr.timed("tableaux.enumerate", f, on_enumerate))
    hook(tabloids, "canonicalize",
         lambda f: tr.timed("tabloids.canonicalize", f, on_canonicalize))
    hook(tabloids, "build_basis",
         lambda f: tr.timed("tabloids.build_basis", f, on_basis))
    hook(garnir, "iter_relation_labels",
         lambda f: tr.timed_generator("garnir.labels", f, "garnir.labels"))
    hook(garnir, "garnir_terms", lambda f: tr.timed("garnir.terms", f, on_terms))

    cached_build = quotients._build

    def build(*args, **kwargs):
        before = cached_build.cache_info()
        module = cached_build(*args, **kwargs)
        after = cached_build.cache_info()
        counts["quotients.cache_hits"] += after.hits - before.hits
        counts["quotients.builds"] += after.misses - before.misses
        return module

    hook(quotients, "_build",
         lambda f: tr.timed("quotients.build", functools.wraps(f)(build)))
    hook(quotients, "_make_blocks", lambda f: tr.observed(f, on_blocks))
    hook(quotients, "_gens_by_weight", lambda f: tr.observed(f, on_gens))

    def on_push(args, kwargs, grew, dt):
        if args[1]:  # an empty relation never reaches the span
            counts["gfp.pushes"] += 1
            counts["gfp.rank_grew"] += grew

    push = quotients._push_terms
    push2 = tr.timed("gfp.span2", push, on_push)
    push_odd = tr.timed("gfp.span_odd", push, on_push)

    @functools.wraps(push)
    def push_by_prime(blocks, terms, d, p):
        return (push2 if p == 2 else push_odd)(blocks, terms, d, p)

    _replace_everywhere(modules, push, push_by_prime)

    hook(quotients, "verify_iso", lambda f: tr.timed("gfp.probe", f))
    hook(quotients, "u_lambda_weight_table", lambda f: tr.timed("gfp.probe", f))
    gfp.SpanBuilder.subspace = tr.timed("gfp.subspace", gfp.SpanBuilder.subspace)
    quotients.QuotientModule.reduce = tr.timed(
        "quotients.reduce", quotients.QuotientModule.reduce
    )
    hook(quotients, "straighten", lambda f: tr.timed("quotients.straighten", f))
    hook(quotients, "apply_transvection",
         lambda f: tr.timed("quotients.transvection", f))
    hook(decomposition, "composition_factors_U",
         lambda f: tr.timed("decomposition.factors", f))
    for name in PREDICTION_FUNCS:
        hook(predictions, name, lambda f: tr.timed("predictions.sweep", f))
    hook(cli, "_run_check", lambda f: tr.timed("cli.check", f, on_check))
    hook(cli, "_run_checks", lambda f: tr.timed("cli.pool", f, on_run_checks))
    hook(cli, "cmd_verify", lambda f: tr.timed("cli.command", f))
    hook(cli, "cmd_dim", lambda f: tr.timed("cli.command", f))
    return tr


def _self_s(stats, name) -> float:
    return stats.get(name, (0, 0.0, 0.0))[2]


def merge(paths) -> dict:
    """Sum the stats of every traced process; maxima stay maxima."""
    stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: dict[str, float] = defaultdict(float)
    maxes: dict[str, float] = defaultdict(float)
    spans = []
    for path in paths:
        part = json.loads(Path(path).read_text())
        for k, v in part["stats"].items():
            s = stats[k]
            for i in range(3):
                s[i] += v[i]
        for k, v in part["counts"].items():
            counts[k] += v
        for k, v in part["maxes"].items():
            maxes[k] = max(maxes[k], v)
        spans.extend(part["spans"])
    return {"stats": dict(stats), "counts": dict(counts), "maxes": dict(maxes),
            "spans": spans}


def layer_metrics(merged: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; every `_s` value is self
    time summed over all traced processes."""
    st, c, mx = merged["stats"], merged["counts"], merged["maxes"]

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    canon_calls = calls("tabloids.canonicalize")
    pushes = c.get("gfp.pushes", 0)
    check_busy = st.get("cli.check", (0, 0.0, 0.0))[1]
    pooled = c.get("cli.pooled_s", 0.0)
    jobs = mx.get("cli.jobs", 0)
    # Checks run inline (jobs 1) are serial work, not pool busy time.
    pool_busy = check_busy if pooled else 0.0
    command = st.get("cli.command", (0, 0.0, 0.0))[1]
    return {
        "tableaux.enumerate_s": (_self_s(st, "tableaux.enumerate"), "s"),
        "tableaux.enumerated": (c.get("tableaux.enumerated", 0), "count"),
        "tabloids.canonicalize_s": (_self_s(st, "tabloids.canonicalize"), "s"),
        "tabloids.canonicalize_calls": (canon_calls, "count"),
        "tabloids.zero_share": (
            c.get("tabloids.canonicalize_zero", 0) / canon_calls if canon_calls else 0.0,
            "ratio",
        ),
        "tabloids.build_basis_s": (_self_s(st, "tabloids.build_basis"), "s"),
        "tabloids.ambient_dim": (mx.get("tabloids.ambient_dim", 0), "count"),
        "garnir.labels": (c.get("garnir.labels", 0), "count"),
        "garnir.labels_s": (_self_s(st, "garnir.labels"), "s"),
        "garnir.terms_s": (_self_s(st, "garnir.terms"), "s"),
        "garnir.empty_relations": (c.get("garnir.empty_relations", 0), "count"),
        "quotients.builds": (c.get("quotients.builds", 0), "count"),
        "quotients.cache_hits": (c.get("quotients.cache_hits", 0), "count"),
        "quotients.build_s": (_self_s(st, "quotients.build"), "s"),
        "quotients.blocks": (c.get("quotients.blocks", 0), "count"),
        "quotients.largest_block": (mx.get("quotients.largest_block", 0), "count"),
        "quotients.kernel_gens": (c.get("quotients.kernel_gens", 0), "count"),
        "quotients.reduce_s": (_self_s(st, "quotients.reduce"), "s"),
        "quotients.straighten_s": (_self_s(st, "quotients.straighten"), "s"),
        "quotients.transvection_s": (_self_s(st, "quotients.transvection"), "s"),
        "gfp.probe_s": (_self_s(st, "gfp.probe"), "s"),
        "gfp.pushes": (pushes, "count"),
        "gfp.rank_share": (c.get("gfp.rank_grew", 0) / pushes if pushes else 0.0, "ratio"),
        "gfp.span2_s": (_self_s(st, "gfp.span2"), "s"),
        "gfp.span_odd_s": (_self_s(st, "gfp.span_odd"), "s"),
        "gfp.subspace_s": (_self_s(st, "gfp.subspace"), "s"),
        "gfp.subspace_calls": (calls("gfp.subspace"), "count"),
        "cli.checks": (c.get("cli.checks", 0), "count"),
        "cli.check_max_s": (mx.get("cli.check_max_s", 0.0), "s"),
        "cli.pool_idle_share": (
            1.0 - pool_busy / (jobs * pooled) if pooled and jobs else 0.0,
            "ratio",
        ),
        "cli.serial_s": (max(command - pooled, 0.0), "s"),
        "decomposition.factors_s": (_self_s(st, "decomposition.factors"), "s"),
        "predictions.sweep_s": (_self_s(st, "predictions.sweep"), "s"),
    }
