"""The module-ops worker: build a few quotient modules, then answer a stream
of read-side queries against them, checking every answer.

Run as ``python3 perfbench/modops.py`` with ``src`` on PYTHONPATH; the job
(module specs and pre-generated queries) arrives as JSON on stdin. The
worker prints ``READY`` once the modules are built and ``DONE`` once every
query is answered; it checks the answers after that, then prints one JSON
line with per-query latencies and failures.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from time import perf_counter

from dualweyl import quotients
from dualweyl.partitions import Partition
from dualweyl.tableaux import Tableau
from dualweyl.tabloids import ALT_COLUMN, TabloidVector, canonicalize, vector_from_terms


class Built:
    def __init__(self, which: str, lam: list[int], d: int, p: int, ambient: int):
        self.shape = Partition(lam)
        self.d, self.p = d, p
        build = (
            quotients.build_dual_weyl if which == "nabla"
            else quotients.build_gtensor_specht
        )
        self.module = build(self.shape, d, p)
        if self.module.ambient.dim != ambient:
            raise RuntimeError(
                f"{which} {lam} d={d}: ambient {self.module.ambient.dim}, "
                f"closed form {ambient}"
            )
        self.qi: list[int] = []
        self.qi_set: set[int] = set()

    def vector(self, coords) -> TabloidVector:
        dim = self.module.ambient.dim
        out: dict[int, int] = {}
        for i, c in coords:
            i %= dim
            out[i] = (out.get(i, 0) + c) % self.p
        return TabloidVector(self.module.ambient, self.p, {i: c for i, c in out.items() if c})


def _minus(a: TabloidVector, b: TabloidVector) -> TabloidVector:
    return a.add(b.scale(-1))


def reduce_ok(m: Built, v: TabloidVector, r: TabloidVector) -> bool:
    """reduce is idempotent, moves v only by relations, and lands on the
    quotient coordinates."""
    return (
        m.module.reduce(r).coords == r.coords
        and m.module.relations_contain(_minus(v, r))
        and set(r.coords) <= m.qi_set
    )


def straighten_ok(m: Built, t: Tableau, out: TabloidVector) -> bool:
    """The result sits on row-semistandard representatives and differs from
    the alternating tabloid of t by relations."""
    if not all(rep.is_row_semistandard() for rep in out.terms()):
        return False
    st = canonicalize(t, ALT_COLUMN)
    start = vector_from_terms(
        out.basis, m.p, {} if st.is_zero else {st.rep: st.sign}
    )
    return m.module.relations_contain(_minus(start, out))


def run_op(mods: list[Built], op: list, quiet=nullcontext):
    """Execute one query; return (seconds spent in the library call, a
    callable that checks the answer). Input preparation and checks run
    inside ``quiet()``, which a tracer uses to leave them out of the layer
    numbers; checks are meant to run after the timed loop."""
    kind, m = op[0], mods[op[1]]
    mod = m.module
    if kind == "reduce":
        with quiet():
            v = m.vector(op[2])
        t0 = perf_counter()
        r = mod.reduce(v)
        return perf_counter() - t0, lambda: reduce_ok(m, v, r)
    if kind == "contains":
        with quiet():
            x = m.vector(op[2])
            if op[3] == "span":
                v, expected = _minus(x, mod.reduce(x)), True
            else:
                v, expected = m.vector([[m.qi[op[4] % len(m.qi)], 1]]), False
        t0 = perf_counter()
        got = mod.relations_contain(v)
        return perf_counter() - t0, lambda: got is expected
    if kind == "qi":
        t0 = perf_counter()
        got = mod.quotient_indices()
        return perf_counter() - t0, lambda: got == m.qi and len(got) == mod.dim
    if kind == "straighten":
        t = Tableau(op[2])
        t0 = perf_counter()
        out = quotients.straighten(t, m.shape, m.d, m.p)
        return perf_counter() - t0, lambda: straighten_ok(m, t, out)
    if kind == "transvection":
        with quiet():
            v1, v2 = m.vector(op[2]), m.vector(op[3])
            v = v1.add(v2)
        src, tgt = op[4], op[5]
        t0 = perf_counter()
        whole = quotients.apply_transvection(v, src, tgt, m.p)
        dt = perf_counter() - t0

        def additive() -> bool:
            parts = quotients.apply_transvection(v1, src, tgt, m.p).add(
                quotients.apply_transvection(v2, src, tgt, m.p)
            )
            return whole.coords == parts.coords

        return dt, additive
    raise ValueError(f"unknown op {kind!r}")


def canary(mods: list[Built]) -> bool:
    """A reduce answer with one coordinate knocked off its canonical value
    must fail the reduce check; True when the check caught it."""
    m = next(x for x in mods if x.module.relation_rank)
    pivot = next(i for i in range(m.module.ambient.dim) if i not in m.qi_set)
    v = m.vector([[pivot, 1]])
    wrong = m.module.reduce(v).add(v)  # adds a pivot coordinate back in
    return not reduce_ok(m, v, wrong)


def main(job: dict, quiet=nullcontext) -> dict:
    mods = [Built(*spec) for spec in job["modules"]]
    print("READY", flush=True)
    with quiet():
        for m in mods:
            m.qi = m.module.quotient_indices()
            m.qi_set = set(m.qi)
    latencies: list[float] = []
    checks = []
    for op in job["ops"]:
        dt, check = run_op(mods, op, quiet)
        latencies.append(dt)
        checks.append((op, check))
    print("DONE", flush=True)
    with quiet():
        failed = [op for op, check in checks if not check()]
        caught = canary(mods)
    return {"latencies": latencies, "failed": failed, "canary_caught": caught}


if __name__ == "__main__":
    result = main(json.load(sys.stdin))
    sys.stdout.write(json.dumps(result) + "\n")
