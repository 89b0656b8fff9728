"""Shared brute-force oracles and test-only references for the test suite.
The oracles deliberately avoid the library's canonicalization and span
machinery so they can check it, except the all-blocks kernel probe, which
is the elimination reference for the counted kernel of the dominant-block
path, and the Garnir oracle, which canonicalizes its terms with
`canonicalize`. The label-level relation rank (`family_rank`), the kernel
generators over the whole tabloid space (`ker_q_generators`), the span
helpers and the row tabloids have no caller in the package; they live
here as references for the tests."""

import random
from itertools import combinations, permutations, product

from dualweyl.garnir import garnir_terms, iter_relation_labels
from dualweyl.gfp import SpanBuilder, Subspace
from dualweyl.partitions import Partition
from dualweyl.quotients import (
    _make_blocks,
    _push_terms,
    _straighten_terms,
    _tabloid_kind,
    build_gtensor_specht,
)
from dualweyl.tableaux import Box, Tableau
from dualweyl.tabloids import (
    TabloidBasis,
    TabloidKind,
    TabloidVector,
    build_basis,
    canonicalize,
    has_column_repeat,
    skew_column,
)


def brute_fillings(shape, d):
    boxes = shape.boxes()
    for values in product(range(1, d + 1), repeat=len(boxes)):
        filling = dict(zip(boxes, values))
        rows = [
            [filling[(i, j)] for j in range(1, shape[i - 1] + 1)]
            for i in range(1, len(shape) + 1)
        ]
        yield Tableau.from_rows(rows)


def place_permute(t: Tableau, moves: dict[Box, Box]) -> Tableau:
    """Apply the place permutation sending the entry at box src to box dst.

    ``moves`` maps src -> dst and must be a bijection on its domain.
    """
    if set(moves) != set(moves.values()):
        raise ValueError("moves must permute a fixed set of boxes")
    cols = [list(c) for c in t.cols]
    for (si, sj), (di, dj) in moves.items():
        cols[dj - 1][di - 1] = t.entry(si, sj)
    return Tableau(cols)


def row_sort(t: Tableau) -> Tableau:
    """The representative of the row tabloid of t: every row sorted
    ascending (row tabloids carry no sign)."""
    return Tableau.from_rows(sorted(r) for r in t.rows())


def column_antisymmetrization(t: Tableau, p: int) -> dict[Tableau, int]:
    """Image of the tableau under signed summation over all column-preserving
    place permutations, expanded in row-sorted representatives.

    This is the classical polytabloid expansion; only usable on tiny shapes.
    """
    out: dict[Tableau, int] = {}
    per_column = [list(permutations(range(len(c)))) for c in t.cols]
    for perms in product(*per_column):
        sign = 1
        cols = []
        for c, perm in zip(t.cols, perms):
            cols.append(tuple(c[k] for k in perm))
            inversions = sum(
                1
                for a in range(len(perm))
                for b in range(a + 1, len(perm))
                if perm[a] > perm[b]
            )
            if inversions % 2:
                sign = -sign
        rep = row_sort(Tableau(cols))
        out[rep] = (out.get(rep, 0) + sign) % p
    return {rep: c for rep, c in out.items() if c}


def apply_e_map(terms: dict[Tableau, int], p: int) -> dict[Tableau, int]:
    """Evaluate a column-tabloid combination in the row-tabloid space."""
    out: dict[Tableau, int] = {}
    for t, coeff in terms.items():
        for rep, c in column_antisymmetrization(t, p).items():
            val = (out.get(rep, 0) + coeff * c) % p
            if val:
                out[rep] = val
            else:
                out.pop(rep, None)
    return out


def garnir_oracle(label, kind):
    """Brute-force expansion of a Garnir label: every permutation of the
    entries of A | B, grouped by which source boxes land in A, the first of
    each group kept; each term canonicalized with `canonicalize` and the
    signs summed (only their parity for the mod-2 skew kind)."""
    t = label.t
    boxes = list(label.A) + list(label.B)
    k = len(label.A)
    seen = set()
    out = {}
    for perm in permutations(range(len(boxes))):
        group = frozenset(perm[:k])
        if group in seen:
            continue
        seen.add(group)
        cols = [list(c) for c in t.cols]
        for (i, j), src in zip(boxes, perm):
            cols[j - 1][i - 1] = t.entry(*boxes[src])
        st = canonicalize(Tableau(cols), kind)
        if st.is_zero:
            continue
        inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
        out[st.rep] = out.get(st.rep, 0) + (-1) ** inversions * st.sign
    if kind is TabloidKind.SKEW_MOD_2:
        return {rep: 1 for rep, c in out.items() if c % 2}
    return {rep: c for rep, c in out.items() if c}


def shuffled_template(template, rows_a, rows_b, rng: random.Random):
    """A Garnir template (see `garnir._template`) with each coset
    representative composed with a random permutation of the A boxes and
    one of the B boxes."""
    out = []
    for first, second, parity in template:
        first, parity_a = _permuted(first, rows_a, rng)
        second, parity_b = _permuted(second, rows_b, rng)
        out.append((first, second, parity ^ parity_a ^ parity_b))
    return tuple(out)


def _permuted(col, rows, rng: random.Random):
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    out = list(col)
    for r, src in zip(rows, perm):
        out[r] = col[rows[src]]
    return tuple(out), sum(1 for a, b in combinations(perm, 2) if a > b) & 1


def kernel_table_all_blocks(shape, d, p=2):
    """Kernel of the surjection onto the dual Weyl module at every weight,
    by elimination: every block of the full skew build is probed with its
    repeated-column-entry representatives (none exist at odd p), in a
    builder seeded from the block's frozen basis rows."""
    module = build_gtensor_specht(shape, d, p)
    table = {}
    for w, block in sorted(module._blocks.items()):
        probe = probe_builder(block.span)
        grown = sum(
            1
            for cols, j in block.pos.items()
            if has_column_repeat(cols) and probe.add({j: 1})
        )
        if grown:
            table[w] = grown
    return table


def probe_builder(subspace: Subspace) -> SpanBuilder:
    """A fresh builder holding the span of a frozen subspace, from its
    basis rows, to probe rank growth by elimination."""
    builder = SpanBuilder(subspace.ambient_dim, subspace.p)
    for row in subspace.basis_rows():
        builder.add(row)
    return builder


def ker_q_generators(shape: Partition, d: int) -> list[TabloidVector]:
    """Unit vectors on the mod-2 skew representatives with a repeated column
    entry, over the whole tabloid space; these span the kernel of the
    reduction onto alternating tabloids."""
    basis = build_basis(shape, d, skew_column(2))
    return [
        TabloidVector(basis, 2, {i: 1})
        for i, cols in enumerate(basis.cols)
        if has_column_repeat(cols)
    ]


def family_rank(which, shape, d, p, families):
    """Rank of the span of relation families over the tabloid space of
    ``which`` ("nabla" or "gtensor"), expanding every `GarnirLabel` of the
    label stream through `garnir_terms`: the label-level reference for the
    builds, which expand snakes straight from column tuples."""
    kind = _tabloid_kind(which, p)
    blocks = _make_blocks(build_basis(shape, d, kind).cols, d, p)
    for family in families:
        for label in iter_relation_labels(shape, d, family, kind):
            terms = garnir_terms(label, kind)
            if terms:
                block = blocks[label.t.weight(d)]
                local = {t.cols: c for t, c in terms.items()}
                _push_terms(block.span, local, block.pos, p)
    return sum(b.span.rank for b in blocks.values())


def straighten_vector(vec: TabloidVector) -> TabloidVector:
    """Straighten every term of a vector of tabloids."""
    basis = vec.basis
    terms = {basis.cols[i]: c for i, c in vec.coords.items()}
    out = _straighten_terms(terms, basis.kind, vec.p)
    return TabloidVector(basis, vec.p, {basis.index[c]: v for c, v in out.items()})


def unit_vector(basis: TabloidBasis, p: int, t: Tableau) -> TabloidVector:
    return TabloidVector(basis, p, {basis.index_of(t): 1})


def span(vectors, ambient_dim: int, p: int) -> Subspace:
    """Reduced row-echelon span of the given vectors."""
    builder = SpanBuilder(ambient_dim, p)
    for v in vectors:
        builder.add(v)
    return builder.subspace()


def matrix_rank(rows, ambient_dim: int, p: int) -> int:
    return span(rows, ambient_dim, p).dim


def dim_sum_and_intersection(s: Subspace, t: Subspace) -> tuple[int, int]:
    """(dim(S+T), dim(S∩T)) via rank of the stacked bases."""
    if s.ambient_dim != t.ambient_dim or s.p != t.p:
        raise ValueError("subspaces must share ambient space and prime")
    dim_sum = span(s.basis_rows() + t.basis_rows(), s.ambient_dim, s.p).dim
    return dim_sum, s.dim + t.dim - dim_sum


def rref_oracle(vectors, m, p):
    """Reduced row-echelon basis of the span of dense vectors over GF(p),
    by textbook Gauss-Jordan elimination on plain lists."""
    rows = [[x % p for x in v] for v in vectors]
    basis = []
    for col in range(m):
        pick = next((r for r in rows if r[col]), None)
        if pick is None:
            continue
        rows.remove(pick)
        inv = pow(pick[col], -1, p)
        pick = [x * inv % p for x in pick]
        rows = [[(x - r[col] * y) % p for x, y in zip(r, pick)] for r in rows]
        basis = [[(x - b[col] * y) % p for x, y in zip(b, pick)] for b in basis]
        basis.append(pick)
    return basis


def reduce_oracle(basis, v, p):
    """v minus its components along the pivots of an RREF basis."""
    v = [x % p for x in v]
    for row in basis:
        lead = next(i for i, x in enumerate(row) if x)
        c = v[lead]
        v = [(x - c * y) % p for x, y in zip(v, row)]
    return v


def prod(items):
    result = 1
    for x in items:
        result *= x
    return result


__all__ = [
    "Partition",
    "apply_e_map",
    "brute_fillings",
    "column_antisymmetrization",
    "dim_sum_and_intersection",
    "family_rank",
    "garnir_oracle",
    "kernel_table_all_blocks",
    "ker_q_generators",
    "matrix_rank",
    "place_permute",
    "probe_builder",
    "prod",
    "reduce_oracle",
    "row_sort",
    "shuffled_template",
    "rref_oracle",
    "span",
    "straighten_vector",
    "unit_vector",
]
