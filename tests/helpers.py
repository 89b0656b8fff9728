"""Shared brute-force oracles and test-only references for the test suite.
The oracles deliberately avoid the library's canonicalization and span
machinery so they can check it, except the all-blocks kernel probe, which
is the elimination reference for the counted kernel of the dominant-block
path, and the Garnir oracle, which canonicalizes its terms with
`canonicalize`. The label-level relation rank (`family_rank`), the
unshared full build (`unshared_build`), the straightening of each call
from scratch (`straighten_terms`), the transvection expanded over whole
fillings (`transvection_oracle`), the unranking of a tabloid by counting
(`unrank_tabloid`), the three numbers that the inverse
Schur functor's definition makes equal (`inverse_schur_numbers`), the
kernel generators over the whole tabloid space (`ker_q_generators`), the
composition factors solved through the simple characters
(`factors_by_simple_characters`), the span helpers, the span engine at
odd p (`SparseSpanBuilder`, `SparseSubspace`; the package eliminates only
over GF(2)), the column order of two tableaux (`col_compare`) and the row
tabloids have no caller in the package; they live here as references for
the tests.
So do the literature oracles for the derived decomposition rows: the
characteristic-2 rows of degrees 1 to 5 (`literature_rows`, read from
`decomposition_p2.txt`) and the dimension polynomials of the degree-5
simple modules (`DEGREE5_DIM_POLYS`), and the GF(2) endomorphism ring of a
Specht module built from its standard polytabloids
(`specht_endomorphisms`), the oracle of the indecomposability corollary."""

import random
from collections import Counter
from enum import Enum
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, permutations, product
from math import comb
from pathlib import Path

from dualweyl.garnir import (
    equal_boxes,
    garnir_terms,
    iter_relation_labels,
    snake_box,
    snake_terms,
)
from dualweyl.decomposition import _solve_unitriangular, decomposition_rows
from dualweyl.gfp import SpanBuilder, Subspace
from dualweyl.partitions import (
    InvariantError,
    Partition,
    _check_prime,
    parse_partition,
    partitions_of,
)
from dualweyl.quotients import (
    _col_key,
    _dominant_block,
    _kernel_dims,
    _make_blocks,
    _push_terms,
    _straighten,
    build_gtensor_specht,
)
from dualweyl.tableaux import (
    Box,
    Cols,
    Tableau,
    TableauClass,
    enumerate_tableaux,
    kostka_number,
    weight_of,
)
from dualweyl.tabloids import (
    TabloidBasis,
    TabloidKind,
    TabloidVector,
    build_basis,
    canonical_cols,
    canonicalize,
    has_column_repeat,
    skew_column,
    tabloid_kind,
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


class ColOrderResult(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUIVALENT = "equivalent"


def col_compare(t: Tableau, u: Tableau) -> ColOrderResult:
    """Compare two same-shape tableaux in the column order.

    EQUIVALENT means every column carries the same multiset of entries.
    Otherwise the largest entry whose column placement differs decides,
    with the leftmost such column breaking ties; holding that entry in
    the earlier column makes a tableau the greater one.
    """
    return col_order(t.cols, u.cols)


def col_order(a: Cols, b: Cols) -> ColOrderResult:
    """`col_compare` on the column tuples of two tableaux."""
    if [len(c) for c in a] != [len(c) for c in b]:
        raise ValueError("tableaux must have the same shape")
    best: tuple[int, int, bool] | None = None  # (m, -j, m held by a)
    for j, (ca, cb) in enumerate(zip(a, b), 1):
        if ca == cb:
            continue
        diff = Counter(ca)
        diff.subtract(Counter(cb))
        for entry, mult in diff.items():
            if mult == 0:
                continue
            key = (entry, -j, mult > 0)
            if best is None or key[:2] > best[:2]:
                best = key
    if best is None:
        return ColOrderResult.EQUIVALENT
    return ColOrderResult.GREATER if best[2] else ColOrderResult.LESS


def naive_sort_column(seq, kind):
    """The column rule by hand: the sorted column and its sign, 1 on the
    mod-2 skew kind; on the alternating kind 0 when a set of the entries
    is smaller than the column, else -1 to the strict inversions, counted
    pair by pair."""
    col = tuple(sorted(seq))
    if kind is TabloidKind.SKEW_MOD_2:
        return col, 1
    if len(set(seq)) < len(seq):
        return col, 0
    return col, (-1) ** sum(1 for a, b in combinations(seq, 2) if a > b)


def naive_snake_terms(cols, i, j, kind):
    """The snake at the 0-based box (i, j) of a canonical tableau, with no
    template: every refilling of A (column j from row i down) and B
    (column j + 1 down to row i) by their entries, order-preserving within
    each, signed by the refilling's strict inversions and by both columns'
    `naive_sort_column` signs (only the parity kept for mod-2 skew)."""
    left, right = cols[j], cols[j + 1]
    rows_a, rows_b = range(i, len(left)), range(i + 1)
    entries = [left[r] for r in rows_a] + [right[r] for r in rows_b]
    out = {}
    for chosen in combinations(range(len(entries)), len(rows_a)):
        rest = [x for x in range(len(entries)) if x not in chosen]
        first, second = list(left), list(right)
        for r, e in zip(rows_a, chosen):
            first[r] = entries[e]
        for r, e in zip(rows_b, rest):
            second[r] = entries[e]
        a, sa = naive_sort_column(first, kind)
        b, sb = naive_sort_column(second, kind)
        shuffle = sum(1 for x in chosen for y in rest if x > y)
        key = cols[:j] + (a, b) + cols[j + 2:]
        out[key] = out.get(key, 0) + (-1) ** shuffle * sa * sb
    if kind is TabloidKind.SKEW_MOD_2:
        return {t: 1 for t, c in out.items() if c % 2}
    return {t: c for t, c in out.items() if c}


class CountingLetter(int):
    """A letter that counts the ``>`` comparisons made on it, in the
    class attribute ``greater``."""

    greater = 0

    def __gt__(self, other):
        CountingLetter.greater += 1
        return int(self) > int(other)


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
    spans = block_spans(module)
    table = {}
    for w, block in sorted(module._layout.blocks.items()):
        probe = probe_builder(spans[w])
        grown = sum(
            1
            for cols, j in block_pos(module.ambient.cols, block).items()
            if has_column_repeat(cols) and probe.add({j: 1})
        )
        if grown:
            table[w] = grown
    return table


def block_spans(module) -> dict[tuple[int, ...], Subspace]:
    """The relation span of each weight block of a module, by weight, in
    reduced row-echelon form over its local coordinates, rebuilt with the
    span engine at p (`span_builder`) from the module's record of the
    block's packed weight: e_i less the image of i for each local
    coordinate i outside R, and the rows of Q, if any, each mapped through
    the local coordinates of R. Blocks of one packed weight get one
    rebuilt span."""
    p, rebuilt = module.p, {}
    for key, record in module._spans.items():
        r_pos = record.r_pos
        size = len(record.images)
        builder = span_builder(size, p)
        for i in sorted(set(range(size)) - set(r_pos)):
            image = record.images[i]
            if record.q is not None:  # a mask, on the mod-2 skew kind
                image = [(j, 1) for j in range(len(r_pos)) if image >> j & 1]
            builder.add({i: 1, **{r_pos[j]: -c for j, c in image}})
        for row in record.q.basis_rows() if record.q is not None else ():
            builder.add({r_pos[j]: c for j, c in enumerate(row) if c})
        rebuilt[key] = builder.subspace()
    return {w: rebuilt[b.key] for w, b in module._layout.blocks.items()}


def block_pos(cols, block) -> dict:
    """The local coordinate of each representative of a layout block,
    keyed by its columns, given the basis columns ``cols``: the key of
    `_push_terms` in the reference builds."""
    return {cols[i]: j for j, i in enumerate(block.indices)}


def probe_builder(subspace: Subspace) -> SpanBuilder:
    """A fresh builder holding the span of a frozen subspace, from its
    basis rows, to probe rank growth by elimination."""
    builder = span_builder(subspace.ambient_dim, prime_of(subspace))
    for row in subspace.basis_rows():
        builder.add(sparse(row))
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
    kind = tabloid_kind(which, p)
    cols = build_basis(shape, d, kind).cols
    blocks = _make_blocks(cols, d)
    pos = {w: block_pos(cols, block) for w, block in blocks.items()}
    spans = {w: span_builder(block.size, p) for w, block in blocks.items()}
    for family in families:
        for label in iter_relation_labels(shape, d, family, kind):
            terms = garnir_terms(label, kind)
            if terms:
                w = label.t.weight(d)
                local = {t.cols: c for t, c in terms.items()}
                _push_terms(spans[w], local, pos[w], p)
    return sum(span.rank for span in spans.values())


def unshared_build(shape, d, p, kind):
    """The full build with every weight block eliminated on its own, with
    no span shared between blocks of one packed weight: the reference for
    that sharing in `quotients._build`. The basis is grouped here by the
    weight of each representative, in basis order. Returns, by weight, the
    block's local coordinates keyed by column tuple, its frozen span and
    its basic rank, and the number of relations each block pushed."""
    grouped: dict[tuple[int, ...], dict] = {}
    for cols in build_basis(shape, d, kind).cols:
        pos = grouped.setdefault(weight_of(cols, d), {})
        pos[cols] = len(pos)
    blocks, pushes = {}, dict.fromkeys(grouped, 0)
    for w, pos in grouped.items():
        span, row_semistandard = span_builder(len(pos), p), []
        for cols in pos:
            box = snake_box(cols)
            if box is None:
                row_semistandard.append(cols)
                continue
            terms = snake_terms(cols, *box, kind)
            if terms:
                _push_terms(span, terms, pos, p)
                pushes[w] += 1
        basic_rank = span.rank
        if not kind.zero_on_column_repeats:
            for cols in row_semistandard:
                for box in equal_boxes(cols):
                    terms = snake_terms(cols, *box, kind)
                    if terms:
                        _push_terms(span, terms, pos, p)
                        pushes[w] += 1
        blocks[w] = pos, span.subspace(), basic_rank
    return blocks, pushes


# Dimension polynomials of the degree-5 simple modules in characteristic 2,
# coefficients of d^5..d^1.
DEGREE5_DIM_POLYS: dict[Partition, tuple[Fraction, ...]] = {
    Partition((1, 1, 1, 1, 1)): (
        Fraction(1, 120), Fraction(-1, 12), Fraction(7, 24), Fraction(-5, 12), Fraction(1, 5),
    ),
    Partition((2, 1, 1, 1)): (
        Fraction(1, 30), Fraction(-1, 6), Fraction(1, 6), Fraction(1, 6), Fraction(-1, 5),
    ),
    Partition((2, 2, 1)): (
        Fraction(1, 30), Fraction(0), Fraction(-1, 3), Fraction(1, 2), Fraction(-1, 5),
    ),
    Partition((3, 1, 1)): (
        Fraction(0), Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3), Fraction(0),
    ),
    Partition((3, 2)): (
        Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(0),
    ),
    Partition((4, 1)): (
        Fraction(0), Fraction(1, 3), Fraction(0), Fraction(-1, 3), Fraction(0),
    ),
    Partition((5,)): (
        Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(0),
    ),
}


def literature_rows() -> dict[Partition, dict[Partition, int]]:
    """The characteristic-2 decomposition rows of degrees 1 to 5 from the
    literature, one line per dual Weyl row: ``mu; nu1:mult1, ...``."""
    rows = {}
    path = Path(__file__).with_name("decomposition_p2.txt")
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        mu, _, entries = line.partition(";")
        rows[parse_partition(mu)] = {
            parse_partition(nu): int(mult)
            for nu, _, mult in (e.rpartition(":") for e in entries.split(", "))
        }
    return rows


def patch_values(monkeypatch, module, name, faults):
    """Replace module.<name> by a function that returns faults[args] where
    given and the true value elsewhere."""
    true = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: faults.get(args, true(*args)))


def record_pushes(monkeypatch) -> list[list[int]]:
    """Make each `SpanBuilder` that `quotients` builds record the masks
    pushed onto it, in order: one list per builder, in the order they are
    made."""
    from dualweyl import quotients

    pushes: list[list[int]] = []

    class Recording(SpanBuilder):
        def __init__(self, ambient_dim: int):
            super().__init__(ambient_dim)
            self.pushed: list[int] = []
            pushes.append(self.pushed)

        def add_mask(self, mask: int) -> bool:
            self.pushed.append(mask)
            return super().add_mask(mask)

    monkeypatch.setattr(quotients, "SpanBuilder", Recording)
    return pushes


def simple_character(mu):
    """Coefficients of the mu-simple's character on the Schur basis, by
    inverting the unitriangular decomposition matrix row by row."""
    out = {mu: 1}
    for nu, mult in decomposition_rows(mu.n)[mu].items():
        if nu == mu:
            continue
        for rho, c in simple_character(nu).items():
            out[rho] = out.get(rho, 0) - mult * c
    return {rho: c for rho, c in out.items() if c}


def factors_by_simple_characters(shape):
    """Composition factors of the kernel solved against the weight
    multiplicities of the simples at d = n (their Schur characters read
    through the Kostka numbers), a unit lower triangular system in
    `partitions_of` order."""
    n = shape.n
    labels = list(partitions_of(n))
    kernel = _kernel_dims(shape, n)
    chars = {mu: simple_character(mu) for mu in labels}
    matrix = {
        beta: {
            mu: sum(c * kostka_number(rho, beta) for rho, c in chars[mu].items())
            for mu in labels
        }
        for beta in labels
    }
    rhs = {beta: kernel.get(beta, 0) for beta in labels}
    solution = _solve_unitriangular(labels, matrix, rhs)
    return {mu: v for mu, v in solution.items() if v}


def packed_weight(w):
    """The nonzero entries of a weight, in order."""
    return tuple(x for x in w if x)


def straighten_terms(
    terms: dict[Cols, int], kind: TabloidKind, p: int
) -> dict[Cols, int]:
    """A combination of canonical representatives of ``kind`` expressed
    over the row-semistandard ones modulo the basic snakes, with
    coefficients in [1, p). The greatest term that is not row
    semistandard is replaced by the rest of its basic snake, until none is
    left. Each basic snake must lead with its source, with coefficient 1,
    and bring in only smaller terms, so a term once replaced never comes
    back (the basic snakes are unitriangular). The reference for
    `quotients._straighten`: it straightens every call from scratch, mod
    p, and reads no image it has met before."""
    out = {t: c % p for t, c in terms.items() if c % p}
    heap = []
    for cols in out:
        box = snake_box(cols)
        if box is not None:
            heap.append((_col_key(cols), cols, box))
    heapify(heap)
    while heap:
        key, target, box = heappop(heap)
        coeff = out.pop(target, None)
        if coeff is None:  # cancelled, or queued twice
            continue
        rel = snake_terms(target, *box, kind)
        if rel.pop(target, 0) % p != 1:
            raise InvariantError(f"basic snake of {target} does not lead with it")
        for cols, c in rel.items():
            old = out.get(cols)
            v = ((old or 0) - coeff * c) % p
            if v:
                out[cols] = v
                if old is None and (snake := snake_box(cols)) is not None:
                    k = _col_key(cols)
                    if k <= key:
                        raise InvariantError(
                            f"basic snake of {target} brings in {cols}, "
                            "which is not below it"
                        )
                    heappush(heap, (k, cols, snake))
            elif old is not None:
                del out[cols]
    return out


def straighten_vector(vec: TabloidVector) -> TabloidVector:
    """Straighten every term of a vector of tabloids."""
    basis = vec.basis
    terms = {basis.cols[i]: c for i, c in vec.coords.items()}
    out = straighten_terms(terms, basis.kind, vec.p)
    coords = {basis.index_of(Tableau(c)): v for c, v in out.items()}
    return TabloidVector(basis, vec.p, coords)


def inverse_schur_numbers(shape: Partition, p: int) -> dict:
    """For every beta |- n, three numbers that the definition of the
    inverse Schur functor makes equal, if the construction is its image of
    the Specht module S: the dimension of the construction's weight-beta
    block; the rank of the map onto that block from its (1^n) block at
    d = n, which merges the letters of each block of beta (1..beta_1 onto
    1, and so on); and f^shape less dim sum_i im(1 - s_i), over the
    transpositions s_i of adjacent letters inside one block of beta. The
    (1^n) block is S, with S_n permuting its letters, and has no
    supplementary snake; its R are the standard tableaux. The weight-beta
    space of E^{(x)n} (x)_{FS_n} S is F[S_beta \\ S_n] (x)_{FS_n} S, the
    coinvariants S / (1 - S_beta) S, which the third number counts and the
    merge map sends onto the block. Every tabloid is straightened with
    `quotients._straighten`; each s_i acts on distinct letters only."""
    n, kind = shape.n, skew_column(p)
    standard = enumerate_tableaux(shape, n, TableauClass.STANDARD, (1,) * n)
    r = {cols: j for j, cols in enumerate(standard)}

    def renamed(letters, cols, coords):
        moved = tuple(tuple(letters[x] for x in col) for col in cols)
        moved, sign, is_zero = canonical_cols(moved, kind)
        return _straighten({} if is_zero else {moved: sign}, kind, coords, {})

    def push(builder, image):
        if isinstance(image, int):
            return builder.add_mask(image)
        return builder.add(image)

    moved_less_fixed = {}  # s_i T - T, per i, over the standard T
    for i in range(1, n):
        letters = list(range(n + 1))
        letters[i], letters[i + 1] = i + 1, i
        moved_less_fixed[i] = []
        for j, cols in enumerate(standard):
            image = renamed(letters, cols, r)
            if isinstance(image, int):
                image ^= 1 << j
            else:
                image[j] = image.get(j, 0) - 1
            moved_less_fixed[i].append(image)
    out = {}
    for beta in partitions_of(n):
        merge = [0] + [k for k, part in enumerate(beta, 1) for _ in range(part)]
        coinvariants = span_builder(len(standard), p)
        for i in range(1, n):
            if merge[i] == merge[i + 1]:
                for image in moved_less_fixed[i]:
                    push(coinvariants, image)
        if p == 2:
            reps, relations = _dominant_block(shape, beta)
            coords = {cols: j for j, cols in enumerate(reps)}
        else:  # the alternating kind: no relation is left on R
            reps = enumerate_tableaux(
                shape, len(beta), TableauClass.SEMISTANDARD, tuple(beta)
            )
            coords = {cols: j for j, cols in enumerate(reps)}
            relations = SparseSubspace(len(reps), p)
        merged = probe_builder(relations)  # the rank it gains is the map's
        rank = sum(push(merged, renamed(merge, cols, coords)) for cols in standard)
        out[beta] = (
            len(coords) - relations.dim,
            rank,
            len(standard) - coinvariants.rank,
        )
    return out


def unit_vector(basis: TabloidBasis, p: int, t: Tableau) -> TabloidVector:
    return TabloidVector(basis, p, {basis.index_of(t): 1})


def sparse(row) -> dict[int, int]:
    """A dense row as the sparse dict {coordinate: coefficient} that the
    span engine takes."""
    return {i: c for i, c in enumerate(row) if c}


def span(vectors, ambient_dim: int, p: int) -> Subspace:
    """Reduced row-echelon span of the given sparse vectors."""
    builder = span_builder(ambient_dim, p)
    for v in vectors:
        builder.add(v)
    return builder.subspace()


def matrix_rank(rows, ambient_dim: int, p: int) -> int:
    return span(rows, ambient_dim, p).dim


def dim_sum_and_intersection(s: Subspace, t: Subspace) -> tuple[int, int]:
    """(dim(S+T), dim(S∩T)) via rank of the stacked bases."""
    p = prime_of(s)
    if s.ambient_dim != t.ambient_dim or p != prime_of(t):
        raise ValueError("subspaces must share ambient space and prime")
    rows = [sparse(row) for row in s.basis_rows() + t.basis_rows()]
    dim_sum = span(rows, s.ambient_dim, p).dim
    return dim_sum, s.dim + t.dim - dim_sum


def span_builder(ambient_dim: int, p: int):
    """An empty span builder over GF(p)^m: the package's GF(2) engine at
    p = 2, the sparse-dict reference (`SparseSpanBuilder`) at odd p."""
    return SpanBuilder(ambient_dim) if p == 2 else SparseSpanBuilder(ambient_dim, p)


def prime_of(s) -> int:
    """The prime of a subspace or builder of either engine."""
    return s.p if isinstance(s, SparseRows) else 2


def subspace_from_reduced_rows(ambient_dim: int, p: int, rows):
    """The subspace of rows already in reduced row-echelon form: bit masks
    at p = 2, sparse dicts with coefficients in [1, p) otherwise. Each
    row's lowest coordinate is its pivot, with coefficient 1, and no pivot
    coordinate occurs in another row; other rows are refused. The rows
    are kept as given, with no elimination."""
    piv = {}
    for row in rows:
        if p == 2:
            key = row & (-row)
            bad = row <= 0 or row >> ambient_dim
        else:
            key = min(row, default=-1)
            bad = (
                key < 0
                or row[key] != 1
                or max(row) >= ambient_dim
                or min(row.values()) < 1
                or max(row.values()) >= p
            )
        if bad or key in piv:
            raise ValueError(
                f"{row!r} is not a reduced echelon row of GF({p})^{ambient_dim}"
            )
        piv[key] = row
    if p == 2:
        mask = sum(piv)
        clash = [k.bit_length() - 1 for k, row in piv.items() if row & mask != k]
    else:
        clash = [k for k, row in piv.items() if len(row.keys() & piv.keys()) > 1]
    if clash:
        raise ValueError(f"the row of pivot {clash[0]} holds another pivot")
    if p == 2:
        return Subspace(ambient_dim, piv)
    out = SparseSubspace(ambient_dim, p)
    out._piv.update(piv)
    return out


def _clear_dict(
    v: dict[int, int], piv: dict[int, dict[int, int]], p: int
) -> dict[int, int]:
    """Clear the pivot coordinates of v in place (coefficients in [1, p)),
    in increasing order, and return it. The rows are echelon: subtracting
    the row of pivot j changes only coordinates above j, so a pivot it
    brings in is queued and a cleared one never comes back. Against
    reduced rows nothing is brought in, and the result is canonical."""
    heap = [j for j in v if j in piv]
    heapify(heap)
    get = v.get
    while heap:
        j = heappop(heap)
        c = get(j)
        if c is None:  # cancelled, or queued twice
            continue
        c = p - c
        for i, a in piv[j].items():
            x = get(i)
            if x is None:
                v[i] = c * a % p
                if i in piv:
                    heappush(heap, i)
            else:
                x = (x + c * a) % p
                if x:
                    v[i] = x
                else:
                    del v[i]
    return v


class SparseRows:
    """The reference span engine over GF(p), for the odd primes, where the
    package eliminates nothing: rows over GF(p)^m as sparse dicts
    {coordinate: coefficient in [1, p)}, keyed by pivot, the lowest
    coordinate, which has coefficient 1. Its methods are those of the
    package's GF(2) engine (`dualweyl.gfp`), and it takes vectors as the
    same sparse dicts. Stored rows are never modified in place, so a
    builder and the subspace frozen from it may share them."""

    def __init__(self, ambient_dim: int, p: int):
        _check_prime(p)
        self.ambient_dim = ambient_dim
        self.p = p
        self._piv: dict[int, dict[int, int]] = {}

    @property
    def dim(self) -> int:
        return len(self._piv)

    def _residual(self, vec) -> dict[int, int]:
        """A fresh sparse dict of vec mod p, reduced modulo the span: zero
        on every pivot coordinate, empty iff contained."""
        if not isinstance(vec, dict):
            raise TypeError(f"expected a sparse dict, got {type(vec).__name__}")
        m, p = self.ambient_dim, self.p
        if vec and (min(vec) < 0 or max(vec) >= m):
            raise ValueError(f"coordinate out of range({m})")
        return _clear_dict({i: c % p for i, c in vec.items() if c % p}, self._piv, p)

    def contains(self, vec) -> bool:
        return not self._residual(vec)


class SparseSubspace(SparseRows):
    """A frozen subspace held as a reduced row-echelon basis, canonical."""

    def basis_rows(self) -> list[tuple[int, ...]]:
        """Dense basis rows with entries in [0, p), in pivot order."""
        m = self.ambient_dim
        return [tuple(self._piv[k].get(i, 0) for i in range(m)) for k in sorted(self._piv)]

    def pivot_indices(self) -> list[int]:
        return sorted(self._piv)

    def reduce(self, vec) -> dict[int, int]:
        """Canonical representative of vec modulo the subspace."""
        return self._residual(vec)


class SparseSpanBuilder(SparseRows):
    """Incremental row-echelon builder, echelon but not reduced; its
    `subspace` back-substitutes once, from the highest pivot down."""

    rank = SparseRows.dim

    def subspace(self) -> SparseSubspace:
        out = SparseSubspace(self.ambient_dim, self.p)
        done, p = out._piv, self.p
        for k in sorted(self._piv, reverse=True):
            row = self._piv[k]
            if any(i in done for i in row):
                row = _clear_dict(dict(row), done, p)
            done[k] = row
        return out

    def add(self, vec) -> bool:
        p = self.p
        v = self._residual(vec)
        if not v:
            return False
        j = min(v)
        inv = pow(v[j], -1, p)
        self._piv[j] = v if inv == 1 else {i: c * inv % p for i, c in v.items()}
        return True


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


def transvection_oracle(
    vec: TabloidVector, source: int, target: int, p: int
) -> TabloidVector:
    """The transvection expanded box by box: every subset of the source
    positions of a tabloid, over all its columns at once, substituted on a
    copy of the whole filling and canonicalized; `apply_transvection`
    works column by column instead."""
    basis = vec.basis
    out: dict[Cols, int] = {}
    for idx, coeff in vec.coords.items():
        cols = basis.cols[idx]
        spots = [
            (j, i) for j, col in enumerate(cols) for i, x in enumerate(col) if x == source
        ]
        for r in range(len(spots) + 1):
            for subset in combinations(spots, r):
                term = [list(c) for c in cols]
                for j, i in subset:
                    term[j][i] = target
                key, sign, is_zero = canonical_cols(tuple(map(tuple, term)), basis.kind)
                if not is_zero:
                    out[key] = out.get(key, 0) + coeff * sign
    return TabloidVector(
        basis, p, {basis.index_of(Tableau(k)): c % p for k, c in out.items() if c % p}
    )


def unrank_tabloid(shape: Partition, d: int, strict: bool, index: int) -> Cols:
    """The columns of the tabloid at ``index`` in the lex listing of a
    tabloid space, found without listing it: the index split into one
    digit per column, the rightmost column least significant, each digit
    the number of smaller columns of its height, and each column built
    letter by letter, skipping past every letter whose columns all come
    before the digit. Columns are sets of letters 1..d (``strict``) or
    multisets."""

    def count(h, low):  # columns of height h with letters low..d
        letters = d - low + 1
        return comb(letters, h) if strict else comb(letters + h - 1, h)

    heights = shape.conjugate()
    digits = []
    for h in reversed(heights):
        index, digit = divmod(index, count(h, 1))
        digits.append(digit)
    if index:
        raise ValueError("index past the end of the space")
    cols = []
    for h, digit in zip(heights, reversed(digits)):
        col, low = [], 1
        for slot in range(h, 0, -1):
            x = low
            while digit >= (after := count(slot - 1, x + strict)):
                digit -= after
                x += 1
            col.append(x)
            low = x + strict
        cols.append(tuple(col))
    return tuple(cols)


def _standard_tableaux(parts):
    """The standard tableaux of a shape, as lists of rows."""
    n, out = sum(parts), []

    def grow(rows, k):
        if k > n:
            out.append([list(r) for r in rows])
            return
        for i, part in enumerate(parts):
            if len(rows[i]) < part and (i == 0 or len(rows[i - 1]) > len(rows[i])):
                rows[i].append(k)
                grow(rows, k + 1)
                rows[i].pop()

    grow([[] for _ in parts], 1)
    return out


def _gf2_pivots(vectors):
    """GF(2) bit masks in echelon form keyed by lowest set bit, each with
    the combination of the inputs it is, as a mask over their positions;
    the inputs must be independent."""
    pivots = {}
    for k, v in enumerate(vectors):
        combo = 1 << k
        while v:
            low = v & -v
            if low not in pivots:
                pivots[low] = (v, combo)
                break
            m, c = pivots[low]
            v, combo = v ^ m, combo ^ c
        else:
            raise AssertionError("the vectors are dependent")
    return pivots


def specht_endomorphisms(shape) -> tuple[int, list[int]]:
    """(f, a basis of End(S^shape) over GF(2)), with no use of the package's
    constructions. S^shape is spanned inside the permutation module of row
    tabloids by the f standard polytabloids (James, LNM 682, section 8);
    mod 2 a polytabloid is the set of the tabloids {sigma t}, sigma in the
    column group, which are distinct. An endomorphism is an f x f matrix
    that commutes with the action of (1 2) and of (1 2 ... n), which
    generate S_n; entry (i, k) is bit i*f + k of its mask."""
    parts = tuple(shape)
    n = sum(parts)
    tabloids: dict[tuple[int, ...], int] = {}

    def polytabloid(rows):
        row_of_entry = {x: i for i, r in enumerate(rows) for x in r}
        cols = [[r[j] for r in rows if j < len(r)] for j in range(len(rows[0]))]
        mask = 0
        for images in product(*(permutations(c) for c in cols)):
            row_of = [0] * n
            for col, image in zip(cols, images):
                for x, y in zip(col, image):
                    row_of[y - 1] = row_of_entry[x]
            mask |= 1 << tabloids.setdefault(tuple(row_of), len(tabloids))
        return mask

    basis = _standard_tableaux(parts)
    f = len(basis)
    pivots = _gf2_pivots([polytabloid(rows) for rows in basis])

    def coordinates(v):  # over the standard polytabloids
        combo = 0
        while v:
            m, c = pivots[v & -v]
            v, combo = v ^ m, combo ^ c
        return combo

    # One equation per entry (i, j) of A M - M A, for the matrix M of each
    # generator, whose column j is the coordinates of g e_t = e_{g t}.
    equations = []
    generators = [[2, 1] + list(range(3, n + 1)), list(range(2, n + 1)) + [1]]
    for g in generators if n > 1 else []:
        cols = [coordinates(polytabloid([[g[x - 1] for x in r] for r in rows]))
                for rows in basis]
        for i in range(f):
            m_row = 0  # the entries M[i][k], at bits k*f
            for k in range(f):
                if cols[k] >> i & 1:
                    m_row |= 1 << (k * f)
            equations += [(cols[j] << (i * f)) ^ (m_row << j) for j in range(f)]
    # Echelon form of the equations, keyed by lowest bit, then reduced from
    # the highest pivot down; each free unknown gives one solution.
    echelon: dict[int, int] = {}
    for v in equations:
        while v and (low := v & -v) in echelon:
            v ^= echelon[low]
        if v:
            echelon[low] = v
    reduced: dict[int, int] = {}
    pivot_mask = 0
    for low in sorted(echelon, reverse=True):
        row, todo = echelon[low], echelon[low] & pivot_mask
        while todo:  # a reduced row holds its pivot and free unknowns only
            q = todo & -todo
            row ^= reduced[q]
            todo ^= q
        reduced[low] = row
        pivot_mask |= low
    ends = []
    for v in range(f * f):
        free = 1 << v
        if not free & pivot_mask:
            ends.append(free | sum(low for low, row in reduced.items() if row & free))
    return f, ends


def nontrivial_idempotents(f: int, basis: list[int]) -> list[int]:
    """The idempotents other than 0 and 1 among the GF(2) combinations of
    f x f matrices given as masks, entry (i, k) at bit i*f + k."""
    if len(basis) > 12:
        raise ValueError("too many combinations to list")
    full, one = (1 << f) - 1, sum(1 << (i * f + i) for i in range(f))
    out = []
    for choice in range(1, 1 << len(basis)):
        x = 0
        for k, b in enumerate(basis):
            if choice >> k & 1:
                x ^= b
        rows = [x >> (i * f) & full for i in range(f)]
        square = 0
        for i, row in enumerate(rows):
            acc = 0
            for k in range(f):
                if row >> k & 1:
                    acc ^= rows[k]
            square |= acc << (i * f)
        if square == x != one:
            out.append(x)
    return out


def prod(items):
    result = 1
    for x in items:
        result *= x
    return result


__all__ = [
    "Partition",
    "apply_e_map",
    "block_pos",
    "block_spans",
    "brute_fillings",
    "column_antisymmetrization",
    "dim_sum_and_intersection",
    "family_rank",
    "garnir_oracle",
    "inverse_schur_numbers",
    "kernel_table_all_blocks",
    "ker_q_generators",
    "matrix_rank",
    "nontrivial_idempotents",
    "packed_weight",
    "place_permute",
    "probe_builder",
    "prod",
    "reduce_oracle",
    "row_sort",
    "shuffled_template",
    "specht_endomorphisms",
    "rref_oracle",
    "span",
    "sparse",
    "straighten_terms",
    "straighten_vector",
    "transvection_oracle",
    "unit_vector",
    "unshared_build",
]
