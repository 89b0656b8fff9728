"""Quotient-module assembly: dual Weyl modules and inverse-Schur images.

Both modules are quotients of a tabloid space by a relation span. Every
relation reaches a span by one routine, `_push_terms`, which pushes it
into the weight block of its source tableau: relations are weight
homogeneous, and a term outside that block is an error. Blocks key their
representatives by column tuple, and relations are expanded straight
from the columns with the template kernel of `garnir`, so neither the
builds nor `reduce`, `relations_contain` and the transvections create a
`Tableau`.

A full build (`_build`) pushes the basic snakes, then the supplementary
ones, into every weight block; its spans are `SpanBuilder`s in
row-echelon form while relations are pushed, and each block is frozen
once, at the end, into the canonical reduced `Subspace`. Every block is
frozen, the cached dominant blocks below included, so no module or cache
holds a builder. Module objects (reduce, quotient_indices, weight tables,
transvections), the thm1 check and `restrict_entries` use the full build,
which, like a dominant block, is keyed by tabloid kind and so shared by
the two constructions at odd p.

Dimensions (`module_dim`), the isomorphism test (`verify_iso`) and the
kernel U (`u_lambda_weight_table`, `u_lambda_dim`) read only the dominant
blocks, of content beta a partition of n with at most d parts. This is
exact for two reasons. Both modules and U are polynomial GL_d-modules, so
a weight multiplicity is constant on the S_d-orbit of the weight (Green,
Polynomial Representations of GL_n, LNM 830). And a block of content
beta padded with zeros uses only the letters 1..len(beta), so it is the
same block for every d >= len(beta); dominant blocks are built per
content and shared across d.

A dominant block is built in R-coordinates, without eliminating a basic
snake. The basic snake of a tableau that is not row semistandard leads
with it, with coefficient 1, and all its other terms are smaller in the
column order; so the row-semistandard representatives R are a basis of
the block modulo the basic snakes (the standard-basis theorem:
Desarmenien, Kung and Rota, Adv. Math. 27, 1978; James, LNM 682, section
8). `_straighten_terms` expresses a combination over R. A dominant
block depends on the tabloid kind, not on the construction or the prime:
an alternating block, which serves the dual Weyl module at every p and
the skew construction at odd p, has no relation left, and its dimension
is |R_beta|; a mod-2 skew block straightens its supplementary snakes
onto R and eliminates only those. The rank of the basic relations is
then the number of tabloids outside R, which is how
`predictions.supplementary_rank_gain` counts the rank the supplementary
snakes add without a full build.

The kernel U is then a count in the same coordinates, with no
elimination: see `_kernel_dims`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import factorial, perm
from typing import Iterator, Sequence

from .garnir import equal_boxes, snake_box, snake_terms
from .gfp import SpanBuilder, Subspace
from .partitions import (
    InvariantError,
    Partition,
    count_syt,
    hook_content_dim,
    partitions_of,
)
from .tableaux import Cols, Tableau, enumerate_tableaux, weight_of
from .tabloids import (
    ALT_COLUMN,
    TabloidBasis,
    TabloidKind,
    TabloidVector,
    build_basis,
    canonical_cols,
    has_column_repeat,
    row_semistandard_class,
    skew_column,
)

WeightTable = dict[tuple[int, ...], int]


@dataclass
class _Block:
    indices: list[int]  # positions in the grouped sequence (ambient indices)
    pos: dict[Cols, int]  # columns of a representative -> local coordinate
    span: SpanBuilder | Subspace  # a builder until the block is frozen
    basic_rank: int = 0

    @property
    def size(self) -> int:
        return len(self.indices)


class QuotientModule:
    """A tabloid space together with a relation span, graded by weight;
    every block holds its frozen `Subspace`."""

    def __init__(
        self,
        ambient: TabloidBasis,
        p: int,
        blocks: dict[tuple[int, ...], _Block],
    ):
        self.ambient = ambient
        self.p = p
        self._blocks = blocks

    @property
    def supplementary_rank_gain(self) -> int | None:
        """Rank the supplementary snakes add to the basic ones; None only
        for the alternating build at p = 2, which is not a skew build."""
        if self.ambient.kind is not skew_column(self.p):
            return None
        return sum(b.span.dim - b.basic_rank for b in self._blocks.values())

    @property
    def relation_rank(self) -> int:
        return sum(b.span.dim for b in self._blocks.values())

    @property
    def dim(self) -> int:
        return self.ambient.dim - self.relation_rank

    def weight_table(self) -> WeightTable:
        table = {
            w: b.size - b.span.dim
            for w, b in sorted(self._blocks.items())
        }
        return {w: v for w, v in table.items() if v}

    def _split(self, vec: TabloidVector) -> dict[tuple[int, ...], dict[int, int]]:
        if vec.basis is not self.ambient:
            raise ValueError("vector lives over a different basis")
        parts: dict[tuple[int, ...], dict[int, int]] = {}
        cols, d = self.ambient.cols, self.ambient.d
        for i, c in vec.coords.items():
            w = weight_of(cols[i], d)
            # A block's ambient indices are increasing, so the local
            # coordinate of i is its rank among them.
            parts.setdefault(w, {})[bisect_left(self._blocks[w].indices, i)] = c
        return parts

    def relations_contain(self, vec: TabloidVector) -> bool:
        return all(
            self._blocks[w].span.contains(local)
            for w, local in self._split(vec).items()
        )

    def reduce(self, vec: TabloidVector) -> TabloidVector:
        """Canonical representative of vec in the quotient (zero iff the
        vector lies in the relation span)."""
        coords: dict[int, int] = {}
        for w, local in self._split(vec).items():
            block = self._blocks[w]
            reduced = block.span.reduce(local)
            for j, c in reduced.items():
                coords[block.indices[j]] = c
        return TabloidVector(self.ambient, self.p, coords)

    def quotient_indices(self) -> list[int]:
        """Ambient indices of the non-pivot coordinates, one per quotient
        basis element."""
        out = []
        for _, block in sorted(self._blocks.items()):
            pivots = set(block.span.pivot_indices())
            out.extend(
                idx for j, idx in enumerate(block.indices) if j not in pivots
            )
        return sorted(out)


def _tabloid_kind(model: str, p: int) -> TabloidKind:
    """The tabloid kind of a construction at p: the one place that maps a
    (model, p) pair to a kind."""
    if model == "nabla":
        return ALT_COLUMN
    if model == "gtensor":
        return skew_column(p)
    raise ValueError(f"unknown module {model!r}")


def _make_blocks(
    reps: Sequence[Cols], d: int, p: int
) -> dict[tuple[int, ...], _Block]:
    """Group tableaux, given by their column tuples, by weight, keeping
    their order, each group with an empty span."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, cols in enumerate(reps):
        groups.setdefault(weight_of(cols, d), []).append(i)
    return {
        w: _Block(ix, {reps[i]: j for j, i in enumerate(ix)}, SpanBuilder(len(ix), p))
        for w, ix in groups.items()
    }


def _push_terms(
    span: SpanBuilder,
    terms: dict[Cols, int],
    pos: dict[Cols, int],
    p: int,
) -> bool:
    """Push one relation into the span of the block with local coordinates
    ``pos``. Relations are weight homogeneous, so every term must lie in
    that block; building blocks one content at a time rests on this."""
    if not terms:
        return False
    try:
        local = {pos[t]: c for t, c in terms.items()}
    except KeyError as exc:
        raise InvariantError(
            f"relation term {exc.args[0]} lies outside its weight block"
        ) from None
    if p == 2:
        mask = 0
        for j, c in local.items():
            if c % 2:
                mask |= 1 << j
        return span.add_mask(mask)
    return span.add(local)


@lru_cache(maxsize=256)
def _build(shape: Partition, d: int, p: int, kind: TabloidKind) -> QuotientModule:
    """Every weight block of the tabloid space of one kind with its
    relations pushed; at odd p both constructions are the alternating kind
    and share this build. Each block takes the basic snake of every
    tableau that is not row semistandard and records its rank; then, for
    the mod-2 skew kind, it takes the supplementary snakes of the
    row-semistandard ones (on alternating tabloids every one of them is
    zero). Relations are expanded straight from the column tuples of the
    representatives, and each block is frozen at the end."""
    basis = build_basis(shape, d, kind)
    blocks = _make_blocks(basis.cols, d, p)
    for block in blocks.values():
        row_semistandard = []
        for cols in block.pos:
            box = snake_box(cols)
            if box is None:
                row_semistandard.append(cols)
                continue
            terms = snake_terms(cols, *box, kind)
            if terms:
                _push_terms(block.span, terms, block.pos, p)
        block.basic_rank = block.span.rank
        if not kind.zero_on_column_repeats:
            for cols in row_semistandard:
                for box in equal_boxes(cols):
                    terms = snake_terms(cols, *box, kind)
                    if terms:
                        _push_terms(block.span, terms, block.pos, p)
    for block in blocks.values():
        block.span = block.span.subspace()
    return QuotientModule(basis, p, blocks)


def build_dual_weyl(shape: Partition, d: int, p: int) -> QuotientModule:
    """Alternating column tabloids modulo the basic snake relations."""
    return _build(shape, d, p, _tabloid_kind("nabla", p))


def build_gtensor_specht(shape: Partition, d: int, p: int) -> QuotientModule:
    """Skew column tabloids modulo the basic and supplementary skew snake
    relations; away from characteristic 2 this is the dual Weyl module,
    the same cached object."""
    return _build(shape, d, p, _tabloid_kind("gtensor", p))


# ---------------------------------------------------------------------------
# Dominant blocks


def _dominant_weights(n: int, d: int) -> list[Partition]:
    """The partitions of n with at most d parts, in descending
    lexicographic order, as conjugates of those with parts at most d (so
    that no other partition of n is enumerated)."""
    if d < 1:
        raise ValueError("d must be positive")
    return sorted((mu.conjugate() for mu in partitions_of(n, d)), reverse=True)


def _orbit_size(beta: Partition, d: int) -> int:
    """Number of distinct weights over d letters that rearrange beta."""
    size = perm(d, len(beta))
    for mult in Counter(beta).values():
        size //= factorial(mult)
    return size


def _orbit(beta: Partition, d: int) -> Iterator[tuple[int, ...]]:
    """The distinct rearrangements of beta padded with zeros to d letters."""
    counts = Counter(beta)
    counts[0] += d - len(beta)
    values = sorted(counts)
    weight: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(weight) == d:
            yield tuple(weight)
            return
        for v in values:
            if counts[v]:
                counts[v] -= 1
                weight.append(v)
                yield from rec()
                weight.pop()
                counts[v] += 1

    return rec()


@lru_cache(maxsize=4096)
def _dominant_block(shape: Partition, kind: TabloidKind, beta: Partition) -> _Block:
    """The frozen weight block of content beta, over the letters
    1..len(beta), in R-coordinates; it is the block of beta padded with
    zeros for every larger d. Only the mod-2 skew kind has relations left
    there, its supplementary snakes, over GF(2); an alternating block has
    none at any prime, so its empty span serves every p. Every term of a
    straightened supplementary snake must repeat a column entry: the
    kernel count of `_kernel_dims` rests on it."""
    reps = enumerate_tableaux(
        shape, len(beta), row_semistandard_class(kind), content=tuple(beta)
    )
    blocks = _make_blocks(reps, len(beta), 2)
    block = blocks.get(beta) or _Block([], {}, SpanBuilder(0, 2))
    if not kind.zero_on_column_repeats:
        semistandard = {cols for cols in reps if not has_column_repeat(cols)}
        for cols in reps:
            for box in equal_boxes(cols):
                terms = _straighten_terms(snake_terms(cols, *box, kind), kind, 2)
                if not semistandard.isdisjoint(terms):
                    raise InvariantError(
                        f"snake at {box} of {cols} straightens onto no column repeat"
                    )
                if terms:
                    _push_terms(block.span, terms, block.pos, 2)
    block.span = block.span.subspace()
    return block


def module_dim(which: str, shape: Partition, d: int, p: int) -> int:
    """Dimension of the dual Weyl module (``"nabla"``) or of the skew
    construction (``"gtensor"``), summed over dominant blocks times their
    orbit sizes."""
    kind = _tabloid_kind(which, p)
    total = 0
    for beta in _dominant_weights(shape.n, d):
        block = _dominant_block(shape, kind, beta)
        total += (block.size - block.span.dim) * _orbit_size(beta, d)
    return total


def dominant_rep_bound(which: str, shape: Partition, d: int, p: int) -> int:
    """A closed-form upper bound on the work of the dominant path of
    `module_dim` (and, through the mod-2 skew blocks, of the kernel): the
    number of dominant weights plus the R-representatives of their blocks.

    Standardizing the letters one at a time (the boxes holding letter k
    form a skew shape) maps each R_beta injectively to the standard
    tableaux, so |R_beta| <= f^shape. And every R_beta uses at most
    m = min(d, n) letters, so all of them together are at most the
    representatives over m letters: the hook-content count for
    semistandard ones, and for the row-and-column-semistandard ones of
    mod-2 skew the hook-content count over m + len(shape) - 1 letters,
    since adding i - 1 to row i makes them semistandard."""
    if d < 1:
        raise ValueError("d must be positive")
    kind = _tabloid_kind("gtensor" if which == "u" else which, p)
    m = min(d, shape.n)
    letters = m if kind.zero_on_column_repeats else m + len(shape) - 1
    weights = _partition_count(shape.n, m)
    return weights + min(hook_content_dim(shape, letters), weights * count_syt(shape))


def _partition_count(n: int, k: int) -> int:
    """The number of partitions of n with at most k parts (equivalently,
    with parts at most k)."""
    counts = [1] + [0] * n
    for part in range(1, min(k, n) + 1):
        for s in range(part, n + 1):
            counts[s] += counts[s - part]
    return counts[n]


def _gens_by_weight(shape: Partition, d: int) -> dict[tuple[int, ...], list[int]]:
    """Coordinates of the kernel generators in each dominant mod-2 skew
    block: its R-representatives with a repeated column entry, G_beta.
    Only a block in which some letter occurs twice has one, and only if a
    column has two boxes.

    The other repeated-column tabloids need no straightening. The
    surjection onto the dual Weyl module kills a tabloid with a repeated
    column entry and keeps the others, so on R-coordinates it is the
    projection onto the semistandard ones, which are R for the dual Weyl
    module. Its kernel on the block is therefore spanned, modulo the
    relations, by the coordinates of these representatives alone."""
    out: dict[tuple[int, ...], list[int]] = {}
    if len(shape) < 2:
        return out
    for beta in _dominant_weights(shape.n, d):
        if beta[0] < 2:
            continue
        block = _dominant_block(shape, skew_column(2), beta)
        out[beta] = [j for cols, j in block.pos.items() if has_column_repeat(cols)]
    return out


def verify_iso(shape: Partition, d: int, p: int) -> bool:
    """Whether the canonical surjection onto the dual Weyl module is an
    isomorphism: every repeated-column-entry tabloid must lie in the skew
    relation span. Away from characteristic 2 the kernel is zero."""
    return p != 2 or not _kernel_dims(shape, d)


def _kernel_dims(shape: Partition, d: int) -> dict[Partition, int]:
    """Kernel dimension at each dominant weight where it is not zero, by
    counting. The surjection onto the dual Weyl module is the projection
    that drops the kernel generators G_beta, and the relations of a mod-2
    skew dominant block lie in their coordinates (`_dominant_block` checks
    this), so the kernel there is |G_beta| less the rank of the span."""
    out, kind = {}, skew_column(2)
    for beta, positions in _gens_by_weight(shape, d).items():
        grown = len(positions) - _dominant_block(shape, kind, beta).span.dim
        if grown:
            out[beta] = grown
    return out


def u_lambda_weight_table(shape: Partition, d: int) -> WeightTable:
    """Per-weight dimension of the kernel of the surjection onto the dual
    Weyl module: each dominant entry repeated over its S_d-orbit."""
    table = {
        w: grown
        for beta, grown in _kernel_dims(shape, d).items()
        for w in _orbit(beta, d)
    }
    return dict(sorted(table.items()))


def u_lambda_dim(shape: Partition, d: int) -> int:
    return sum(
        grown * _orbit_size(beta, d)
        for beta, grown in _kernel_dims(shape, d).items()
    )


def straighten(t: Tableau, shape: Partition, d: int, p: int) -> TabloidVector:
    """Express the alternating tabloid of t over semistandard
    representatives modulo the basic snake relations."""
    if t.shape != shape:
        raise ValueError("tableau does not have the stated shape")
    basis = build_basis(shape, d, ALT_COLUMN)
    cols, sign, is_zero = canonical_cols(t.cols, ALT_COLUMN)
    if is_zero:
        return TabloidVector(basis, p, {})
    terms = _straighten_terms({cols: sign}, ALT_COLUMN, p)
    return TabloidVector(basis, p, {basis.index[c]: v for c, v in terms.items()})


def _straighten_terms(
    terms: dict[Cols, int], kind: TabloidKind, p: int
) -> dict[Cols, int]:
    """A combination of canonical representatives of ``kind`` expressed
    over the row-semistandard ones modulo the basic snakes, with
    coefficients in [1, p). The greatest term that is not row
    semistandard is replaced by the rest of its basic snake, until none is
    left. Each basic snake must lead with its source, with coefficient 1,
    and bring in only smaller terms, so a term once replaced never comes
    back (the basic snakes are unitriangular)."""
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


def _col_key(cols: Cols) -> tuple[tuple[int, int], ...]:
    """Sort key of the column order among tableaux of one content, with
    sorted columns: the entries from the largest down, each with its
    column, leftmost first. A smaller key is a greater tableau: at the
    first difference, it holds the larger entry in an earlier column."""
    return tuple(sorted((-x, j) for j, col in enumerate(cols) for x in col))


def restrict_entries(
    shape: Partition, d: int, d_sub: int, p: int
) -> tuple[int, int]:
    """Compare the degree-d skew construction, truncated to the weights
    with no letter above d_sub, with the dimension at d_sub. Returns
    (restricted, direct); the two must agree. The restricted side sums
    the quotient dimensions of those weight blocks of the full degree-d
    build; the direct side is `module_dim` at d_sub, which reads only
    dominant blocks, in R-coordinates, and scales them over S_d-orbits."""
    if not 1 <= d_sub <= d:
        raise ValueError("need 1 <= d_sub <= d")
    module = build_gtensor_specht(shape, d, p)
    restricted = sum(
        b.size - b.span.dim
        for w, b in module._blocks.items()
        if not any(w[d_sub:])
    )
    direct = module_dim("gtensor", shape, d_sub, p)
    if restricted != direct:
        raise InvariantError(
            f"restriction of {shape} from d={d} to {d_sub} gives {restricted}, "
            f"the direct build {direct}"
        )
    return restricted, direct


def apply_transvection(
    vec: TabloidVector, source: int, target: int, p: int
) -> TabloidVector:
    """Expand the substitution sending the source letter to source plus
    target multilinearly over the boxes, canonicalizing each term."""
    basis = vec.basis
    d = basis.d
    if not (1 <= source <= d and 1 <= target <= d) or source == target:
        raise ValueError("source and target must be distinct letters in range")
    out: dict[Cols, int] = {}
    for idx, coeff in vec.coords.items():
        cols = basis.cols[idx]
        spots = [
            (j, i)
            for j, col in enumerate(cols)
            for i, x in enumerate(col)
            if x == source
        ]
        for r in range(len(spots) + 1):
            for subset in combinations(spots, r):
                term = [list(c) for c in cols]
                for j, i in subset:
                    term[j][i] = target
                key, sign, is_zero = canonical_cols(
                    tuple(map(tuple, term)), basis.kind
                )
                if not is_zero:
                    out[key] = out.get(key, 0) + coeff * sign
    return TabloidVector(
        basis, p, {basis.index[k]: c % p for k, c in out.items() if c % p}
    )
