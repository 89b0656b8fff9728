"""Quotient-module assembly: dual Weyl modules and inverse-Schur images.

Both modules are quotients of a tabloid space by a relation span, built
one weight block at a time: relations are weight homogeneous, and a term
outside the block of its source tableau is an error. Blocks key their
representatives by column tuple, and relations are expanded straight
from the columns with the template kernel of `garnir`, so neither the
builds nor `reduce`, `relations_contain` and the transvections create a
`Tableau`.

A full build (`_build`) eliminates no basic snake: they are
unitriangular (see below), so the row-semistandard representatives R are
a basis of each block modulo them. The first block of each packed weight
(the nonzero entries of the weight, in order) is straightened once for
every p (`_straightened_block`), over the integers or, for the mod-2
skew kind, as bit masks: from the smallest representative up in the
column order, each image stands in for its tabloid in the images above
it. The mod-2 skew kind then straightens its supplementary snakes onto R
and eliminates only those, and `_freeze` reads the canonical span off
the images mod p. A block reads its letters only through comparisons, so
renaming the letters it uses, in order, onto 1..k maps its
representatives, in order, and its snakes, term for term, onto those of
its packed weight: the spans are equal, and shared. Rearrangements such
as (1,2,0) and (2,1,0) pack differently, so the full build still checks
the S_d-symmetry that the dominant path assumes. No module or cache
holds a builder. Module objects and the thm1 check use the full build,
keyed by tabloid kind, so one for both constructions at odd p.

Mod-2 skew dimensions (`module_dim`), the isomorphism test (`verify_iso`)
and the kernel U (`u_lambda_weight_table`, `u_lambda_dim`) read only the
dominant weights beta, the partitions of n with at most d parts. This is
exact for two reasons. Both modules and U are polynomial GL_d-modules, so
a weight multiplicity is constant on the S_d-orbit of the weight (Green,
Polynomial Representations of GL_n, LNM 830). And a block of content
beta padded with zeros uses only the letters 1..len(beta), so it is the
same block for every d >= len(beta), and is read once per content.

Nothing there eliminates a basic snake. The basic snake of a tableau
that is not row semistandard leads with it, with coefficient 1, and all
its other terms are smaller in the column order; so the row-semistandard
representatives R are a basis of the block modulo the basic snakes (the
standard-basis theorem: Desarmenien, Kung and Rota, Adv. Math. 27, 1978;
James, LNM 682, section 8). `_straighten`, which the full build, the
dominant blocks and `straighten` share, replaces the greatest term
outside R by the rest of its basic snake until none is left, and checks
this unitriangularity. The alternating kind, which serves the dual Weyl
module at every p and the skew construction at odd p, has no relation
left: its dimension is the number of semistandard tableaux, the
hook-content count (`partitions.hook_content_dim`), and no weight is
read. Only a mod-2 skew dominant block is built (`_dominant_block`): its
R are the row-and-column-semistandard tableaux, and it straightens its
supplementary snakes onto R, as bit masks, and eliminates only those.
The rank of the basic relations is then the number of tabloids outside
R, which is how `predictions.supplementary_rank_gain` counts the rank
the supplementary snakes add without a full build.

The kernel U is then a count in the same coordinates, with no
elimination: see `_kernel_dims`. A mod-2 skew dimension is the
hook-content count plus dim U, because the surjection onto the dual Weyl
module is onto; so only blocks in which some letter occurs twice are
built.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from heapq import heappop, heappush
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

from .garnir import equal_boxes, snake_box, snake_terms
from .gfp import SpanBuilder, Subspace, _check_prime, _clear_dict, _reduce_mask
from .partitions import (
    InvariantError,
    Partition,
    count_syt,
    hook_content_dim,
    orbit,
    orbit_size,
    partitions_of,
)
from .records import Record
from .tableaux import Cols, Tableau, TableauClass, enumerate_tableaux, weight_of
from .tabloids import (
    ALT_COLUMN,
    DIM_REP_BUDGET,
    TabloidBasis,
    TabloidKind,
    TabloidVector,
    alternating_forecast,
    build_basis,
    canonical_cols,
    has_column_repeat,
    skew_column,
    tabloid_kind,
)

WeightTable = dict[tuple[int, ...], int]

# A full build (`_build`) refuses a tabloid space larger than this before it
# lists it; near it a build takes seconds.
BUILD_BUDGET = 500_000


class _Block(Record):
    """One weight block: ``indices``, its positions in the grouped sequence
    (ambient indices); ``pos``, the columns of each representative to its
    local coordinate; ``span``, frozen once built and shared per packed
    weight."""

    __slots__ = ("indices", "pos", "span", "basic_rank")

    def __init__(
        self,
        indices: tuple[int, ...],
        pos: dict[Cols, int],
        span: SpanBuilder | Subspace,
        basic_rank: int = 0,
    ):
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "basic_rank", basic_rank)

    @property
    def size(self) -> int:
        return len(self.indices)

    def with_span(self, span: Subspace, basic_rank: int) -> "_Block":
        """This block with its frozen span and basic rank."""
        return _Block(self.indices, self.pos, span, basic_rank)


class QuotientModule(Record, hidden=("_blocks",)):
    """A tabloid space together with a relation span, graded by weight;
    every block holds a frozen `Subspace`, shared per packed weight.
    Modules compare by identity."""

    __slots__ = ("ambient", "p", "_blocks")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, ambient: TabloidBasis, p: int, blocks: dict[tuple[int, ...], _Block]
    ):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_blocks", blocks)

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
        if vec.p != self.p:
            raise ValueError(f"vector over GF({vec.p}) in a module over GF({self.p})")
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


def _make_blocks(
    reps: Sequence[Cols], d: int, p: int
) -> dict[tuple[int, ...], _Block]:
    """Group tableaux, given by their column tuples, by weight, keeping
    their order, each group with an empty span."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, cols in enumerate(reps):
        groups.setdefault(weight_of(cols, d), []).append(i)
    return {
        w: _Block(
            tuple(ix), {reps[i]: j for j, i in enumerate(ix)}, SpanBuilder(len(ix), p)
        )
        for w, ix in groups.items()
    }


def _push_terms(
    span: SpanBuilder,
    terms: dict[Cols, int],
    pos: dict[Cols, int],
    p: int,
) -> bool:
    """Push one relation into the span of the block with local coordinates
    ``pos``, over GF(p), the prime of ``span`` (the benchmark's tracer
    books pushes by it). Relations are weight homogeneous, so every term
    must lie in that block. The builds straighten instead of pushing; this
    is the elimination path of the test suite's reference builds."""
    if not terms:
        return False
    try:
        local = {pos[t]: c for t, c in terms.items()}
    except KeyError as exc:
        raise InvariantError(
            f"relation term {exc.args[0]} lies outside its weight block"
        ) from None
    return span.add(local)


def _listed_basis(
    job: str, shape: Partition, d: int, p: int, kind: TabloidKind
) -> TabloidBasis:
    """The tabloid basis that ``job`` lists, refused with `ValueError`
    before any tabloid is listed when `_ambient_count` puts it past
    `BUILD_BUDGET`."""
    count = _ambient_count(shape, d, kind)
    if count > BUILD_BUDGET:
        raise ValueError(
            f"{job} of {shape} at d={d}, p={p} lists at least {count} "
            f"{kind!r} tabloids, over the budget of {BUILD_BUDGET}"
        )
    return build_basis(shape, d, kind)


def _ambient_count(shape: Partition, d: int, kind: TabloidKind) -> int:
    """The number of tabloids of ``kind`` over d letters, in closed form: a
    column of height h holds a set of h letters, or for mod-2 skew a
    multiset, so the count is the product of C(d, h) or C(d + h - 1, h)
    over the columns; lambda_h - lambda_{h+1} of them have height h. The
    tallest come first, where an empty alternating space shows; the count
    is left once past `BUILD_BUDGET` (a factor of 2 or more to the power
    of the budget's bit length is past it), and is then a smaller count
    over the budget."""
    count, parts = 1, (*shape, 0)
    for h in range(len(shape), 0, -1):
        factor = comb(d, h) if kind.zero_on_column_repeats else comb(d + h - 1, h)
        count *= factor ** min(parts[h - 1] - parts[h], BUILD_BUDGET.bit_length())
        if not count or count > BUILD_BUDGET:
            break
    return count


class _Pattern(Record):
    """The first weight block of a packed weight, straightened once for
    every prime: ``first``, its first representative with its letters
    packed onto 1..k; ``images``, the image over R of each
    representative, in local order: a bit mask of R-coordinates for the
    mod-2 skew kind, (R-coordinate, integer coefficient) pairs for the
    alternating kind; ``r_cols``, the representatives in R, in local
    order; ``supplementary``, the masks of the nonzero straightened
    supplementary snakes of the mod-2 skew kind."""

    __slots__ = ("first", "images", "r_cols", "supplementary")

    def __init__(
        self,
        first: Cols,
        images: tuple[int | tuple[tuple[int, int], ...], ...],
        r_cols: tuple[Cols, ...],
        supplementary: tuple[int, ...],
    ):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "r_cols", r_cols)
        object.__setattr__(self, "supplementary", supplementary)

    @property
    def size(self) -> int:
        return len(self.images)

    @property
    def basic_rank(self) -> int:
        return len(self.images) - len(self.r_cols)


def _packed(cols: Cols) -> Cols:
    """A tableau with the letters it uses renamed, in order, onto 1..k."""
    rank = {x: i for i, x in enumerate(sorted({x for c in cols for x in c}), 1)}
    return tuple(tuple(rank[x] for x in c) for c in cols)


@lru_cache(maxsize=256)
def _straightened_block(reps: tuple[Cols, ...], kind: TabloidKind) -> _Pattern:
    """The weight block of ``kind`` with representatives ``reps``, in
    order, straightened so that every prime reads it: over the integers,
    where an image depends on p only through reduction mod p, or as masks
    for the mod-2 skew kind. One in R is its own coordinate. The others
    are straightened from the smallest to the greatest in the column
    order, each image kept in ``known``, so a basic snake brings in only
    terms whose image is known and each is expanded once."""
    mod2 = not kind.zero_on_column_repeats
    r_cols = tuple(cols for cols in reps if snake_box(cols) is None)
    r = {cols: j for j, cols in enumerate(r_cols)}
    known = {cols: 1 << j if mod2 else ((j, 1),) for cols, j in r.items()}
    for cols in sorted((c for c in reps if c not in r), key=_col_key, reverse=True):
        image = _straighten({cols: 1}, kind, r, known)
        known[cols] = image if mod2 else tuple(image.items())
    supplementary = ()
    if mod2:
        snakes = (
            _straighten(snake_terms(source, *box, kind), kind, r, known)
            for source in r_cols
            for box in equal_boxes(source)
        )
        supplementary = tuple(mask for mask in snakes if mask)
    return _Pattern(
        _packed(reps[0]), tuple(known[cols] for cols in reps), r_cols, supplementary
    )


def _freeze(pattern: _Pattern, p: int) -> Subspace:
    """The canonical span of a straightened block over GF(p): the vectors
    whose image over R lies in the span Q of the supplementary snakes.
    Walking the local coordinates from the highest down, each image is
    reduced modulo Q and the images kept so far, with the combination of
    local coordinates it came from carried above the R-coordinates. An
    image that is left nonzero is kept; one that reduces to zero makes its
    coordinate i a pivot, with row e_i less a combination of kept, higher
    coordinates. These rows are the reduced row-echelon basis."""
    shift = len(pattern.r_cols)
    rows: list = []
    piv: dict = {}
    if p == 2:
        q = SpanBuilder(shift, 2)
        for mask in pattern.supplementary:
            q.add_mask(mask)
        pivmask = 0
        for i in reversed(range(pattern.size)):
            mask = pattern.images[i]
            if not isinstance(mask, int):  # the alternating kind at p = 2
                mask = sum(1 << r for r, c in mask if c & 1)
            mask = _reduce_mask(q.residual_mask(mask) | 1 << (shift + i), piv, pivmask)
            if (low := mask & -mask).bit_length() <= shift:
                piv[low] = mask
                pivmask |= low
            else:
                rows.append(mask >> shift)
    else:
        for i in reversed(range(pattern.size)):
            v = {r: c % p for r, c in pattern.images[i] if c % p}
            v[shift + i] = 1
            v = _clear_dict(v, piv, p)
            if (low := min(v)) < shift:
                inv = pow(v[low], -1, p)
                piv[low] = v if inv == 1 else {k: c * inv % p for k, c in v.items()}
            else:
                rows.append({k - shift: c for k, c in v.items()})
    return Subspace.from_reduced_rows(pattern.size, p, rows)


@lru_cache(maxsize=256)
def _build(shape: Partition, d: int, p: int, kind: TabloidKind) -> QuotientModule:
    """Every weight block of the tabloid space of one kind with its
    relation span frozen; at odd p both constructions are the alternating
    kind and share this build. The relations are the basic snake of every
    tableau that is not row semistandard and, for the mod-2 skew kind, the
    supplementary snakes of the row-semistandard ones (zero on alternating
    tabloids). Blocks of one packed weight are equal in local coordinates
    (see above): each block, once its size and packed first representative
    agree with its pattern's, takes the span frozen from that pattern and
    the pattern's basic rank. A space of more than `BUILD_BUDGET` tabloids
    is refused before it is listed."""
    basis = _listed_basis("the full build", shape, d, p, kind)
    blocks = _make_blocks(basis.cols, d, p)
    shared: dict[tuple[int, ...], tuple[_Pattern, Subspace]] = {}
    for w, block in blocks.items():
        key = tuple(x for x in w if x)
        if key in shared:
            pattern, span = shared[key]
            first = _packed(next(iter(block.pos)))
            if pattern.size != block.size or pattern.first != first:
                raise InvariantError(f"block {w} does not pack onto its pattern")
        else:
            pattern = _straightened_block(tuple(block.pos), kind)
            span = _freeze(pattern, p)
            shared[key] = pattern, span
        blocks[w] = block.with_span(span, pattern.basic_rank)
    return QuotientModule(basis, p, blocks)


def build_dual_weyl(shape: Partition, d: int, p: int) -> QuotientModule:
    """Alternating column tabloids modulo the basic snake relations."""
    return _build(shape, d, p, tabloid_kind("nabla", p))


def build_gtensor_specht(shape: Partition, d: int, p: int) -> QuotientModule:
    """Skew column tabloids modulo the basic and supplementary skew snake
    relations; away from characteristic 2 this is the dual Weyl module,
    the same cached object."""
    return _build(shape, d, p, tabloid_kind("gtensor", p))


# ---------------------------------------------------------------------------
# Dominant blocks


@lru_cache(maxsize=4096)
def _dominant_block(shape: Partition, beta: Partition) -> _Block:
    """The frozen mod-2 skew weight block of content beta, over the letters
    1..len(beta), in R-coordinates; it is the block of beta padded with
    zeros for every larger d. Its only relations are the supplementary
    snakes, straightened onto R, over GF(2). Every term of a straightened
    supplementary snake must repeat a column entry: the kernel count of
    `_kernel_dims` rests on it."""
    kind = skew_column(2)
    reps = enumerate_tableaux(
        shape, len(beta), TableauClass.ROW_AND_COLUMN_SEMISTANDARD, tuple(beta)
    )
    blocks = _make_blocks(reps, len(beta), 2)
    block = blocks.get(beta) or _Block((), {}, SpanBuilder(0, 2))
    semistandard = sum(
        1 << j for cols, j in block.pos.items() if not has_column_repeat(cols)
    )
    for cols in reps:
        for i, j in equal_boxes(cols):
            if len(cols[j]) == 1:  # on columns of height 1: t + t, zero mod 2
                continue
            mask = _straighten(snake_terms(cols, i, j, kind), kind, block.pos, {})
            if mask & semistandard:
                raise InvariantError(
                    f"snake at {(i, j)} of {cols} straightens onto no column repeat"
                )
            block.span.add_mask(mask)
    return block.with_span(block.span.subspace(), 0)


def module_dim(which: str, shape: Partition, d: int, p: int) -> int:
    """Dimension of the dual Weyl module (``"nabla"``) or of the skew
    construction (``"gtensor"``): the hook-content count for the
    alternating kind; for mod-2 skew, that count plus the kernel
    dimension, since the surjection onto the dual Weyl module is onto."""
    alternating = tabloid_kind(which, p) is ALT_COLUMN
    return hook_content_dim(shape, d) + (0 if alternating else u_lambda_dim(shape, d))


def dominant_rep_bound(which: str, shape: Partition, d: int, p: int) -> int:
    """A closed-form forecast of the work of `module_dim`, and through the
    mod-2 skew blocks of the kernel: `tabloids.alternating_forecast` for
    an alternating dimension. On the mod-2 skew path every
    representative holds the n boxes, and past the budget they are the
    forecast; below it, the largest snake template, the dominant weights,
    the n boxes that each weight's block places when the shape has two
    rows or more (a one-row shape builds no block), and, within the
    budget, the R-representatives the blocks hold. Standardizing the
    letters one at a time maps each R_beta into the standard tableaux, so
    |R_beta| <= f^shape; and all R_beta together, over at most
    m = min(d, n) letters, are at most the row-and-column-semistandard
    tableaux over m letters, which adding i - 1 to row i makes
    semistandard over m + len(shape) - 1."""
    alternating = alternating_forecast(which, shape, d, p)
    if alternating is not None:
        return alternating
    if shape.n > DIM_REP_BUDGET:
        return shape.n
    m = min(d, shape.n)
    weights = _partition_count(shape.n, m)
    fixed = _largest_snake_template(shape) + weights
    if len(shape) > 1:  # each weight's block is built and places n boxes
        fixed += weights * shape.n
    if fixed > DIM_REP_BUDGET:
        return fixed
    letters = m + len(shape) - 1
    return fixed + min(hook_content_dim(shape, letters), weights * count_syt(shape))


def _largest_snake_template(shape: Partition) -> int:
    """The most terms a snake lists: at row i of adjacent columns of
    heights h >= h', C(h + 1, i + 1) for i < h'. It grows with i + 1 up to
    (h + 1) // 2, and is built one factor at a time and left once past
    `DIM_REP_BUDGET`, so a tall column makes no huge integer."""
    conj = shape.conjugate()
    largest = 0
    for h, low in set(zip(conj, conj[1:])):
        size = 1
        for k in range(1, min(low, (h + 1) // 2) + 1):
            size = size * (h + 2 - k) // k
            if size > DIM_REP_BUDGET:
                break
        largest = max(largest, size)
    return largest


def _partition_count(n: int, k: int) -> int:
    """The number of partitions of n with at most k parts (equivalently,
    with parts at most k); past `DIM_REP_BUDGET`, a smaller count over it."""
    counts = [1] * (n + 1)  # parts of size 1 only
    for part in range(2, min(k, n) + 1):
        for s in range(part, n + 1):
            counts[s] += counts[s - part]
        if counts[n] > DIM_REP_BUDGET:
            break
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
    for beta in partitions_of(shape.n, d):
        if beta[0] < 2:
            continue
        block = _dominant_block(shape, beta)
        out[beta] = [j for cols, j in block.pos.items() if has_column_repeat(cols)]
    return out


def verify_iso(shape: Partition, d: int, p: int) -> bool:
    """Whether the canonical surjection onto the dual Weyl module is an
    isomorphism: every repeated-column-entry tabloid must lie in the skew
    relation span. Away from characteristic 2 the kernel is zero."""
    _check_prime(p)
    return p != 2 or not _kernel_dims(shape, d)


def _kernel_dims(shape: Partition, d: int) -> dict[Partition, int]:
    """Kernel dimension at each dominant weight where it is not zero, by
    counting. The surjection onto the dual Weyl module is the projection
    that drops the kernel generators G_beta, and the relations of a mod-2
    skew dominant block lie in their coordinates (`_dominant_block` checks
    this), so the kernel there is |G_beta| less the rank of the span."""
    out = {}
    for beta, positions in _gens_by_weight(shape, d).items():
        grown = len(positions) - _dominant_block(shape, beta).span.dim
        if grown:
            out[beta] = grown
    return out


def u_lambda_weight_table(shape: Partition, d: int) -> WeightTable:
    """Per-weight dimension of the kernel of the surjection onto the dual
    Weyl module: each dominant entry repeated over its S_d-orbit."""
    table = {
        w: grown
        for beta, grown in _kernel_dims(shape, d).items()
        for w in orbit(beta, d)
    }
    return dict(sorted(table.items()))


def u_lambda_dim(shape: Partition, d: int) -> int:
    return sum(
        grown * orbit_size(beta, d)
        for beta, grown in _kernel_dims(shape, d).items()
    )


def straighten(t: Tableau, shape: Partition, d: int, p: int) -> TabloidVector:
    """Express the alternating tabloid of t over semistandard
    representatives modulo the basic snake relations. Its basis is listed
    first, so a space past `BUILD_BUDGET` is refused as a full build is."""
    if t.shape != shape:
        raise ValueError("tableau does not have the stated shape")
    _check_prime(p)
    if (top := max(map(max, t.cols))) > d:
        raise ValueError(f"entry {top} exceeds d={d}")
    basis = _listed_basis("straightening", shape, d, p, ALT_COLUMN)
    cols, sign, is_zero = canonical_cols(t.cols, ALT_COLUMN)
    if is_zero:
        return TabloidVector(basis, p, {})
    image = _straighten({cols: sign}, ALT_COLUMN, basis.index, {})
    return TabloidVector(basis, p, {i: c % p for i, c in image.items() if c % p})


def _straighten(
    terms: dict[Cols, int], kind: TabloidKind, r: Mapping[Cols, int], known: dict
) -> int | dict[int, int]:
    """The image over R of a combination of canonical tabloids of ``kind``
    modulo the basic snakes, in the R-coordinates ``r``: a bit mask for
    the mod-2 skew kind, integer coefficients otherwise. A term in
    ``known`` is replaced by its image there (a mask, or coordinate and
    coefficient pairs), and the greatest other term outside R by minus the
    rest of its basic snake, until none is left. This checks that the
    basic snakes are unitriangular, which makes R a basis modulo them:
    each leads with its source, with coefficient 1, and brings in only
    smaller terms; and each term in R must have a coordinate, in the block."""
    mod2 = not kind.zero_on_column_repeats
    out: int | dict[int, int] = 0 if mod2 else {}
    todo: dict[Cols, int] = {}
    heap: list = []
    items, scale, key = terms.items(), 1, None
    while True:
        for cols, c in items:
            c *= scale
            image = known.get(cols)
            if image is None:
                if cols in todo:
                    todo[cols] += c
                    continue
                box = snake_box(cols)
                if box is not None:
                    k = _col_key(cols)
                    if key is not None and k <= key:
                        raise InvariantError(
                            f"basic snake of {source} brings in {cols}, "
                            "which is not below it"
                        )
                    todo[cols] = c
                    heappush(heap, (k, cols, box))
                    continue
                j = r.get(cols)
                if j is None:
                    raise InvariantError(
                        f"relation term {cols} lies outside its weight block"
                    )
                image = 1 << j if mod2 else ((j, 1),)
            if mod2:
                if c & 1:
                    out ^= image
            else:
                for j, a in image:
                    v = out.get(j, 0) + c * a
                    if v:
                        out[j] = v
                    else:
                        del out[j]
        while heap:
            key, source, box = heappop(heap)
            scale = -todo.pop(source)
            if scale & 1 if mod2 else scale:
                break
        else:
            return out
        snake = snake_terms(source, *box, kind)
        if snake.pop(source, 0) != 1:
            raise InvariantError(f"basic snake of {source} does not lead with it")
        items = snake.items()


def _col_key(cols: Cols) -> tuple[int, ...]:
    """Sort key of the column order among tableaux of one shape and
    content, with sorted columns: the entries from the largest down, each
    with its column, leftmost first, the pair (x, j) encoded as the
    integer j - x * w over w columns, which orders the pairs alike. A
    smaller key is a greater tableau: at the first difference, it holds
    the larger entry in an earlier column."""
    w = len(cols)
    return tuple(sorted([j - x * w for j, col in enumerate(cols) for x in col]))


def apply_transvection(
    vec: TabloidVector, source: int, target: int, p: int
) -> TabloidVector:
    """Expand the substitution sending the source letter to source plus
    target multilinearly over the boxes, canonicalizing each term."""
    if p != vec.p:
        raise ValueError(f"transvection over GF({p}) of a vector over GF({vec.p})")
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
