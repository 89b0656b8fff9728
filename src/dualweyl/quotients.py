"""Quotient-module assembly: dual Weyl modules and inverse-Schur images.

Both modules are quotients of a tabloid space by a relation span, built
one weight block at a time: relations are weight homogeneous, and a term
outside the block of its source tableau is an error. Relations are
expanded straight from column tuples with the template kernel of
`garnir`, so no build or read makes a `Tableau`.

Every block goes through one pipeline. No basic snake is eliminated:
that of a tableau that is not row semistandard leads with it, with
coefficient 1, and its other terms are smaller in the column order, so
the row-semistandard representatives R are a basis of the block modulo
the basic snakes (the standard-basis theorem: Desarmenien, Kung and
Rota, Adv. Math. 27, 1978; James, LNM 682, section 8). `_straighten`,
which pattern walks and dominant blocks share, replaces the greatest
term outside R by the rest of its basic snake until none is left, and
checks this unitriangularity; a pattern walk expands each basic snake
once, from the smallest tabloid up, so every term it brings in already
has its image. For the mod-2 skew kind, `_supplementary` straightens the
supplementary snakes onto R as bit masks, refuses one that lands on a
representative with no column repeat, and freezes their span Q, the one
elimination left, so `gfp` works over GF(2) alone. So the relation span
of a block is that of e_i - image(i) for each i outside R, and Q. A
pattern keeps exactly that: for the alternating kind its integer images,
which a read reduces mod p, and no Q; for the mod-2 skew kind Q. No
block, module or cache holds a `gfp.SpanBuilder`.

Nothing in a pattern depends on p, and two bounded caches hold it.
`_layout` lists a tabloid space once (`build_basis`, the one gate that
refuses a space past its budget before listing it), groups it into its
weight blocks (`_make_blocks`), and those by packed weight (the nonzero
entries of the weight, in order), and indexes each ambient coordinate by
its block and local coordinate. `_pattern` straightens the block of each
packed weight padded with zeros, over the integers or as masks. A block
reads its letters only through comparisons, so renaming them, in order,
onto 1..k maps its representatives and snakes onto those of its packed
weight: every block of that packed weight reads the pattern, which the
layout checks each of them to pack onto once, when it is made.
Rearrangements such as (1,2,0) and (2,1,0) pack differently, so the full
build still checks the S_d-symmetry that the dominant path assumes. A
full build (`_build`) adds to the layout only the cached pattern of each
packed weight, so the builds of one kind at every prime share one layout
and one record per packed weight, Q included. A pattern keeps each
mod-2 image reduced modulo Q, so a read replaces each coordinate of a
block by its image, sums (mod p), and maps the sum through R's local
coordinates: the reduction against the reduced echelon form of the span
in the order that puts the coordinates outside R first. `straighten`
ranks its tabloid (`TabloidBasis.rank`) and reads its image off its
pattern. No read looks a tabloid up in a table: `apply_transvection`
moves a coordinate by the cached rank moves of the columns that hold the
source letter (`_column_moves`). Module objects and the thm1 check use
the full build, keyed by tabloid kind, so one for both constructions at
odd p.

Dimensions (`module_dim`), the isomorphism test (`verify_iso`) and the
kernel U (`u_lambda_weight_table`, `u_lambda_dim`) read only the dominant
weights beta, the partitions of n with at most d parts. Both modules and
U are polynomial GL_d-modules, so a weight multiplicity is constant on
the S_d-orbit of the weight (Green, Polynomial Representations of GL_n,
LNM 830), and a block of content beta padded with zeros is the same
block for every d >= len(beta). The alternating kind, which serves the
dual Weyl module at every p and the skew construction at odd p, has no
relation left on R: its dimension is the hook-content count
(`partitions.hook_content_dim`). A mod-2 skew dominant block
(`_dominant_block`) has the row-and-column-semistandard tableaux as R and
its supplementary snakes as its only relations. The kernel U is a count
in those coordinates (`_kernel_dims`), and a mod-2 skew dimension is the
hook-content count plus dim U, as the surjection onto the dual Weyl
module is onto. The basic rank is the number of tabloids outside R, which
is how `predictions.supplementary_rank_gain` counts the rank the
supplementary snakes add without a full build.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from heapq import heappop, heappush
from math import comb
from types import MappingProxyType
from typing import Mapping, Sequence

from .garnir import equal_boxes, snake_box, snake_terms
from .gfp import SpanBuilder, Subspace, _bits
from .partitions import (
    DIM_REP_BUDGET,
    InvariantError,
    Partition,
    _check_prime,
    alternating_forecast,
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
    TabloidBasis,
    TabloidKind,
    TabloidVector,
    _out_of_range,
    build_basis,
    canonical_cols,
    column_rank,
    has_column_repeat,
    skew_column,
    sort_column,
    tabloid_kind,
)

WeightTable = dict[tuple[int, ...], int]


def _packed(cols: Cols) -> Cols:
    """A tableau with the letters it uses renamed, in order, onto 1..k."""
    rank = {x: i for i, x in enumerate(sorted({x for c in cols for x in c}), 1)}
    return tuple(tuple(rank[x] for x in c) for c in cols)


class _Block(Record):
    """One weight block of a layout: ``indices``, the ambient indices of
    its representatives, in order, the j-th at local coordinate j;
    ``key``, its packed weight, which names its pattern and its span."""

    __slots__ = ("indices", "key")

    def __init__(self, indices: tuple[int, ...], key: tuple[int, ...]):
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "key", key)

    @property
    def size(self) -> int:
        return len(self.indices)


class _Layout(Record, hidden=("blocks", "packs", "order", "block_no", "local")):
    """A tabloid ``basis`` grouped into weight ``blocks`` (read-only),
    numbered in ``order``, and the same blocks grouped by packed weight in
    ``packs`` (read-only, tuples); ``block_no`` and ``local``, read-only
    4-byte arrays, give each coordinate its block's number and its local
    coordinate there. A tabloid's coordinate is its rank in the basis.
    A layout refuses blocks that do not partition the coordinates, and a
    block that does not pack onto the first of its packed weight: the
    same size, and the same first representative once packed (`_packed`).
    Layouts compare and show themselves by their basis."""

    __slots__ = ("basis", "blocks", "packs", "order", "block_no", "local")

    def __init__(self, basis: TabloidBasis, blocks: dict[tuple[int, ...], _Block]):
        order = tuple(blocks.values())
        packs: dict[tuple[int, ...], list[_Block]] = {}
        for block in order:
            packs.setdefault(block.key, []).append(block)
        unset = 2**32 - 1
        block_no = array("I", [unset]) * basis.dim
        local = array("I", [0]) * basis.dim
        for k, block in enumerate(order):
            for j, i in enumerate(block.indices):
                block_no[i] = k
                local[i] = j
        if unset in block_no or sum(b.size for b in order) != basis.dim:
            raise InvariantError("the blocks do not partition the ambient coordinates")
        for group in packs.values():
            size, first = group[0].size, _packed(basis.cols[group[0].indices[0]])
            for block in group[1:]:
                cols = basis.cols[block.indices[0]]
                if block.size != size or _packed(cols) != first:
                    raise InvariantError(
                        f"the block of {cols} does not pack onto its pattern"
                    )
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "blocks", MappingProxyType(blocks))
        packs = {key: tuple(group) for key, group in packs.items()}
        object.__setattr__(self, "packs", MappingProxyType(packs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "block_no", memoryview(block_no).toreadonly())
        object.__setattr__(self, "local", memoryview(local).toreadonly())

    def __reduce__(self):
        # The views do not pickle; the index follows from the blocks.
        return type(self), (self.basis, dict(self.blocks))


class QuotientModule(Record, hidden=("_layout", "_spans", "_numbered")):
    """A tabloid space modulo a relation span, graded by weight: the
    layout of its basis and the `_Pattern` of each packed weight, with its
    frozen span, both of which every prime shares; each block reads its
    pattern in local coordinates. ``_numbered`` holds the same patterns by
    block number, as reads find blocks. Modules compare by identity."""

    __slots__ = ("ambient", "p", "_layout", "_spans", "_numbered")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, layout: _Layout, p: int, spans: dict):
        object.__setattr__(self, "ambient", layout.basis)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "_spans", MappingProxyType(spans))
        object.__setattr__(self, "_numbered", tuple(spans[b.key] for b in layout.order))

    def __reduce__(self):
        # A read-only mapping does not pickle; its dict does.
        return type(self), (self._layout, self.p, dict(self._spans))

    @property
    def supplementary_rank_gain(self) -> int | None:
        """Rank the supplementary snakes add to the basic ones, dim Q in
        each block; None only for the alternating build at p = 2, which is
        not a skew build."""
        if self.ambient.kind is not skew_column(self.p):
            return None
        return sum(span.q.dim for span in self._numbered if span.q is not None)

    @property
    def relation_rank(self) -> int:
        return sum(span.dim for span in self._numbered)

    @property
    def dim(self) -> int:
        return self.ambient.dim - self.relation_rank

    def weight_table(self) -> WeightTable:
        table = {
            w: b.size - self._spans[b.key].dim
            for w, b in sorted(self._layout.blocks.items())
        }
        return {w: v for w, v in table.items() if v}

    def _residuals(self, vec: TabloidVector) -> dict[int, int | dict[int, int]]:
        """vec modulo the relation span, block by block, keyed by block
        number, in R-coordinates: in one pass through the layout's index,
        each coordinate is replaced by its image over R, the substitution
        `straighten` makes, so each block's sum is reduced modulo Q too.
        A bit mask for the mod-2 skew kind; for the alternating kind a
        sparse dict with coefficients in [1, p), each integer image
        coefficient reduced mod p as it is read (one may be 0 mod p). Zero
        iff the block's part of vec is a relation. A coordinate out of
        range is refused, and so is a vector over a basis that is neither
        the module's nor equal to it (a copy's)."""
        if vec.basis is not self.ambient and vec.basis != self.ambient:
            raise ValueError("vector lives over a different basis")
        p = self.p
        if vec.p != p:
            raise ValueError(f"vector over GF({vec.p}) in a module over GF({p})")
        spans = self._numbered
        block_no, local = self._layout.block_no, self._layout.local
        dim = len(local)
        rows: dict = {}
        for i, c in vec.coords.items():
            if not 0 <= i < dim:
                raise _out_of_range(i, dim)
            if not (c := c % p):
                continue
            k = block_no[i]
            span = spans[k]
            image = span.images[local[i]]
            if span.q is not None:  # a mask, on the mod-2 skew kind
                rows[k] = rows.get(k, 0) ^ image
                continue
            if (row := rows.get(k)) is None:
                row = rows[k] = {}
            for j, a in image:
                if x := (row.get(j, 0) + c * a) % p:
                    row[j] = x
                else:
                    row.pop(j, None)
        return rows

    def relations_contain(self, vec: TabloidVector) -> bool:
        return not any(self._residuals(vec).values())

    def reduce(self, vec: TabloidVector) -> TabloidVector:
        """Canonical representative of vec in the quotient (zero iff the
        vector lies in the relation span): each block's residual over R,
        mapped through the local coordinates of R and the block's ambient
        indices. It is the reduction against the reduced echelon form of
        the span in the order that puts the coordinates outside R first."""
        order, spans = self._layout.order, self._numbered
        coords: dict[int, int] = {}
        for k, row in self._residuals(vec).items():
            indices, span = order[k].indices, spans[k]
            r_pos = span.r_pos
            if span.q is not None:  # a mask, on the mod-2 skew kind
                for j in _bits(row):
                    coords[indices[r_pos[j]]] = 1
            else:
                for j, c in row.items():
                    coords[indices[r_pos[j]]] = c
        return TabloidVector(self.ambient, self.p, coords)

    def quotient_indices(self) -> list[int]:
        """Ambient indices of the coordinates `reduce` lands on, one per
        quotient basis element, in increasing order: the free local
        coordinates of each packed weight, mapped through the ambient
        indices of each block of it."""
        out: list[int] = []
        for key, blocks in self._layout.packs.items():
            free = self._spans[key].free
            for block in blocks:
                out += map(block.indices.__getitem__, free)
        out.sort()
        return out


def _make_blocks(reps: Sequence[Cols], d: int) -> dict[tuple[int, ...], _Block]:
    """Group tableaux, given by their column tuples, by weight, keeping
    their order."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, cols in enumerate(reps):
        groups.setdefault(weight_of(cols, d), []).append(i)
    return {w: _Block(tuple(ix), tuple(x for x in w if x)) for w, ix in groups.items()}


def _push_terms(
    span: SpanBuilder,
    terms: dict[Cols, int],
    pos: dict[Cols, int],
    p: int,
) -> bool:
    """Push one relation, all of whose terms must lie in the block with
    local coordinates ``pos``, into ``span``, whose engine sets the field:
    a package `SpanBuilder` reads the coefficients mod 2 whatever ``p``
    is. ``p`` is read only by the benchmark's tracer, which books pushes
    by it. No build pushes; the reference builds do."""
    if not terms:
        return False
    try:
        local = {pos[t]: c for t, c in terms.items()}
    except KeyError as exc:
        raise InvariantError(
            f"relation term {exc.args[0]} lies outside its weight block"
        ) from None
    return span.add(local)


@lru_cache(maxsize=256)
def _layout(shape: Partition, d: int, kind: TabloidKind) -> _Layout:
    """The tabloid basis of ``kind`` over d letters, grouped into its
    weight blocks and indexed by coordinate: no prime enters, so the builds
    at every p and `straighten` share one layout. `build_basis` refuses
    a space past its budget before it lists one."""
    basis = build_basis(shape, d, kind)
    return _Layout(basis, _make_blocks(basis.cols, d))


class _Pattern(Record):
    """The weight block of a packed weight, padded with zeros, straightened
    once for every prime, and its relation span: ``r_pos``, the local
    coordinates of the representatives in R; ``images``, the image over R
    of each representative, in local order; ``q``, the frozen span Q of
    the straightened supplementary snakes; ``free``, the local coordinates
    of R that are not pivots of Q. For the alternating kind the images are
    (R-coordinate, integer coefficient) pairs, which a read reduces mod p,
    ``q`` is None and R is free; for the mod-2 skew kind they are bit
    masks reduced modulo Q, which is linear, so a sum of images is reduced
    already. Every read tells the two formats apart by whether ``q`` is
    None. The span is that of e_i - image(i) for i outside R, and Q: its
    dimension is size less the free coordinates."""

    __slots__ = ("r_pos", "images", "q", "free")

    def __init__(
        self,
        r_pos: tuple[int, ...],
        images: tuple[int | tuple[tuple[int, int], ...], ...],
        q: Subspace | None,
        free: tuple[int, ...],
    ):
        object.__setattr__(self, "r_pos", r_pos)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "free", free)

    @property
    def size(self) -> int:
        return len(self.images)

    @property
    def dim(self) -> int:
        return len(self.images) - len(self.free)

    @property
    def basic_rank(self) -> int:
        """The rank of the basic snakes: the tabloids outside R."""
        return len(self.images) - len(self.r_pos)


@lru_cache(maxsize=1024)
def _pattern(
    shape: Partition, d: int, key: tuple[int, ...], kind: TabloidKind
) -> _Pattern:
    """The pattern of the packed weight ``key``: the block of the layout
    whose weight is ``key`` padded with zeros, straightened, with its
    relation span frozen. Its letters are 1..k already, and it holds no
    prime, so the builds at every p and `straighten` share this one
    record, which every block of the layout with this packed weight packs
    onto (`_Layout` checks this), so no read checks again."""
    layout = _layout(shape, d, kind)
    block = layout.blocks[(*key, *(0,) * (d - len(key)))]
    cols = layout.basis.cols
    return _straightened_block(tuple(cols[i] for i in block.indices), kind)


def _straightened_block(reps: tuple[Cols, ...], kind: TabloidKind) -> _Pattern:
    """The weight block of ``kind`` with representatives ``reps``, in
    order, straightened so that every prime reads it: over the integers,
    where an image depends on p only through reduction mod p, or as masks
    for the mod-2 skew kind. One in R is its own coordinate. The others
    are straightened from the smallest to the greatest in the column
    order, each image kept in ``known``: the basic snake of each is
    expanded once and must lead with it, with coefficient 1, and bring in
    only terms already known, which are the smaller ones of the block, so
    `_straighten` replaces each by its image and expands nothing.

    Then its span is frozen. The vectors whose image over R lies in Q are
    the span, and R is a basis modulo the basic snakes, so only Q is
    eliminated (`_supplementary`), and only on the mod-2 skew kind: the
    alternating kind has no supplementary snake."""
    mod2 = not kind.zero_on_column_repeats
    boxes = [snake_box(cols) for cols in reps]
    r_pos = tuple(j for j, box in enumerate(boxes) if box is None)
    r = {reps[i]: j for j, i in enumerate(r_pos)}
    known = {cols: 1 << j if mod2 else ((j, 1),) for cols, j in r.items()}
    rest = sorted((_col_key(reps[j]), j) for j, b in enumerate(boxes) if b is not None)
    for _, j in reversed(rest):
        source = reps[j]
        snake = snake_terms(source, *boxes[j], kind)
        if snake.pop(source, 0) != 1:
            raise InvariantError(f"basic snake of {source} does not lead with it")
        for cols in snake:
            if cols in known:
                continue
            if cols in reps:
                raise InvariantError(
                    f"basic snake of {source} brings in {cols}, which is not below it"
                )
            raise InvariantError(f"relation term {cols} lies outside its weight block")
        image = _straighten({t: -c for t, c in snake.items()}, kind, r, known)
        known[source] = image if mod2 else tuple(image.items())
    images = tuple(known[cols] for cols in reps)
    if not mod2:  # the alternating kind
        return _Pattern(r_pos, images, None, r_pos)
    q = _supplementary(r, known)
    if q.dim:
        images = tuple(map(q.residual_mask, images))
    pivots = set(q.pivot_indices())
    free = tuple(i for j, i in enumerate(r_pos) if j not in pivots)
    return _Pattern(r_pos, images, q, free)


def _supplementary(r: dict[Cols, int], known: dict) -> Subspace:
    """The frozen span Q of the supplementary snakes of a mod-2 skew block,
    one per box of an R representative equal to its right neighbour, in
    the order of the R-coordinates ``r``, straightened onto R as bit masks
    given the images ``known``. One on two columns of height 1 swaps two
    equal boxes, so it is zero mod 2 and not expanded. The kernel count of
    `_kernel_dims` rests on every mask lying on the representatives that
    repeat a column entry, so one that does not is refused here, for the
    full build and the dominant blocks alike."""
    kind = skew_column(2)
    semistandard = sum(1 << j for cols, j in r.items() if not has_column_repeat(cols))
    span = SpanBuilder(len(r))
    for cols in r:
        for i, j in equal_boxes(cols):
            if len(cols[j]) > 1:
                mask = _straighten(snake_terms(cols, i, j, kind), kind, r, known)
                if off := mask & semistandard:
                    raise InvariantError(
                        f"a supplementary snake of {cols} lands on "
                        f"{tuple(r)[off.bit_length() - 1]}, which has no column repeat"
                    )
                if mask:
                    span.add_mask(mask)
    return span.subspace()


@lru_cache(maxsize=256)
def _build(shape: Partition, d: int, p: int, kind: TabloidKind) -> QuotientModule:
    """Every weight block of the tabloid space of one kind with its
    relation span frozen; at odd p both constructions are the alternating
    kind and share this build. The relations are the basic snake of every
    tableau that is not row semistandard and, for the mod-2 skew kind, the
    supplementary snakes of the row-semistandard ones (zero on alternating
    tabloids). The module adds to the layout (`_layout`), which checks
    that each block packs onto its pattern, the cached pattern of each
    packed weight (`_pattern`), whose span is frozen already. So a build
    at a second prime shares the layout, index included, and the patterns
    themselves, whose integer images its reads reduce mod p. A space past
    `tabloids.BUILD_BUDGET` is refused before it is listed
    (`build_basis`)."""
    layout = _layout(shape, d, kind)
    patterns = {key: _pattern(shape, d, key, kind) for key in layout.packs}
    return QuotientModule(layout, p, patterns)


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
def _dominant_block(shape: Partition, beta: Partition) -> tuple[tuple, Subspace]:
    """The mod-2 skew weight block of content beta, over the letters
    1..len(beta), in R-coordinates: its R-representatives, the j-th at
    coordinate j, and its frozen span. It is the block of beta padded with
    zeros for every larger d. Its only relations are the supplementary
    snakes, straightened onto R and checked by `_supplementary`."""
    reps = tuple(enumerate_tableaux(
        shape, len(beta), TableauClass.ROW_AND_COLUMN_SEMISTANDARD, tuple(beta)
    ))
    return reps, _supplementary({cols: j for j, cols in enumerate(reps)}, {})


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
        reps, _ = _dominant_block(shape, beta)
        out[beta] = [j for j, cols in enumerate(reps) if has_column_repeat(cols)]
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
    skew dominant block lie in their coordinates (`_supplementary` checks
    this), so the kernel there is |G_beta| less the rank of the span."""
    out = {}
    for beta, positions in _gens_by_weight(shape, d).items():
        grown = len(positions) - _dominant_block(shape, beta)[1].dim
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
    representatives modulo the basic snake relations. The basis is listed
    and grouped first (`_layout`), so `build_basis` refuses a space past
    its budget as it does a full build's. The answer is then read off the
    pattern of t's block, found by t's rank: the image of t's local
    coordinate, mapped through the local coordinates of the pattern's R
    and the block's ambient indices. R is a basis modulo the basic snakes,
    so this is the one straightening of t."""
    if tuple(map(len, t.cols)) != _column_heights(shape):
        raise ValueError("tableau does not have the stated shape")
    _check_prime(p)
    if (top := max(map(max, t.cols))) > d:
        raise ValueError(f"entry {top} exceeds d={d}")
    layout = _layout(shape, d, ALT_COLUMN)
    basis = layout.basis
    cols, sign, is_zero = canonical_cols(t.cols, ALT_COLUMN)
    if is_zero:
        return TabloidVector(basis, p, {})
    i = basis.rank(cols)
    block = layout.order[layout.block_no[i]]
    pattern = _pattern(shape, d, block.key, ALT_COLUMN)
    indices, r_pos = block.indices, pattern.r_pos
    coords = {}
    for j, c in pattern.images[layout.local[i]]:
        if c := c * sign % p:
            coords[indices[r_pos[j]]] = c
    return TabloidVector(basis, p, coords)


@lru_cache(maxsize=256)
def _column_heights(shape: Partition) -> tuple[int, ...]:
    """The column heights of a shape, which `straighten` checks a tableau
    against on every call."""
    return tuple(shape.conjugate())


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
    target multilinearly over the boxes, canonicalizing each term. It acts
    column by column, and a column changes only the digit of the
    coordinate that its rank gives (`TabloidBasis.rank`). So a term's
    coordinate is the source tabloid's plus, over the columns holding the
    source letter, the rank move chosen there (`_column_moves`) times the
    column's weight, and its coefficient is the product of their signs."""
    if p != vec.p:
        raise ValueError(f"transvection over GF({p}) of a vector over GF({vec.p})")
    basis = vec.basis
    d, dim = basis.d, basis.dim
    if not (1 <= source <= d and 1 <= target <= d) or source == target:
        raise ValueError("source and target must be distinct letters in range")
    strict, cols, weights = basis.kind.zero_on_column_repeats, basis.cols, basis.weights
    out: dict[int, int] = {}
    get = out.get
    for idx, coeff in vec.coords.items():
        if not 0 <= idx < dim:
            raise _out_of_range(idx, dim)
        terms = [(idx, coeff)]
        for col, w in zip(cols[idx], weights):
            if source in col:
                moves = _column_moves(col, source, target, d, strict)
                terms = [(i + move * w, c * s) for i, c in terms for move, s in moves]
        for i, c in terms:
            out[i] = get(i, 0) + c
    return TabloidVector(basis, p, {i: c % p for i, c in out.items() if c % p})


@lru_cache(maxsize=1 << 14)
def _column_moves(
    col: tuple[int, ...], source: int, target: int, d: int, strict: bool
) -> tuple[tuple[int, int], ...]:
    """The (rank move, coefficient) pairs of a sorted column over d letters
    (a set when ``strict``, else a multiset) that holds the source letter
    m times: substituting target at r of those positions gives, for each
    of the C(m, r) choices, one column, whose `column_rank` is the
    column's plus the move, signed by `sort_column`; a column of sign 0 is
    left out. On the alternating kind m is 1."""
    kind = ALT_COLUMN if strict else skew_column(2)
    base = column_rank(col, d, strict)
    first, m = col.index(source), col.count(source)
    moves = [(0, 1)]
    for r in range(1, m + 1):
        term, sign = sort_column((*col[:first], *(target,) * r, *col[first + r:]), kind)
        if sign:
            moves.append((column_rank(term, d, strict) - base, comb(m, r) * sign))
    return tuple(moves)
