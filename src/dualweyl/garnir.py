"""Garnir relations on column tuples, Garnir labels, and the deterministic
label stream of each relation family. Spans are built from these in
`quotients`.

A relation is expanded from a template. The coset transversal of a Garnir
relation depends only on the heights of its two columns and on the rows of
A and B, not on the entries (James, The Representation Theory of the
Symmetric Groups, LNM 682, section 7). A template holds, per coset
representative, the positions of the two columns that fill the two new
columns, and the parity; each is checked to be a permutation, and the snake
at row i of columns of heights h_j, h_{j+1} has one cached template. A
term differs from its source only in those two columns, so only they are
sorted, by `tabloids.sort_column`, which also gives each its sign (0 for
an alternating column that repeats an entry); the other columns are
reused as they are. Builds expand the snakes of basis representatives,
whose columns are already sorted, with `snake_terms`, keying every term
by its column tuple; the expansion of the two columns is cached, so a
snake that many tableaux share is expanded once. `garnir_terms` is the
entry point for an arbitrary `GarnirLabel`; it validates the label,
canonicalizes the untouched columns once with `tabloids.canonical_cols`
and runs the same expansion, `_expand`.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .partitions import InvariantError, Partition
from .records import Record
from .tableaux import Box, Cols, Tableau, TableauClass, enumerate_tableaux
from .tabloids import TabloidKind, basis_class, canonical_cols, sort_column

# Per coset representative: the positions in (first column + second column)
# that fill the new first and second columns, and the parity.
Template = tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]


class GarnirLabel(Record):
    """A tableau with box subsets A, B of two columns j < j' such that
    |A| + |B| exceeds the height of column j."""

    __slots__ = ("t", "A", "B")

    def __init__(self, t: Tableau, A: tuple[Box, ...], B: tuple[Box, ...]):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    def validate(self) -> None:
        shape = self.t.shape
        conj = shape.conjugate()
        if not self.A or not self.B:
            raise ValueError("A and B must be nonempty")
        ja = {j for _, j in self.A}
        jb = {j for _, j in self.B}
        if len(ja) != 1 or len(jb) != 1:
            raise ValueError("A and B must each lie in a single column")
        j, j2 = ja.pop(), jb.pop()
        if not 1 <= j < j2 <= shape[0]:
            raise ValueError(f"need columns j < j' within the shape, got {j}, {j2}")
        for i, jj in self.A + self.B:
            if not 1 <= i <= conj.part(jj):
                raise ValueError(f"box ({i},{jj}) outside the shape")
        if len(set(self.A)) != len(self.A) or len(set(self.B)) != len(self.B):
            raise ValueError("repeated boxes")
        if len(self.A) + len(self.B) <= conj.part(j):
            raise ValueError("|A| + |B| must exceed the left column height")


def snake_label(t: Tableau, i: int, j: int) -> GarnirLabel:
    """The label with A the bottom of column j from row i and B the top of
    column j+1 down to row i."""
    conj = t.shape.conjugate()
    if not (1 <= j < t.shape[0] and 1 <= i <= conj.part(j + 1)):
        raise ValueError(f"snake box ({i},{j}) out of range for shape {t.shape}")
    A = tuple((x, j) for x in range(i, conj.part(j) + 1))
    B = tuple((x, j + 1) for x in range(1, i + 1))
    return GarnirLabel(t, A, B)


def snake_box(cols: Cols) -> tuple[int, int] | None:
    """0-based (row, column) of the box with the column least, then the row
    greatest, whose entry strictly exceeds its right neighbour; None when
    the tableau is row semistandard."""
    for j in range(len(cols) - 1):
        left, right = cols[j], cols[j + 1]
        for i in range(len(right) - 1, -1, -1):
            if left[i] > right[i]:
                return i, j
    return None


def equal_boxes(cols: Cols) -> Iterator[tuple[int, int]]:
    """0-based (row, column) of every box whose entry equals its right
    neighbour, column by column, top to bottom: the supplementary snakes."""
    for j in range(len(cols) - 1):
        left, right = cols[j], cols[j + 1]
        for i in range(len(right)):
            if left[i] == right[i]:
                yield i, j


def default_snake_rule(t: Tableau) -> Box | None:
    """Box (i, j) with j least, then i greatest, where the entry strictly
    exceeds its right neighbour; None when the tableau is row semistandard."""
    box = snake_box(t.cols)
    return None if box is None else (box[0] + 1, box[1] + 1)


def _template(
    hj: int, hj2: int, rows_a: tuple[int, ...], rows_b: tuple[int, ...]
) -> Template:
    """The coset transversal of the Garnir relation on columns of heights
    hj and hj2 with A at rows_a of the first and B at rows_b of the second
    (0-based, increasing), one representative per left coset of the group
    permuting A and B separately. A representative is recorded by the
    entries of A|B that move into A; entries transfer order-preservingly
    within each part, and the parity is that of the rearrangement. The
    rows come from a validated label (`garnir_terms`) or a snake."""
    k, m = len(rows_a), len(rows_b)
    source = list(rows_a) + [hj + r for r in rows_b]
    reps = []
    for chosen in combinations(range(k + m), k):
        rest = [x for x in range(k + m) if x not in chosen]
        parity = sum(1 for a in chosen for b in rest if a > b) & 1
        first, second = list(range(hj)), list(range(hj, hj + hj2))
        for r, e in zip(rows_a, chosen):
            first[r] = source[e]
        for r, e in zip(rows_b, rest):
            second[r] = source[e]
        if sorted(first + second) != list(range(hj + hj2)):
            raise InvariantError(f"template entry {first}, {second} is no permutation")
        reps.append((tuple(first), tuple(second), parity))
    return tuple(reps)


@lru_cache(maxsize=1024)
def _snake_template(hj: int, hj2: int, i: int) -> Template:
    """The template of the snake at 0-based row i of two adjacent columns
    of heights hj and hj2: A is the first column from row i down, B the
    second column down to row i."""
    return _template(hj, hj2, tuple(range(i, hj)), tuple(range(i + 1)))


def _expand(
    cols: Cols, j: int, j2: int, template: Template, kind: TabloidKind
) -> dict[Cols, int]:
    """The relation of a template on columns j < j2 of ``cols``, keyed by
    column tuples, with zero coefficients dropped. Every column but j and
    j2 must already be canonical for ``kind``; those two are sorted per
    term by `tabloids.sort_column`, and a term adds the product of their
    signs, with the template's parity, or nothing when that product is 0.
    Coefficients are reduced mod 2 for the mod-2 skew kind, whose signs
    are not tracked; only their parity is canonical."""
    pair = cols[j] + cols[j2]
    head, mid, tail = cols[:j], cols[j + 1:j2], cols[j2 + 1:]
    out: dict[Cols, int] = {}
    for pos_a, pos_b, parity in template:
        a, sa = sort_column(tuple([pair[x] for x in pos_a]), kind)
        b, sb = sort_column(tuple([pair[x] for x in pos_b]), kind)
        if sign := sa * sb:
            key = head + (a,) + mid + (b,) + tail
            out[key] = out.get(key, 0) + (-sign if parity else sign)
    if not kind.zero_on_column_repeats:
        return {t: 1 for t, c in out.items() if c % 2}
    return {t: c for t, c in out.items() if c}


def snake_terms(cols: Cols, i: int, j: int, kind: TabloidKind) -> dict[Cols, int]:
    """The snake relation at the 0-based box (i, j) of a tableau whose
    columns ``cols`` are a canonical representative of ``kind`` (sorted,
    and free of repeats when the kind kills them), keyed by column tuples:
    the cached expansion of its two columns (`_snake_pair`), with the
    other columns spliced around each term."""
    head, tail = cols[:j], cols[j + 2:]
    pairs = _snake_pair(cols[j], cols[j + 1], i, kind.zero_on_column_repeats)
    return {head + pair + tail: c for pair, c in pairs}


@lru_cache(maxsize=4096)
def _snake_pair(
    left: tuple[int, ...], right: tuple[int, ...], i: int, strict: bool
) -> tuple[tuple[Cols, int], ...]:
    """The snake at 0-based row i of two adjacent sorted columns, as
    (two new columns, coefficient) pairs: a term changes only those two
    columns, so every tableau that holds them shares this expansion. It is
    keyed by the kind's ``zero_on_column_repeats`` (``strict``), a plain
    bool, which hashes faster than the enum."""
    kind = TabloidKind.ALTERNATING if strict else TabloidKind.SKEW_MOD_2
    template = _snake_template(len(left), len(right), i)
    return tuple(_expand((left, right), 0, 1, template, kind).items())


def garnir_terms(label: GarnirLabel, kind: TabloidKind) -> dict[Tableau, int]:
    """Integer coefficients of the relation of an arbitrary label on
    canonical representatives of a column kind (mod 2 for the mod-2 skew
    kind)."""
    label.validate()
    cols = label.t.cols
    j, j2 = label.A[0][1] - 1, label.B[0][1] - 1
    rows_a = tuple(sorted(i - 1 for i, _ in label.A))
    rows_b = tuple(sorted(i - 1 for i, _ in label.B))
    template = _template(len(cols[j]), len(cols[j2]), rows_a, rows_b)
    untouched = tuple(col for c, col in enumerate(cols) if c not in (j, j2))
    rest, sign, is_zero = canonical_cols(untouched, kind)
    if is_zero:
        return {}
    canonical = list(rest)
    canonical.insert(j, cols[j])
    canonical.insert(j2, cols[j2])
    terms = _expand(tuple(canonical), j, j2, template, kind)
    return {Tableau(t): sign * c for t, c in terms.items()}


class RelationKind(Enum):
    BASIC_SNAKE = "basic_snake"
    SKEW_SUPPLEMENTARY = "skew_supplementary"
    ALL_ADJACENT_SNAKES = "all_adjacent_snakes"
    EXHAUSTIVE_GARNIR = "exhaustive_garnir"


_EXHAUSTIVE_MAX_N = 5


def iter_relation_labels(
    shape: Partition,
    d: int,
    rel_kind: RelationKind,
    tabloid_kind: TabloidKind,
) -> Iterator[GarnirLabel]:
    """Deterministic label stream for each relation family; the basic
    snakes of ``tabloid_kind`` serve both constructions, and the
    supplementary snakes sit on the row-and-column-semistandard tableaux.
    The builds expand the same snakes straight from column tuples
    (`snake_box`, `equal_boxes`, `snake_terms`); this stream is the
    label-level reference for them."""
    conj = shape.conjugate()
    column_class = basis_class(tabloid_kind)
    if rel_kind is RelationKind.BASIC_SNAKE:
        for t in map(Tableau, enumerate_tableaux(shape, d, column_class)):
            box = default_snake_rule(t)
            if box is not None:
                yield snake_label(t, box[0], box[1])
    elif rel_kind is RelationKind.SKEW_SUPPLEMENTARY:
        for t in map(Tableau, enumerate_tableaux(
            shape, d, TableauClass.ROW_AND_COLUMN_SEMISTANDARD
        )):
            for i, j in equal_boxes(t.cols):
                yield snake_label(t, i + 1, j + 1)
    elif rel_kind is RelationKind.ALL_ADJACENT_SNAKES:
        for t in map(Tableau, enumerate_tableaux(shape, d, column_class)):
            for j in range(1, shape[0]):
                for i in range(1, conj.part(j + 1) + 1):
                    yield snake_label(t, i, j)
    elif rel_kind is RelationKind.EXHAUSTIVE_GARNIR:
        if shape.n > _EXHAUSTIVE_MAX_N:
            raise ValueError("exhaustive generation is capped at 5 boxes")
        for t in map(Tableau, enumerate_tableaux(shape, d, TableauClass.ALL)):
            for j in range(1, shape[0]):
                hj, hj2 = conj.part(j), conj.part(j + 1)
                col_j = [(i, j) for i in range(1, hj + 1)]
                col_j2 = [(i, j + 1) for i in range(1, hj2 + 1)]
                for ka in range(1, hj + 1):
                    for A in combinations(col_j, ka):
                        for kb in range(max(1, hj - ka + 1), hj2 + 1):
                            for B in combinations(col_j2, kb):
                                yield GarnirLabel(t, A, B)
    else:  # pragma: no cover
        raise ValueError(f"unknown relation kind {rel_kind}")
