"""Garnir labels, their expansion into canonical tabloid terms, and the
deterministic label stream of each relation family. Spans are built from
these in `quotients`."""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterator, Sequence

from .partitions import Partition
from .tableaux import Box, Tableau, TableauClass, enumerate_tableaux
from .tabloids import TabloidKind, basis_class, canonicalize


@dataclass(frozen=True)
class GarnirLabel:
    """A tableau with box subsets A, B of two columns j < j' such that
    |A| + |B| exceeds the height of column j."""

    t: Tableau
    A: tuple[Box, ...]
    B: tuple[Box, ...]

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


def default_snake_rule(t: Tableau) -> Box | None:
    """Box (i, j) with j least, then i greatest, where the entry strictly
    exceeds its right neighbour; None when the tableau is row semistandard."""
    heights = [len(c) for c in t.cols]
    for j in range(1, len(t.cols)):
        best = None
        for i in range(1, heights[j] + 1):
            if t.entry(i, j) > t.entry(i, j + 1):
                best = (i, j)
        if best is not None:
            return best
    return None


def garnir_terms(
    label: GarnirLabel,
    kind: TabloidKind,
    _shuffle: random.Random | None = None,
) -> dict[Tableau, int]:
    """Integer coefficients of the relation on canonical representatives.

    The sum runs over one representative per left coset of the group
    permuting A and B separately. A representative is recorded by the set
    of boxes of A|B whose entries move into A; entries transfer
    order-preservingly within each part, and the sign is the parity of
    that rearrangement. ``_shuffle`` composes each representative with a
    random element of the subgroup, which must not change the result.
    """
    label.validate()
    boxes_a = sorted(label.A)
    boxes_b = sorted(label.B)
    all_boxes = boxes_a + boxes_b
    entries = [label.t.entry(i, j) for i, j in all_boxes]
    k, m = len(boxes_a), len(boxes_b)
    out: dict[Tableau, int] = {}
    base_cols = [list(c) for c in label.t.cols]
    for chosen in combinations(range(k + m), k):
        rest = [x for x in range(k + m) if x not in chosen]
        inv = sum(1 for a in chosen for b in rest if a > b)
        sign = -1 if inv & 1 else 1
        cols = [c[:] for c in base_cols]
        for (i, j), src in zip(boxes_a, chosen):
            cols[j - 1][i - 1] = entries[src]
        for (i, j), src in zip(boxes_b, rest):
            cols[j - 1][i - 1] = entries[src]
        if _shuffle is not None:
            sign *= _permute_within(cols, boxes_a, _shuffle)
            sign *= _permute_within(cols, boxes_b, _shuffle)
        st = canonicalize(Tableau(cols), kind)
        if st.is_zero:
            continue
        out[st.rep] = out.get(st.rep, 0) + sign * st.sign
    if kind.family == "skew" and kind.p == 2:
        # Signs are not tracked mod 2, so only the parity of each
        # coefficient is canonical (transversal independent).
        return {t: c % 2 for t, c in out.items() if c % 2}
    return {t: c for t, c in out.items() if c}


def _permute_within(cols: list[list[int]], boxes: list[Box], rng: random.Random) -> int:
    perm = list(range(len(boxes)))
    rng.shuffle(perm)
    values = [cols[j - 1][i - 1] for i, j in boxes]
    for (i, j), src in zip(boxes, perm):
        cols[j - 1][i - 1] = values[src]
    inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b])
    return -1 if inv & 1 else 1


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
    source: Sequence[Tableau] | None = None,
) -> Iterator[GarnirLabel]:
    """Deterministic label stream for each relation family; the basic
    snakes of ``tabloid_kind`` serve both constructions.

    ``source`` replaces the enumerated source tableaux of the basic and
    supplementary families: the basic family takes every given tableau,
    the supplementary family the row-semistandard ones. Given the basis
    tableaux of one content, this yields the labels of that weight block.
    At odd p those tableaux have no repeated column entry, so supplementary
    sources with one are skipped; that loses nothing, because a
    supplementary relation is zero away from characteristic 2 (its A and B
    share a letter, and the terms cancel in pairs).
    """
    conj = shape.conjugate()
    column_class = basis_class(tabloid_kind)
    if rel_kind is RelationKind.BASIC_SNAKE:
        if source is None:
            source = enumerate_tableaux(shape, d, column_class)
        for t in source:
            box = default_snake_rule(t)
            if box is not None:
                yield snake_label(t, box[0], box[1])
    elif rel_kind is RelationKind.SKEW_SUPPLEMENTARY:
        if source is None:
            source = enumerate_tableaux(
                shape, d, TableauClass.ROW_AND_COLUMN_SEMISTANDARD
            )
        else:
            source = [t for t in source if t.is_row_semistandard()]
        for t in source:
            for j in range(1, shape[0]):
                for i in range(1, conj.part(j + 1) + 1):
                    if t.entry(i, j) == t.entry(i, j + 1):
                        yield snake_label(t, i, j)
    elif rel_kind is RelationKind.ALL_ADJACENT_SNAKES:
        for t in enumerate_tableaux(shape, d, column_class):
            for j in range(1, shape[0]):
                for i in range(1, conj.part(j + 1) + 1):
                    yield snake_label(t, i, j)
    elif rel_kind is RelationKind.EXHAUSTIVE_GARNIR:
        if shape.n > _EXHAUSTIVE_MAX_N:
            raise ValueError("exhaustive generation is capped at 5 boxes")
        for t in enumerate_tableaux(shape, d, TableauClass.ALL):
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
