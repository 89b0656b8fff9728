"""Tableaux over the alphabet {1..d}, enumeration by class, and the column order."""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import combinations, combinations_with_replacement, product
from typing import Iterable, Iterator

from .partitions import Partition


class TableauClass(Enum):
    ALL = "all"
    ROW_STANDARD = "row_standard"
    COLUMN_STANDARD = "column_standard"
    ROW_SEMISTANDARD = "row_semistandard"
    COLUMN_SEMISTANDARD = "column_semistandard"
    STANDARD = "standard"
    SEMISTANDARD = "semistandard"
    ROW_AND_COLUMN_SEMISTANDARD = "row_and_column_semistandard"


class ColOrderResult(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUIVALENT = "equivalent"


Box = tuple[int, int]


class Tableau:
    """A filling of a Young diagram, stored column-major.

    ``cols[j-1][i-1]`` is the entry in row i, column j (1-based, matching
    the usual matrix-style picture of a diagram).
    """

    __slots__ = ("cols", "_hash")

    def __init__(self, cols: Iterable[Iterable[int]]):
        cols_t = tuple(tuple(int(x) for x in c) for c in cols)
        if not cols_t or any(not c for c in cols_t):
            raise ValueError("tableau needs at least one box per column")
        heights = [len(c) for c in cols_t]
        if any(heights[k] < heights[k + 1] for k in range(len(heights) - 1)):
            raise ValueError(f"column heights must be weakly decreasing: {heights}")
        if any(x < 1 for c in cols_t for x in c):
            raise ValueError("entries must be positive")
        self.cols = cols_t
        self._hash = hash(cols_t)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "Tableau":
        rows_t = [tuple(r) for r in rows]
        width = len(rows_t[0])
        cols = [
            tuple(row[j] for row in rows_t if len(row) > j) for j in range(width)
        ]
        return cls(cols)

    @property
    def shape(self) -> Partition:
        return Partition(len(c) for c in self.cols).conjugate()

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.cols)

    def entry(self, i: int, j: int) -> int:
        return self.cols[j - 1][i - 1]

    def rows(self) -> tuple[tuple[int, ...], ...]:
        height = len(self.cols[0])
        return tuple(
            tuple(c[i] for c in self.cols if len(c) > i) for i in range(height)
        )

    def weight(self, d: int) -> tuple[int, ...]:
        counts = [0] * d
        for c in self.cols:
            for x in c:
                counts[x - 1] += 1
        return tuple(counts)

    def col_reading(self) -> tuple[int, ...]:
        """Entries read column by column, top to bottom; the canonical sort key."""
        return tuple(x for c in self.cols for x in c)

    def is_row_semistandard(self) -> bool:
        return all(r[k] <= r[k + 1] for r in self.rows() for k in range(len(r) - 1))

    def is_row_standard(self) -> bool:
        return all(r[k] < r[k + 1] for r in self.rows() for k in range(len(r) - 1))

    def is_column_standard(self) -> bool:
        return all(c[k] < c[k + 1] for c in self.cols for k in range(len(c) - 1))

    def with_entry(self, i: int, j: int, value: int) -> "Tableau":
        cols = [list(c) for c in self.cols]
        cols[j - 1][i - 1] = value
        return Tableau(cols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tableau) and self.cols == other.cols

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(",".join(str(x) for x in r) for r in self.rows())
        return f"Tableau[{body}]"


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


_COLUMN_DRIVEN = {
    TableauClass.ALL,
    TableauClass.COLUMN_STANDARD,
    TableauClass.COLUMN_SEMISTANDARD,
    TableauClass.STANDARD,
    TableauClass.SEMISTANDARD,
    TableauClass.ROW_AND_COLUMN_SEMISTANDARD,
}


_STRICT_COLUMNS = {
    TableauClass.COLUMN_STANDARD,
    TableauClass.STANDARD,
    TableauClass.SEMISTANDARD,
}


def enumerate_tableaux(
    shape: Partition,
    d: int,
    cls: TableauClass,
    content: tuple[int, ...] | None = None,
) -> list[Tableau]:
    """All tableaux of the requested class, each once, in column-reading
    lexicographic order.

    With ``content`` (length d) only the tableaux in which letter k occurs
    content[k-1] times are generated, directly rather than by filtering;
    this needs a class whose columns are sorted.
    """
    if d < 1:
        raise ValueError("d must be positive")
    heights = tuple(shape.conjugate())
    alphabet = range(1, d + 1)

    if content is not None and cls not in _COLUMN_DRIVEN - {TableauClass.ALL}:
        raise ValueError(f"enumeration by content needs sorted columns, not {cls}")

    if cls in _COLUMN_DRIVEN:
        if content is not None:
            if len(content) != d or min(content) < 0 or sum(content) != shape.n:
                raise ValueError(f"content {content} does not fill {shape}")
            strict = cls in _STRICT_COLUMNS
            col_tuples = _cols_of_content(heights, list(content), strict)
        else:
            if cls is TableauClass.ALL:
                per_col = [list(product(alphabet, repeat=h)) for h in heights]
            elif cls in _STRICT_COLUMNS:
                per_col = [list(combinations(alphabet, h)) for h in heights]
            else:
                per_col = [
                    list(combinations_with_replacement(alphabet, h)) for h in heights
                ]
            col_tuples = product(*per_col)
        out = [Tableau(cols) for cols in col_tuples]
        if cls is TableauClass.SEMISTANDARD:
            out = [t for t in out if t.is_row_semistandard()]
        elif cls is TableauClass.STANDARD:
            out = [t for t in out if t.is_row_standard()]
        elif cls is TableauClass.ROW_AND_COLUMN_SEMISTANDARD:
            out = [t for t in out if t.is_row_semistandard()]
        return out

    # Row-driven classes have independent rows; sort back into column order.
    if cls is TableauClass.ROW_STANDARD:
        per_row = [list(combinations(alphabet, a)) for a in shape]
    elif cls is TableauClass.ROW_SEMISTANDARD:
        per_row = [list(combinations_with_replacement(alphabet, a)) for a in shape]
    else:  # pragma: no cover
        raise ValueError(f"unknown class {cls}")
    out = [Tableau.from_rows(rows) for rows in product(*per_row)]
    out.sort(key=Tableau.col_reading)
    return out


def _cols_of_content(
    heights: tuple[int, ...], counts: list[int], strict: bool
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Column tuples of sorted columns (strictly increasing when strict)
    using letter k exactly counts[k-1] times, in lexicographic order;
    ``counts`` is consumed and restored in place."""
    cols: list[tuple[int, ...]] = []

    def column(h: int, low: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if h == 0:
            yield tuple(prefix)
            return
        for x in range(low, len(counts) + 1):
            if counts[x - 1]:
                counts[x - 1] -= 1
                prefix.append(x)
                yield from column(h - 1, x + 1 if strict else x, prefix)
                prefix.pop()
                counts[x - 1] += 1

    def rec(k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if k == len(heights):
            yield tuple(cols)
            return
        # A strict column holds a letter at most once, so no letter may
        # outnumber the columns still to fill.
        if strict and max(counts) > len(heights) - k:
            return
        for col in column(heights[k], 1, []):
            cols.append(col)
            yield from rec(k + 1)
            cols.pop()

    return rec(0)


def col_compare(t: Tableau, u: Tableau) -> ColOrderResult:
    """Compare two same-shape tableaux in the column order.

    EQUIVALENT means every column carries the same multiset of entries.
    Otherwise the largest entry whose column placement differs decides,
    with the leftmost such column breaking ties; holding that entry in
    the earlier column makes a tableau the greater one.
    """
    return col_order(t.cols, u.cols)


def col_order(
    a: tuple[tuple[int, ...], ...], b: tuple[tuple[int, ...], ...]
) -> ColOrderResult:
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
