"""Tableaux over the alphabet {1..d}, enumeration by class, and the column order.

Inside the package a tableau travels as its column tuples (``Cols``);
`Tableau` is the validated form at the API boundary."""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from typing import Iterable

from .partitions import Partition


class TableauClass(Enum):
    ALL = "all"
    COLUMN_STANDARD = "column_standard"
    COLUMN_SEMISTANDARD = "column_semistandard"
    STANDARD = "standard"
    SEMISTANDARD = "semistandard"
    ROW_AND_COLUMN_SEMISTANDARD = "row_and_column_semistandard"


class ColOrderResult(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUIVALENT = "equivalent"


Box = tuple[int, int]
Cols = tuple[tuple[int, ...], ...]


def weight_of(cols: Cols, d: int) -> tuple[int, ...]:
    """How often each letter 1..d occurs in a tableau given by its columns."""
    counts = [0] * d
    for c in cols:
        for x in c:
            counts[x - 1] += 1
    return tuple(counts)


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
        return weight_of(self.cols, d)

    def is_row_semistandard(self) -> bool:
        return all(r[k] <= r[k + 1] for r in self.rows() for k in range(len(r) - 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Tableau) and self.cols == other.cols

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(",".join(str(x) for x in r) for r in self.rows())
        return f"Tableau[{body}]"


# Sorted-column classes: (step down a column, gap to the left neighbour in
# the same row, None when rows are unordered).
_SORTED_CLASSES = {
    TableauClass.COLUMN_STANDARD: (1, None),
    TableauClass.COLUMN_SEMISTANDARD: (0, None),
    TableauClass.STANDARD: (1, 1),
    TableauClass.SEMISTANDARD: (1, 0),
    TableauClass.ROW_AND_COLUMN_SEMISTANDARD: (0, 0),
}


def enumerate_tableaux(
    shape: Partition,
    d: int,
    cls: TableauClass,
    content: tuple[int, ...] | None = None,
) -> list[Cols]:
    """The column tuples of all tableaux of the requested class, each once,
    in column-reading lexicographic order.

    Every class but ALL has sorted columns. With no row order and no
    content, like ALL, the tableaux are the product of their columns' lex
    lists. Otherwise they are generated column by column, top to bottom: an
    entry is at least the one above it plus the class's column step and,
    when the class orders rows, at least its left neighbour plus the row
    gap. With ``content`` (length d) letter k is used exactly
    content[k-1] times, consumed as the entries are placed rather than by
    filtering.
    """
    if d < 1:
        raise ValueError("d must be positive")
    heights = tuple(shape.conjugate())
    if cls is TableauClass.ALL:
        if content is not None:
            raise ValueError(f"enumeration by content needs sorted columns, not {cls}")
        alphabet = range(1, d + 1)
        return list(product(*(product(alphabet, repeat=h) for h in heights)))
    step, gap = _SORTED_CLASSES[cls]
    if content is None and gap is None:
        column = combinations if step else combinations_with_replacement
        return list(product(*(column(range(1, d + 1), h) for h in heights)))
    if content is None:
        counts = [shape.n] * d  # never binding
    elif len(content) != d or min(content) < 0 or sum(content) != shape.n:
        raise ValueError(f"content {content} does not fill {shape}")
    else:
        counts = list(content)
    last = len(heights) - 1
    # The boxes in column-reading order, each with its column, its row, the
    # largest entry that leaves room below it, the index of the top box of
    # its column, and how far back its left neighbour is when rows are
    # ordered (else 0). They are filled by backtracking with an explicit
    # position, not by recursion, so no shape is too long for the stack.
    boxes, start = [], 0
    for k, h in enumerate(heights):
        shift = heights[k - 1] if k and gap is not None else 0
        boxes += [(k, i, d - step * (h - 1 - i), start, shift) for i in range(h)]
        start += h
    out: list[Cols] = []
    cols: list[tuple[int, ...]] = []  # the columns before the current one
    grid = [0] * start

    def fillable(k: int, top: int) -> bool:
        """Whether the letters left can fill the columns after column k,
        whose top entry is ``top``. A strict column holds a letter at most
        once, so no letter may outnumber the columns still to fill. When
        rows are ordered, every later entry is at least that top plus the
        row gap, so no smaller letter may be left."""
        if content is None:
            return True
        if step and max(counts) > last - k:
            return False
        return gap is None or not any(counts[: top + gap - 1])

    b, x = 0, 1
    while True:
        k, i, high, first, _ = boxes[b]
        while x <= high and not counts[x - 1]:
            x += 1
        # Back up when box b is exhausted, or when it lies in the last column
        # and a letter below x is left over: the boxes below take x or more.
        if x > high or (k == last and content is not None and any(counts[: x - 1])):
            if b == 0:
                return out
            if i == 0:
                cols.pop()
            b -= 1
            x = grid[b]
            counts[x - 1] += 1
            x += 1
            continue
        grid[b] = x
        if b == start - 1:
            out.append((*cols, tuple(grid[first:])))
            x += 1
            continue
        counts[x - 1] -= 1
        if boxes[b + 1][1] == 0:  # box b ends its column
            if not fillable(k, grid[first]):
                counts[x - 1] += 1
                x += 1
                continue
            cols.append(tuple(grid[first:b + 1]))
        b += 1
        x = grid[b - 1] + step if boxes[b][1] else 1
        if boxes[b][4]:
            x = max(x, grid[b - boxes[b][4]] + gap)


@lru_cache(maxsize=4096)
def kostka_number(shape: Partition, beta: Partition) -> int:
    """The number of semistandard tableaux of ``shape`` with content beta
    (the Kostka number), cached; a weight that rearranges beta has the
    same count."""
    return len(enumerate_tableaux(
        shape, len(beta), TableauClass.SEMISTANDARD, content=tuple(beta)
    ))


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
