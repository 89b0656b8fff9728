"""Canonical tabloid representatives and bases for the two column tabloid
spaces.

Alternating column tabloids model a product of exterior powers, and skew
column tabloids model the product that agrees with the exterior power away
from characteristic 2 but keeps repeated column entries alive mod 2. At
odd p the two are one space, so there are two kinds: the alternating kind
and the mod-2 skew kind. A basis holds its representatives as column
tuples; `Tableau` objects are made only at the API boundary (`rep`,
`terms`, `canonicalize`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .partitions import Partition
from .tableaux import Cols, Tableau, TableauClass, enumerate_tableaux


class TabloidKind(Enum):
    """The two column tabloid spaces. Each carries one predicate,
    ``zero_on_column_repeats``: whether a repeated column entry kills a
    tabloid, which is exactly when column sorting carries a sign. It is a
    plain attribute because canonicalization reads it once per term."""

    ALTERNATING = ("alt", True)
    SKEW_MOD_2 = ("skew(p=2)", False)

    def __init__(self, label: str, zero_on_column_repeats: bool):
        self.label = label
        self.zero_on_column_repeats = zero_on_column_repeats

    def __repr__(self) -> str:
        return self.label


ALT_COLUMN = TabloidKind.ALTERNATING


def skew_column(p: int) -> TabloidKind:
    """The skew column kind at p: the alternating kind at every odd p."""
    return TabloidKind.SKEW_MOD_2 if p == 2 else ALT_COLUMN


@dataclass(frozen=True)
class SignedTabloid:
    rep: Tableau
    sign: int
    is_zero: bool = False


def sort_column(seq: tuple[int, ...]) -> tuple[tuple[int, ...], int, bool]:
    """(sorted tuple, inversion parity, had repeats). Parity counts strict
    inversions, which is the sorting permutation's parity when entries are
    distinct."""
    out = tuple(sorted(seq))
    n = len(seq)
    if out == seq:
        return seq, 0, len(set(seq)) < n
    inv = 0
    for a in range(n - 1):
        x = seq[a]
        for b in range(a + 1, n):
            if x > seq[b]:
                inv ^= 1
    return out, inv, len(set(out)) < n


def canonical_cols(cols: Cols, kind: TabloidKind) -> tuple[Cols, int, bool]:
    """(sorted columns, sign, is zero) of the tabloid class of a filling
    given by its columns. Columns sort ascending. For the alternating kind
    the sign is the parity of the sorting permutation, and a class with a
    repeated column entry is zero; the mod-2 skew kind keeps every class,
    with sign +1."""
    parity = 0
    any_repeat = False
    out = []
    for c in cols:
        sorted_c, inv, repeat = sort_column(c)
        out.append(sorted_c)
        parity ^= inv
        any_repeat = any_repeat or repeat
    if not kind.zero_on_column_repeats:
        return tuple(out), 1, False
    if any_repeat:
        return tuple(out), 1, True
    return tuple(out), -1 if parity else 1, False


def canonicalize(t: Tableau, kind: TabloidKind) -> SignedTabloid:
    """Canonical representative of the tabloid class of t, with its sign
    and zero flag, as `canonical_cols` gives them."""
    cols, sign, is_zero = canonical_cols(t.cols, kind)
    return SignedTabloid(Tableau(cols), sign, is_zero)


def basis_class(kind: TabloidKind) -> TableauClass:
    """Tableau class of the canonical representatives of a tabloid kind."""
    if kind.zero_on_column_repeats:
        return TableauClass.COLUMN_STANDARD
    return TableauClass.COLUMN_SEMISTANDARD


def row_semistandard_class(kind: TabloidKind) -> TableauClass:
    """Tableau class of the row-semistandard representatives R of a
    tabloid kind, a basis modulo the basic snakes."""
    if kind.zero_on_column_repeats:
        return TableauClass.SEMISTANDARD
    return TableauClass.ROW_AND_COLUMN_SEMISTANDARD


@dataclass(frozen=True)
class TabloidBasis:
    """Indexed family of canonical representatives for one tabloid space,
    held as column tuples."""

    kind: TabloidKind
    shape: Partition
    d: int
    cols: tuple[Cols, ...]
    index: dict[Cols, int] = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.cols)

    def index_of(self, t: Tableau) -> int:
        return self.index[t.cols]

    def rep(self, i: int) -> Tableau:
        return Tableau(self.cols[i])


@lru_cache(maxsize=256)
def build_basis(shape: Partition, d: int, kind: TabloidKind) -> TabloidBasis:
    """Basis of canonical representatives in the deterministic tableau
    order, indexed by their column tuples."""
    cols = tuple(enumerate_tableaux(shape, d, basis_class(kind)))
    return TabloidBasis(kind, shape, d, cols, {c: i for i, c in enumerate(cols)})


@dataclass(frozen=True)
class TabloidVector:
    """Sparse GF(p) vector over a tabloid basis."""

    basis: TabloidBasis
    p: int
    coords: dict[int, int]

    def is_zero(self) -> bool:
        return not self.coords

    def add(self, other: "TabloidVector") -> "TabloidVector":
        if other.basis is not self.basis or other.p != self.p:
            raise ValueError("vectors live over different bases")
        coords = dict(self.coords)
        for i, c in other.coords.items():
            v = (coords.get(i, 0) + c) % self.p
            if v:
                coords[i] = v
            else:
                coords.pop(i, None)
        return TabloidVector(self.basis, self.p, coords)

    def scale(self, c: int) -> "TabloidVector":
        c %= self.p
        if c == 0:
            return TabloidVector(self.basis, self.p, {})
        return TabloidVector(
            self.basis, self.p, {i: (a * c) % self.p for i, a in self.coords.items()}
        )

    def terms(self) -> dict[Tableau, int]:
        return {self.basis.rep(i): c for i, c in self.coords.items()}


def vector_from_terms(
    basis: TabloidBasis, p: int, terms: dict[Tableau, int]
) -> TabloidVector:
    coords = {}
    for t, c in terms.items():
        c %= p
        if c:
            coords[basis.index_of(t)] = c
    return TabloidVector(basis, p, coords)


def has_column_repeat(cols: Cols) -> bool:
    """Whether some column of a tableau, given by its column tuples,
    repeats an entry."""
    return any(len(set(c)) < len(c) for c in cols)

