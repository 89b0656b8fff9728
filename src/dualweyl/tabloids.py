"""Canonical tabloid representatives and bases for the three tabloid spaces.

Row tabloids model a product of symmetric powers, alternating column
tabloids model a product of exterior powers, and skew column tabloids
model the product that agrees with the exterior power away from
characteristic 2 but keeps repeated column entries alive mod 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .partitions import Partition
from .tableaux import Tableau, TableauClass, enumerate_tableaux


@dataclass(frozen=True)
class TabloidKind:
    family: str  # "row" | "alt" | "skew"
    p: int | None = None

    def __post_init__(self):
        if self.family not in ("row", "alt", "skew"):
            raise ValueError(f"unknown tabloid family {self.family!r}")
        if (self.family == "skew") != (self.p is not None):
            raise ValueError("exactly the skew kind carries a prime")

    @property
    def zero_on_column_repeats(self) -> bool:
        return self.family == "alt" or (self.family == "skew" and self.p != 2)

    @property
    def signed(self) -> bool:
        """Whether column sorting carries a sign; the mod-2 skew kind does
        not track signs."""
        return not (self.family == "skew" and self.p == 2)

    def __repr__(self) -> str:
        return self.family if self.p is None else f"{self.family}(p={self.p})"


ROW = TabloidKind("row")
ALT_COLUMN = TabloidKind("alt")


def skew_column(p: int) -> TabloidKind:
    return TabloidKind("skew", p)


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


def canonicalize(t: Tableau, kind: TabloidKind) -> SignedTabloid:
    """Canonical representative of the tabloid class of t, with its sign.

    Rows sort ascending for the row kind (sign always +1); columns sort
    ascending for the column kinds, the sign being the parity of the
    sorting permutation. The alternating kind flags classes with a
    repeated column entry as zero, and the skew kind does the same
    exactly when its prime is odd.
    """
    if kind.family == "row":
        return SignedTabloid(Tableau.from_rows(sorted(r) for r in t.rows()), 1)
    parity = 0
    any_repeat = False
    cols = []
    for c in t.cols:
        sorted_c, inv, repeat = sort_column(c)
        cols.append(sorted_c)
        parity ^= inv
        any_repeat = any_repeat or repeat
    rep = Tableau(cols)
    if any_repeat and kind.zero_on_column_repeats:
        return SignedTabloid(rep, 1, is_zero=True)
    return SignedTabloid(rep, -1 if parity and kind.signed else 1)


def basis_class(kind: TabloidKind) -> TableauClass:
    """Tableau class of the canonical representatives of a tabloid kind."""
    if kind.family == "row":
        return TableauClass.ROW_SEMISTANDARD
    if kind.zero_on_column_repeats:
        return TableauClass.COLUMN_STANDARD
    return TableauClass.COLUMN_SEMISTANDARD


@dataclass(frozen=True)
class TabloidBasis:
    """Indexed family of canonical representatives for one tabloid space."""

    kind: TabloidKind
    shape: Partition
    d: int
    reps: tuple[Tableau, ...]
    index: dict[tuple[tuple[int, ...], ...], int] = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.reps)

    def index_of(self, t: Tableau) -> int:
        return self.index[t.cols]

    def rep(self, i: int) -> Tableau:
        return self.reps[i]


@lru_cache(maxsize=256)
def build_basis(shape: Partition, d: int, kind: TabloidKind) -> TabloidBasis:
    """Basis of canonical representatives in the deterministic tableau
    order, indexed by their column tuples."""
    reps = tuple(enumerate_tableaux(shape, d, basis_class(kind)))
    return TabloidBasis(
        kind, shape, d, reps, {t.cols: i for i, t in enumerate(reps)}
    )


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


def unit_vector(basis: TabloidBasis, p: int, t: Tableau) -> TabloidVector:
    return TabloidVector(basis, p, {basis.index_of(t): 1})


def has_column_repeat(cols: tuple[tuple[int, ...], ...]) -> bool:
    """Whether some column of a tableau, given by its column tuples,
    repeats an entry."""
    return any(len(set(c)) < len(c) for c in cols)


def ker_q_generators(shape: Partition, d: int) -> list[TabloidVector]:
    """Unit vectors on the mod-2 skew representatives with a repeated column
    entry; these span the kernel of the reduction onto alternating tabloids."""
    basis = build_basis(shape, d, skew_column(2))
    return [
        TabloidVector(basis, 2, {i: 1})
        for i, t in enumerate(basis.reps)
        if has_column_repeat(t.cols)
    ]
