"""Canonical tabloid representatives and bases for the two column tabloid
spaces.

Alternating column tabloids model a product of exterior powers, and skew
column tabloids model the product that agrees with the exterior power away
from characteristic 2 but keeps repeated column entries alive mod 2. At
odd p the two are one space, so there are two kinds: the alternating kind
and the mod-2 skew kind. A basis holds its representatives as column
tuples; `Tableau` objects are made only at the API boundary (`rep`,
`terms`, `canonicalize`). `tabloid_kind` maps a construction at p to its
kind, and `alternating_forecast` forecasts a `dim` query on the
alternating kind, which `dim` answers without the constructions.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from types import MappingProxyType

from .gfp import _check_prime
from .partitions import Partition
from .records import Record
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


def tabloid_kind(model: str, p: int) -> TabloidKind:
    """The tabloid kind of a construction at p: the one place that maps a
    (model, p) pair to a kind."""
    _check_prime(p)
    if model == "nabla":
        return ALT_COLUMN
    if model == "gtensor":
        return skew_column(p)
    raise ValueError(f"unknown module {model!r}")


# `dim` refuses a query whose forecast work (this forecast, or on the mod-2
# skew kind `quotients.dominant_rep_bound`) is more than this; near it a
# query takes seconds.
DIM_REP_BUDGET = 100_000


def alternating_forecast(which: str, shape: Partition, d: int, p: int) -> int | None:
    """The forecast work of a `dim` query (``"nabla"``, ``"gtensor"``, or
    ``"u"`` on the skew construction) whose kind is alternating, and None
    on the mod-2 skew kind. The alternating kind has no relation left, so
    the dimension is the hook-content count, which costs its n factors,
    each once per 30-bit digit (the digit of Python's integers) of d + n."""
    if d < 1:
        raise ValueError("d must be positive")
    if tabloid_kind("gtensor" if which == "u" else which, p) is not ALT_COLUMN:
        return None
    return shape.n * (((d + shape.n).bit_length() + 29) // 30)


class SignedTabloid(Record):
    __slots__ = ("rep", "sign", "is_zero")

    def __init__(self, rep: Tableau, sign: int, is_zero: bool = False):
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "is_zero", is_zero)


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


def _out_of_range(i: int, dim: int) -> ValueError:
    return ValueError(f"coordinate {i!r} is not in range({dim})")


class TabloidBasis(Record, hidden=("index",)):
    """Indexed family of canonical representatives for one tabloid space,
    held as column tuples. Bases compare by all but the index, which
    follows from the columns."""

    __slots__ = ("kind", "shape", "d", "cols", "index")

    def __init__(
        self,
        kind: TabloidKind,
        shape: Partition,
        d: int,
        cols: tuple[Cols, ...],
        index: MappingProxyType[Cols, int],
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "index", index)

    @property
    def dim(self) -> int:
        return len(self.cols)

    def __reduce__(self):
        # A read-only view does not pickle; the index follows from the
        # columns, so a copy rebuilds it from them.
        return _indexed_basis, (self.kind, self.shape, self.d, self.cols)

    def index_of(self, t: Tableau) -> int:
        return self.index[t.cols]

    def rep(self, i: int) -> Tableau:
        """The representative of coordinate i; an i outside range(dim),
        -1 included, is refused."""
        if not 0 <= i < len(self.cols):
            raise _out_of_range(i, len(self.cols))
        return Tableau(self.cols[i])


@lru_cache(maxsize=256)
def build_basis(shape: Partition, d: int, kind: TabloidKind) -> TabloidBasis:
    """Basis of canonical representatives in the deterministic tableau
    order, indexed by their column tuples through a read-only view."""
    cols = tuple(enumerate_tableaux(shape, d, basis_class(kind)))
    return _indexed_basis(kind, shape, d, cols)


def _indexed_basis(
    kind: TabloidKind, shape: Partition, d: int, cols: tuple[Cols, ...]
) -> TabloidBasis:
    index = MappingProxyType({c: i for i, c in enumerate(cols)})
    return TabloidBasis(kind, shape, d, cols, index)


class TabloidVector(Record):
    """Sparse GF(p) vector over a tabloid basis; unhashable, as its
    coordinates are a dict."""

    __slots__ = ("basis", "p", "coords")

    def __init__(self, basis: TabloidBasis, p: int, coords: dict[int, int]):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coords", coords)

    def is_zero(self) -> bool:
        return not self.coords

    def add(self, other: "TabloidVector") -> "TabloidVector":
        # the same basis, or failing that an equal one (a copy's)
        basis = other.basis
        if (basis is not self.basis and basis != self.basis) or other.p != self.p:
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

