"""Canonical tabloid representatives and bases for the two column tabloid
spaces.

Alternating column tabloids model a product of exterior powers, and skew
column tabloids model the product that agrees with the exterior power away
from characteristic 2 but keeps repeated column entries alive mod 2. At
odd p the two are one space, so there are two kinds: the alternating kind
and the mod-2 skew kind. `tabloid_kind` maps a construction at p to its
kind, by the rule of `partitions.is_alternating`.

A basis is the product of its columns' lex lists: sets of letters
(alternating) or multisets (mod-2 skew), each column one basis vector of
an exterior power, or of its mod-2 skew analogue. So a tabloid's
coordinate is a mixed-radix number whose digits are its columns' lex
ranks (`column_rank`, a sum of binomials in the combinatorial number
system: Knuth, TAOCP 4A, section 7.2.1.3), and `TabloidBasis.rank` reads
it by arithmetic, with no per-tabloid table. The basis still lists its
representatives as column tuples (``cols``), which full builds walk and
`rep` reads; `Tableau` objects are made only at the API boundary (`rep`,
`terms`, `canonicalize`). `build_basis` is the one gate in front of every
basis listing: `_refuse_oversized` counts a space in closed form (with
`tableaux.capped_product_count`, which also gates the product listings
of `enumerate_tableaux`) and refuses one past `BUILD_BUDGET` before a
tableau is listed. The `TabloidBasis` constructor refuses such a space
too, before it forms the column heights, so no basis over one exists.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import comb

from .partitions import InvariantError, Partition, is_alternating
from .records import Record
from .tableaux import (
    BUILD_BUDGET,
    Cols,
    Tableau,
    TableauClass,
    capped_product_count,
    column_count,
    enumerate_tableaux,
)


class TabloidKind(Enum):
    """The two column tabloid spaces. Each carries one predicate,
    ``zero_on_column_repeats``: whether a repeated column entry kills a
    tabloid, which is exactly when column sorting carries a sign. It is a
    plain attribute because `sort_column` reads it once per column."""

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
    """The tabloid kind of a construction at p."""
    return ALT_COLUMN if is_alternating(model, p) else TabloidKind.SKEW_MOD_2


class SignedTabloid(Record):
    __slots__ = ("rep", "sign", "is_zero")

    def __init__(self, rep: Tableau, sign: int, is_zero: bool = False):
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "is_zero", is_zero)


def sort_column(seq: tuple[int, ...], kind: TabloidKind) -> tuple[tuple[int, ...], int]:
    """(sorted column, sign): the one column rule. The mod-2 skew kind
    keeps repeated entries, and every sign is 1. On the alternating kind a
    column that repeats an entry is zero (sign 0); otherwise the sign is
    that of the sorting permutation, from its strict inversions."""
    col = tuple(sorted(seq))
    if not kind.zero_on_column_repeats:
        return col, 1
    if len(set(col)) < len(col):
        return col, 0
    if col == seq:
        return col, 1
    inv = 0
    for a, x in enumerate(seq):
        for y in seq[a + 1:]:
            if x > y:
                inv ^= 1
    return col, -1 if inv else 1


def canonical_cols(cols: Cols, kind: TabloidKind) -> tuple[Cols, int, bool]:
    """(sorted columns, sign, is zero) of the tabloid class of a filling
    given by its columns: the product of the columns' `sort_column` signs,
    with a zero class given sign +1."""
    out = []
    sign = 1
    for c in cols:
        col, s = sort_column(c, kind)
        out.append(col)
        sign *= s
    return tuple(out), sign or 1, not sign


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


@lru_cache(maxsize=1 << 14)
def column_rank(col: tuple[int, ...], d: int, strict: bool) -> int | None:
    """The lex rank of a column among those of its height over d letters,
    or None when it is not one: a set (``strict``) or a multiset, sorted,
    of letters in 1..d. Adding i to the i-th entry, from 0, maps the
    multisets onto the sets over d + h - 1 letters, in order. The columns
    after a set c in lex order agree with it before some i and hold a
    larger letter there: C(m - c_i, h - i) of them over m letters."""
    h = len(col)
    letters = d if strict else d + h - 1
    rank, last = comb(letters, h) - 1, 0
    for i, x in enumerate(col):
        if not strict:
            x += i
        if not last < x <= letters:
            return None
        rank -= comb(letters - x, h - i)
        last = x
    return rank


def _out_of_range(i: int, dim: int) -> ValueError:
    return ValueError(f"coordinate {i!r} is not in range({dim})")


class TabloidBasis(Record, hidden=("cols", "dim", "heights", "weights")):
    """Indexed family of canonical representatives for one tabloid space:
    ``cols``, the representatives as column tuples in coordinate order;
    ``dim``, their number in closed form; ``heights``, the column heights;
    ``weights``, the radix weight of each column's digit, the product of
    the column counts to its right. Bases compare, hash and show
    themselves by (kind, shape, d) alone, which fix the rest."""

    __slots__ = ("kind", "shape", "d", "cols", "dim", "heights", "weights")

    def __init__(
        self, kind: TabloidKind, shape: Partition, d: int, cols: tuple[Cols, ...]
    ):
        _refuse_oversized(shape, d, kind)
        strict = kind.zero_on_column_repeats
        heights = tuple(shape.conjugate())
        weights, dim = [], 1
        for h in reversed(heights):
            weights.append(dim)
            dim *= column_count(h, d, strict)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "heights", heights)
        object.__setattr__(self, "weights", tuple(reversed(weights)))

    def __reduce__(self):
        # A basis follows from (kind, shape, d): a copy is `build_basis`'s.
        return build_basis, (self.shape, self.d, self.kind)

    def rank(self, cols: Cols) -> int | None:
        """The coordinate of the tabloid with columns ``cols``, the sum of
        its columns' ranks times their weights, or None when it is not a
        representative."""
        if len(cols) != len(self.heights):
            return None
        d, strict = self.d, self.kind.zero_on_column_repeats
        index = 0
        for col, h, w in zip(cols, self.heights, self.weights):
            if len(col) != h or (r := column_rank(col, d, strict)) is None:
                return None
            index += r * w
        return index

    def index_of(self, t: Tableau) -> int:
        """The coordinate of t, which must be one of the representatives:
        anything else (an unsorted column, a letter above d, another shape,
        or an alternating column repeat) is refused."""
        index = self.rank(t.cols)
        if index is None:
            raise ValueError(f"{t!r} is not a representative of {self!r}")
        return index

    def rep(self, i: int) -> Tableau:
        """The representative of coordinate i; an i outside range(dim),
        -1 included, is refused."""
        if not 0 <= i < self.dim:
            raise _out_of_range(i, self.dim)
        return Tableau(self.cols[i])


def _refuse_oversized(shape: Partition, d: int, kind: TabloidKind) -> None:
    """Refuse, with `ValueError`, a tabloid space past `BUILD_BUDGET`: the
    product over the columns of C(d, h), or C(d + h - 1, h) for mod-2 skew
    (a set of h letters, or a multiset), capped past the budget by
    `tableaux.capped_product_count`, which forms nothing else."""
    strict = kind.zero_on_column_repeats
    count = capped_product_count(shape, lambda h: column_count(h, d, strict))
    if count > BUILD_BUDGET:
        raise ValueError(
            f"the {kind!r} tabloid space of {shape} at d={d} holds at least "
            f"{count} tabloids, over the budget of {BUILD_BUDGET}"
        )


@lru_cache(maxsize=256)
def build_basis(shape: Partition, d: int, kind: TabloidKind) -> TabloidBasis:
    """Basis of canonical representatives, listed in the deterministic
    tableau order: the product of the columns' lex lists, which `rank`
    reads as mixed-radix numbers. A space past `BUILD_BUDGET` is refused
    by `_refuse_oversized` with `ValueError` before anything is listed, as
    the `TabloidBasis` constructor refuses it before it forms the column
    heights, so every full build, straightening and unpickled basis passes
    this one gate."""
    _refuse_oversized(shape, d, kind)
    cols = tuple(enumerate_tableaux(shape, d, basis_class(kind)))
    basis = TabloidBasis(kind, shape, d, cols)
    if len(cols) != basis.dim:
        raise InvariantError(f"{basis!r} lists {len(cols)} tabloids, not {basis.dim}")
    return basis


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

