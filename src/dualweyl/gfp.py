"""Exact sparse linear algebra over GF(2), the one field that eliminates.

At odd p no relation is left to eliminate: a block's relation span is
read off its integer straightening (see `quotients`). Rows are Python
ints used as bit masks (bit i = coordinate i), which keeps row reduction
at word-XOR speed. Vectors come in as sparse dicts {coordinate:
coefficient}, read mod 2, or, from a caller holding one already, as a
mask passed to `add_mask` or `residual_mask`. A `SpanBuilder` holds its
span in row-echelon form that is not reduced: a push clears the pivots of
the new vector in increasing order and stores it without touching earlier
rows. `SpanBuilder.subspace` back-substitutes once, from the highest
pivot down, into the reduced row-echelon form of a frozen `Subspace`,
which is canonical.
"""

from __future__ import annotations


def _reduce_mask(mask: int, piv: dict[int, int], pivmask: int) -> int:
    """Clear the pivot bits of mask, lowest first. Each row's lowest bit is
    its pivot, so an XOR changes only higher bits; this holds for echelon
    and reduced echelon rows alike."""
    todo = mask & pivmask
    while todo:
        mask ^= piv[todo & (-todo)]
        todo = mask & pivmask
    return mask


def _bits(mask: int):
    while mask:
        low = mask & (-mask)
        yield low.bit_length() - 1
        mask ^= low


class _Rows:
    """Rows over GF(2)^m keyed by their pivot bit, the lowest set bit.
    Stored rows are never modified in place, so a builder and the subspace
    frozen from it may share them."""

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self._piv: dict[int, int] = {}
        self._pivmask = 0  # the union of the pivot bits

    @property
    def dim(self) -> int:
        return len(self._piv)

    def residual_mask(self, mask: int) -> int:
        """The mask reduced modulo the span (zero iff contained)."""
        return _reduce_mask(mask, self._piv, self._pivmask)

    def _coerce(self, vec) -> int:
        """A sparse dict {coordinate: coefficient} as a mask of its odd
        coefficients."""
        if not isinstance(vec, dict):
            raise TypeError(f"expected a sparse dict, got {type(vec).__name__}")
        m = self.ambient_dim
        if vec and (min(vec) < 0 or max(vec) >= m):
            raise ValueError(f"coordinate out of range({m})")
        mask = 0
        for i, c in vec.items():
            if c % 2:
                mask |= 1 << i
        return mask

    def contains(self, vec) -> bool:
        return not self.residual_mask(self._coerce(vec))


class Subspace(_Rows):
    """A frozen subspace of GF(2)^m held as a reduced row-echelon basis:
    each pivot coordinate is also zero in every other basis row, so the
    representation is canonical."""

    def basis_rows(self) -> list[tuple[int, ...]]:
        """Dense 0/1 basis rows, in pivot order."""
        rows = [self._piv[k] for k in sorted(self._piv)]
        m = self.ambient_dim
        return [tuple((r >> i) & 1 for i in range(m)) for r in rows]

    def pivot_indices(self) -> list[int]:
        return [low.bit_length() - 1 for low in sorted(self._piv)]

    def reduce(self, vec) -> dict[int, int]:
        """Canonical representative of vec modulo the subspace, as a sparse
        dict: zero on every pivot coordinate."""
        return dict.fromkeys(_bits(self.residual_mask(self._coerce(vec))), 1)


class SpanBuilder(_Rows):
    """Incremental row-echelon builder: push a vector, learn whether rank
    grew. A new row is cleared of the existing pivots and stored; earlier
    rows are never touched, so the rows are echelon but not reduced. They
    answer rank and membership; `subspace` gives the canonical form.

    Single-owner while building; every block the package keeps is frozen.
    """

    rank = _Rows.dim

    def subspace(self) -> Subspace:
        """The canonical subspace at the current rank, by one
        back-substitution from the highest pivot down: every row above a
        pivot is already reduced, so one pass clears it."""
        out = Subspace(self.ambient_dim)
        done = out._piv
        for k in sorted(self._piv, reverse=True):
            done[k] = _reduce_mask(self._piv[k], done, out._pivmask)
            out._pivmask |= k
        return out

    def add_mask(self, mask: int) -> bool:
        mask = self.residual_mask(mask)
        if not mask:
            return False
        low = mask & (-mask)
        self._piv[low] = mask
        self._pivmask |= low
        return True

    def add(self, vec) -> bool:
        return self.add_mask(self._coerce(vec))
