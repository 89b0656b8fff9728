"""Exact sparse linear algebra over GF(p) for small primes.

GF(2) vectors are Python ints used as bit masks (bit i = coordinate i),
which keeps row reduction at word-XOR speed. Odd primes use sparse rows,
dicts from coordinate to a coefficient in [1, p). Spans are held in fully
reduced row-echelon form at all times, so reducing a vector touches only
the pivots in its support.
"""

from __future__ import annotations


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _items(vec, ambient_dim: int):
    """(coordinate, coefficient) pairs of a sequence or sparse dict."""
    if isinstance(vec, dict):
        for i in vec:
            if not 0 <= i < ambient_dim:
                raise ValueError("coordinate out of range")
        return vec.items()
    seq = list(vec)
    if len(seq) != ambient_dim:
        raise ValueError(f"expected length {ambient_dim}, got {len(seq)}")
    return enumerate(seq)


def as_mask(vec, ambient_dim: int) -> int:
    """Coerce a GF(2) vector (int mask, sequence, or sparse dict) to a mask."""
    if isinstance(vec, int):
        if vec >> ambient_dim:
            raise ValueError("vector exceeds ambient dimension")
        return vec
    mask = 0
    for i, c in _items(vec, ambient_dim):
        if c % 2:
            mask |= 1 << i
    return mask


def as_dict(vec, ambient_dim: int, p: int) -> dict[int, int]:
    """Coerce a vector (sequence or sparse dict) to a fresh sparse row with
    coefficients in [1, p)."""
    return {i: c % p for i, c in _items(vec, ambient_dim) if c % p}


def _reduce_mask(mask: int, piv: dict[int, int], pivmask: int) -> int:
    """Clear the pivot bits of mask. The rows are in reduced echelon form,
    so each pivot bit in the support is cleared by one XOR and no other
    pivot bit changes."""
    todo = mask & pivmask
    while todo:
        low = todo & (-todo)
        mask ^= piv[low]
        todo ^= low
    return mask


def _reduce_dict(
    v: dict[int, int], piv: dict[int, dict[int, int]], p: int
) -> dict[int, int]:
    """Clear the pivot coordinates of v in place (coefficients in [1, p))
    and return it. The rows are in reduced echelon form, so subtracting one
    changes no other pivot coordinate."""
    for j in [j for j in v if j in piv]:
        c = v[j]
        for i, a in piv[j].items():
            x = (v.get(i, 0) - c * a) % p
            if x:
                v[i] = x
            else:
                del v[i]
    return v


class Subspace:
    """A subspace of GF(p)^m held as a reduced row-echelon basis.

    Pivots are leading (lowest-index) nonzero coordinates with coefficient
    1, and each pivot coordinate is zero in every other basis row; the
    representation is therefore canonical. Rows are keyed by pivot: the
    pivot bit at p = 2, the pivot index otherwise. Stored rows are never
    modified in place, so copies may share them.
    """

    def __init__(self, ambient_dim: int, p: int):
        _check_prime(p)
        self.ambient_dim = ambient_dim
        self.p = p
        self._piv: dict = {}
        self._pivmask = 0  # p = 2: the union of the pivot bits

    @property
    def dim(self) -> int:
        return len(self._piv)

    def _snapshot(self, cls):
        other = cls.__new__(cls)
        other.__dict__.update(self.__dict__)
        other._piv = dict(self._piv)
        return other

    def basis_rows(self) -> list[tuple[int, ...]]:
        """Dense basis rows with entries in [0, p), in pivot order."""
        rows = [self._piv[k] for k in sorted(self._piv)]
        m = self.ambient_dim
        if self.p == 2:
            return [tuple((r >> i) & 1 for i in range(m)) for r in rows]
        return [tuple(r.get(i, 0) for i in range(m)) for r in rows]

    def pivot_indices(self) -> list[int]:
        if self.p == 2:
            return [low.bit_length() - 1 for low in sorted(self._piv)]
        return sorted(self._piv)

    def residual_mask(self, mask: int) -> int:
        """The GF(2) mask reduced modulo the subspace (zero iff contained)."""
        return _reduce_mask(mask, self._piv, self._pivmask)

    def reduce(self, vec) -> dict[int, int]:
        """Canonical representative of vec modulo the subspace, as a sparse
        dict: zero on every pivot coordinate."""
        if self.p == 2:
            m = self.residual_mask(as_mask(vec, self.ambient_dim))
            return {i: 1 for i in _bits(m)}
        return _reduce_dict(as_dict(vec, self.ambient_dim, self.p), self._piv, self.p)

    def contains(self, vec) -> bool:
        return not self.reduce(vec)


def _bits(mask: int):
    while mask:
        low = mask & (-mask)
        yield low.bit_length() - 1
        mask ^= low


class SpanBuilder(Subspace):
    """Incremental reduced-echelon builder: push a vector, learn whether
    rank grew. A new row is cleared of the existing pivots, then its own
    pivot is cleared from the existing rows.

    Single-owner while building; ``copy`` gives an independent builder
    sharing the (immutable) stored rows.
    """

    rank = Subspace.dim

    def copy(self) -> "SpanBuilder":
        return self._snapshot(SpanBuilder)

    def subspace(self) -> Subspace:
        """Fully reduced canonical subspace, frozen at the current rank."""
        return self._snapshot(Subspace)

    def add_mask(self, mask: int) -> bool:
        mask = self.residual_mask(mask)
        if not mask:
            return False
        low = mask & (-mask)
        piv = self._piv
        for k, row in piv.items():
            if row & low:
                piv[k] = row ^ mask
        piv[low] = mask
        self._pivmask |= low
        return True

    def _add_dict(self, v: dict[int, int]) -> bool:
        p, piv = self.p, self._piv
        v = _reduce_dict(v, piv, p)
        if not v:
            return False
        j = min(v)
        inv = pow(v[j], -1, p)
        new = v if inv == 1 else {i: c * inv % p for i, c in v.items()}
        one = {j: new}
        for k, row in piv.items():
            if j in row:
                piv[k] = _reduce_dict(dict(row), one, p)
        piv[j] = new
        return True

    def add(self, vec) -> bool:
        if self.p == 2:
            return self.add_mask(as_mask(vec, self.ambient_dim))
        return self._add_dict(as_dict(vec, self.ambient_dim, self.p))
