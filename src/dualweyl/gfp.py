"""Exact sparse linear algebra over GF(p) for small primes.

Vectors come in as sparse dicts {coordinate: coefficient} at every p.
Inside, GF(2) rows are Python ints used as bit masks (bit i = coordinate
i), which keeps row reduction at word-XOR speed, and a caller holding a
mask passes it to `add_mask` or `residual_mask`. Odd primes use sparse
rows, dicts from coordinate to a coefficient in [1, p), and a caller
holding such a dict, already in range, passes it to `residual_dict`,
which reduces it in place with no second check or copy. A `SpanBuilder`
holds its span in row-echelon form that is not reduced: a push clears the
pivots of the new vector in increasing order and stores it without
touching earlier rows. `SpanBuilder.subspace` back-substitutes once, from
the highest pivot down, into the reduced row-echelon form of a frozen
`Subspace`, which is canonical. `Subspace.from_reduced_rows` freezes rows
a caller already has in that form, after checking that they are.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


# Miller-Rabin to these bases is exact below _PRIME_LIMIT (Sorenson and
# Webster, Math. Comp. 86, 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; refuses p at or above _PRIME_LIMIT."""
    if p in _WITNESSES:  # the primes that builds check, answered at once
        return True
    if p >= _PRIME_LIMIT:
        raise ValueError(f"p must be below {_PRIME_LIMIT}, got {p}")
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return False
    twos = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = odd * 2^twos
    odd = (p - 1) >> twos
    for a in _WITNESSES:
        x = pow(a, odd, p)
        if x != 1 and all(pow(x, 1 << k, p) != p - 1 for k in range(twos)):
            return False
    return True


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _reduce_mask(mask: int, piv: dict[int, int], pivmask: int) -> int:
    """Clear the pivot bits of mask, lowest first. Each row's lowest bit is
    its pivot, so an XOR changes only higher bits; this holds for echelon
    and reduced echelon rows alike."""
    todo = mask & pivmask
    while todo:
        mask ^= piv[todo & (-todo)]
        todo = mask & pivmask
    return mask


def _clear_dict(
    v: dict[int, int], piv: dict[int, dict[int, int]], p: int
) -> dict[int, int]:
    """Clear the pivot coordinates of v in place (coefficients in [1, p)),
    in increasing order, and return it. The rows are echelon: subtracting
    the row of pivot j changes only coordinates above j, so a pivot it
    brings in is queued and a cleared one never comes back. Against
    reduced rows nothing is brought in, and the result is canonical."""
    heap = [j for j in v if j in piv]
    heapify(heap)
    get = v.get
    while heap:
        j = heappop(heap)
        c = get(j)
        if c is None:  # cancelled, or queued twice
            continue
        c = p - c
        for i, a in piv[j].items():
            x = get(i)
            if x is None:
                v[i] = c * a % p
                if i in piv:
                    heappush(heap, i)
            else:
                x = (x + c * a) % p
                if x:
                    v[i] = x
                else:
                    del v[i]
    return v


def _bits(mask: int):
    while mask:
        low = mask & (-mask)
        yield low.bit_length() - 1
        mask ^= low


class _Rows:
    """Rows over GF(p)^m keyed by pivot, the leading (lowest-index) nonzero
    coordinate, which has coefficient 1: the pivot bit at p = 2, the pivot
    index otherwise. Stored rows are never modified in place, so a builder
    and the subspace frozen from it may share them."""

    def __init__(self, ambient_dim: int, p: int):
        _check_prime(p)
        self.ambient_dim = ambient_dim
        self.p = p
        self._piv: dict = {}
        self._pivmask = 0  # p = 2: the union of the pivot bits

    @property
    def dim(self) -> int:
        return len(self._piv)

    def residual_mask(self, mask: int) -> int:
        """The GF(2) mask reduced modulo the span (zero iff contained)."""
        return _reduce_mask(mask, self._piv, self._pivmask)

    def residual_dict(self, v: dict[int, int]) -> dict[int, int]:
        """The odd-p twin of `residual_mask`: a sparse dict, with
        coordinates in range and coefficients in [1, p), reduced modulo
        the span in place (empty iff contained)."""
        return _clear_dict(v, self._piv, self.p)

    def _coerce(self, vec):
        """A sparse dict {coordinate: coefficient} as a row of this space:
        a mask at p = 2, a fresh dict with coefficients in [1, p) otherwise."""
        if not isinstance(vec, dict):
            raise TypeError(f"expected a sparse dict, got {type(vec).__name__}")
        m, p = self.ambient_dim, self.p
        if vec and (min(vec) < 0 or max(vec) >= m):
            raise ValueError(f"coordinate out of range({m})")
        if p == 2:
            mask = 0
            for i, c in vec.items():
                if c % 2:
                    mask |= 1 << i
            return mask
        return {i: c % p for i, c in vec.items() if c % p}

    def _residual(self, vec):
        """vec modulo the span: a mask at p = 2, a sparse dict otherwise;
        zero on every pivot coordinate."""
        v = self._coerce(vec)
        return self.residual_mask(v) if self.p == 2 else self.residual_dict(v)

    def contains(self, vec) -> bool:
        return not self._residual(vec)


class Subspace(_Rows):
    """A frozen subspace of GF(p)^m held as a reduced row-echelon basis:
    each pivot coordinate is also zero in every other basis row, so the
    representation is canonical."""

    @classmethod
    def from_reduced_rows(cls, ambient_dim: int, p: int, rows) -> "Subspace":
        """The subspace of rows already in reduced row-echelon form: bit
        masks at p = 2, sparse dicts with coefficients in [1, p) otherwise.
        Each row's lowest coordinate is its pivot, with coefficient 1, and
        no pivot coordinate occurs in another row; other rows are refused.
        The rows are kept as given, so the caller must not change them."""
        out = cls(ambient_dim, p)
        piv = out._piv
        for row in rows:
            if p == 2:
                key = row & (-row)
                bad = row <= 0 or row >> ambient_dim
            else:
                key = min(row, default=-1)
                bad = (
                    key < 0
                    or row[key] != 1
                    or max(row) >= ambient_dim
                    or min(row.values()) < 1
                    or max(row.values()) >= p
                )
            if bad or key in piv:
                raise ValueError(
                    f"{row!r} is not a reduced echelon row of GF({p})^{ambient_dim}"
                )
            piv[key] = row
        if p == 2:
            out._pivmask = mask = sum(piv)
            clash = [k.bit_length() - 1 for k, row in piv.items() if row & mask != k]
        else:
            clash = [k for k, row in piv.items() if len(row.keys() & piv.keys()) > 1]
        if clash:
            raise ValueError(f"the row of pivot {clash[0]} holds another pivot")
        return out

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

    def reduce(self, vec) -> dict[int, int]:
        """Canonical representative of vec modulo the subspace, as a sparse
        dict: zero on every pivot coordinate."""
        r = self._residual(vec)
        return {i: 1 for i in _bits(r)} if self.p == 2 else r


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
        out = Subspace(self.ambient_dim, self.p)
        done, p = out._piv, self.p
        for k in sorted(self._piv, reverse=True):
            row = self._piv[k]
            if p == 2:
                row = _reduce_mask(row, done, out._pivmask)
                out._pivmask |= k
            elif any(i in done for i in row):
                row = _clear_dict(dict(row), done, p)
            done[k] = row
        return out

    def add_mask(self, mask: int) -> bool:
        mask = self.residual_mask(mask)
        if not mask:
            return False
        low = mask & (-mask)
        self._piv[low] = mask
        self._pivmask |= low
        return True

    def _add_dict(self, v: dict[int, int]) -> bool:
        p = self.p
        v = _clear_dict(v, self._piv, p)
        if not v:
            return False
        j = min(v)
        inv = pow(v[j], -1, p)
        self._piv[j] = v if inv == 1 else {i: c * inv % p for i, c in v.items()}
        return True

    def add(self, vec) -> bool:
        v = self._coerce(vec)
        return self.add_mask(v) if self.p == 2 else self._add_dict(v)
