"""Partitions, dominant weights and their S_d-orbits, hook/content
counting, and the binomial parity fact of the one-letter case."""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left
from collections import Counter
from typing import Iterable, Iterator


class InvariantError(RuntimeError):
    """An internal consistency check of an exact computation failed. This
    signals a bug in the package, never bad input."""


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Immutable and hashable; behaves as a plain tuple of parts.
    """

    def __new__(cls, parts) -> "Partition":
        parts = tuple(map(int, parts))
        if not parts:
            raise ValueError("empty partition is not allowed")
        if min(parts) <= 0:
            raise ValueError(f"parts must be positive: {parts}")
        if any(map(operator.lt, parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        """Number of boxes."""
        return sum(self)

    def part(self, i: int) -> int:
        """The i-th part (1-based), 0 beyond the last row."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def conjugate(self) -> "Partition":
        """The column lengths: column j holds the rows of length at least j."""
        ascending = self[::-1]
        return Partition(
            len(self) - bisect_left(ascending, j) for j in range(1, self[0] + 1)
        )

    def is_two_regular(self) -> bool:
        """True iff all parts are distinct."""
        return len(set(self)) == len(self)

    def boxes(self) -> list[tuple[int, int]]:
        """All boxes (row, column), 1-based, row by row."""
        return [(i, j) for i, row in enumerate(self, 1) for j in range(1, row + 1)]

    def remove_first_part(self) -> "Partition | None":
        return Partition(self[1:]) if len(self) > 1 else None

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


# `parse_partition` refuses more parts than this before expanding any
# exponent, so "1^100000000" is an error, not an out-of-memory crash.
MAX_PARTS = 1_000_000


def parse_partition(text: str) -> Partition:
    """Parse "4,3,2,1,1" or the exponent shorthand "2^2,1"."""
    runs: list[tuple[int, int]] = []
    for token in text.strip().split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"bad partition syntax: {text!r}")
        m = re.fullmatch(r"(\d+)(?:\^(\d+))?", token)
        if not m:
            raise ValueError(f"bad partition token: {token!r}")
        runs.append((int(m.group(1)), int(m.group(2)) if m.group(2) else 1))
    if (count := sum(k for _, k in runs)) > MAX_PARTS:
        raise ValueError(f"{count} parts, over the limit of {MAX_PARTS}")
    return Partition(a for a, k in runs for _ in range(k))


def format_partition(shape: Partition) -> str:
    return ",".join(str(a) for a in shape)


def partitions_of(n: int, max_parts: int | None = None) -> Iterator[Partition]:
    """All partitions of n, with at most max_parts parts when it is given, in
    descending lexicographic order, O(max_parts) work each and no recursion:
    the next lowers by 1 the last part that can drop with the rest still
    fitting in max_parts parts, and refills greedily after it. With at most
    d parts these are the dominant weights over d letters."""
    if n <= 0:
        raise ValueError("n must be positive")
    d = n if max_parts is None else max_parts
    if d < 1:
        raise ValueError("max_parts must be positive")
    parts = [n]
    while True:
        yield Partition(parts)
        rest = 0
        for i in range(len(parts) - 1, -1, -1):
            rest += parts[i]
            cap = parts[i] - 1
            if cap and rest - cap <= cap * (d - i - 1):
                break
        else:
            return
        full, last = divmod(rest - cap, cap)
        parts[i:] = [cap] * (full + 1) + ([last] if last else [])


def orbit_size(beta: Partition, d: int) -> int:
    """Number of distinct weights over d letters that rearrange beta."""
    mults = Counter(beta).values()
    return math.perm(d, len(beta)) // _product(map(math.factorial, mults))


def orbit(beta: Partition, d: int) -> Iterator[tuple[int, ...]]:
    """The distinct rearrangements of beta padded with zeros to d letters,
    in ascending lexicographic order, each from the one before by the
    next-permutation step."""
    weight = [0] * (d - len(beta)) + list(reversed(beta))
    while True:
        yield tuple(weight)
        i = d - 2
        while i >= 0 and weight[i] >= weight[i + 1]:
            i -= 1
        if i < 0:
            return
        j = d - 1
        while weight[j] <= weight[i]:
            j -= 1
        weight[i], weight[j] = weight[j], weight[i]
        weight[i + 1 :] = reversed(weight[i + 1 :])


def dominates(mu: Partition, nu: Partition) -> bool:
    """True iff mu dominates nu (same size, partial sums of mu never smaller)."""
    if mu.n != nu.n:
        raise ValueError("dominance compares partitions of the same n")
    total_mu = total_nu = 0
    for k in range(max(len(mu), len(nu))):
        total_mu += mu.part(k + 1)
        total_nu += nu.part(k + 1)
        if total_mu < total_nu:
            return False
    return True


def hook_content_dim(shape: Partition, d: int) -> int:
    """Number of semistandard fillings of shape with entries in {1..d}.

    Computed by the hook content product; equals 0 when the first column
    is taller than d.
    """
    if d < 1:
        raise ValueError("d must be positive")
    value, rem = divmod(_product(_contents(shape, d)), _hook_product(shape))
    if rem:
        raise InvariantError(f"hook product of {shape} does not divide its contents")
    return value


def hook_content_log10(shape: Partition, d: int) -> float:
    """log10 of `hook_content_dim` (-inf for the dimension 0), summed
    from the same factors in floating point: the digit count of the
    dimension, to within rounding, without taking the product."""
    if d < len(shape):
        return -math.inf
    return math.fsum(map(math.log10, _contents(shape, d))) - math.fsum(
        map(math.log10, _hooks(shape))
    )


def count_syt(shape: Partition) -> int:
    """Number of standard fillings with entries 1..n each used once."""
    count, rem = divmod(math.factorial(shape.n), _hook_product(shape))
    if rem:
        raise InvariantError(f"hook product of {shape} does not divide n!")
    return count


def _contents(shape: Partition, d: int) -> Iterator[int]:
    """d plus the content of each box."""
    return (d + j - i for i, j in shape.boxes())


def _hooks(shape: Partition) -> Iterator[int]:
    conj = shape.conjugate()
    return ((shape.part(i) - j) + (conj.part(j) - i) + 1 for i, j in shape.boxes())


def _hook_product(shape: Partition) -> int:
    return _product(_hooks(shape))


def _product(factors: Iterable[int]) -> int:
    """The product, pairwise in rounds: a running product is quadratic."""
    xs = list(factors)
    while len(xs) > 1:
        xs = [a * b for a, b in zip(xs[::2], xs[1::2])] + xs[len(xs) // 2 * 2 :]
    return xs[0] if xs else 1


def min_odd_binomial_index(c: int) -> int | None:
    """Least i in [1, c-1] with C(c, i) odd, or None when c is a power of 2.

    When present the value is the largest power of 2 dividing c.
    """
    if c < 2:
        raise ValueError("c must be at least 2")
    low = c & (-c)
    return None if low == c else low
