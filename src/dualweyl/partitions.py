"""Partitions, hook/content counting, and small binomial parity facts."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator


class InvariantError(RuntimeError):
    """An internal consistency check of an exact computation failed. This
    signals a bug in the package, never bad input."""


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Immutable and hashable; behaves as a plain tuple of parts.
    """

    def __new__(cls, parts) -> "Partition":
        parts = tuple(int(a) for a in parts)
        if not parts:
            raise ValueError("empty partition is not allowed")
        if any(a <= 0 for a in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
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
        return Partition(
            sum(1 for a in self if a >= i) for i in range(1, self[0] + 1)
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


def parse_partition(text: str) -> Partition:
    """Parse "4,3,2,1,1" or the exponent shorthand "2^2,1"."""
    parts: list[int] = []
    for token in text.strip().split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"bad partition syntax: {text!r}")
        m = re.fullmatch(r"(\d+)(?:\^(\d+))?", token)
        if not m:
            raise ValueError(f"bad partition token: {token!r}")
        a = int(m.group(1))
        k = int(m.group(2)) if m.group(2) else 1
        parts.extend([a] * k)
    return Partition(parts)


def format_partition(shape: Partition) -> str:
    return ",".join(str(a) for a in shape)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n in descending lexicographic order, with parts at
    most max_part when it is given. The next one lowers the last part
    above 1 and refills greedily after it; there is no recursion, so a
    partition may have any number of parts."""
    if n <= 0:
        raise ValueError("n must be positive")
    parts: list[int] = []
    rest, cap = n, n if max_part is None else max_part
    while cap >= 1:
        while rest:
            parts.append(min(cap, rest))
            rest -= parts[-1]
        yield Partition(parts)
        while parts and parts[-1] == 1:
            rest += parts.pop()
        if not parts:
            return
        parts[-1] -= 1
        rest, cap = rest + 1, parts[-1]


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


def hook_length(shape: Partition, i: int, j: int) -> int:
    return (shape.part(i) - j) + (shape.conjugate().part(j) - i) + 1


def hook_content_dim(shape: Partition, d: int) -> int:
    """Number of semistandard fillings of shape with entries in {1..d}.

    Computed by the hook content product; equals 0 when the first column
    is taller than d.
    """
    if d < 1:
        raise ValueError("d must be positive")
    conj = shape.conjugate()
    value = Fraction(1)
    for i, j in shape.boxes():
        hook = (shape.part(i) - j) + (conj.part(j) - i) + 1
        value *= Fraction(d + j - i, hook)
    if value.denominator != 1:
        raise InvariantError(f"hook content product for {shape} is {value}")
    return int(value)


def count_syt(shape: Partition) -> int:
    """Number of standard fillings with entries 1..n each used once."""
    hooks = 1
    for i, j in shape.boxes():
        hooks *= hook_length(shape, i, j)
    count, rem = divmod(math.factorial(shape.n), hooks)
    if rem:
        raise InvariantError(f"hook product of {shape} does not divide n!")
    return count


def binom_parity(a: int, b: int) -> int:
    """Parity of C(a+b, a): 1 iff the binary addition of a and b is carry-free."""
    if a < 0 or b < 0:
        raise ValueError("arguments must be nonnegative")
    return 1 if (a & b) == 0 else 0


def min_odd_binomial_index(c: int) -> int | None:
    """Least i in [1, c-1] with C(c, i) odd, or None when c is a power of 2.

    When present the value is the largest power of 2 dividing c.
    """
    if c < 2:
        raise ValueError("c must be at least 2")
    low = c & (-c)
    return None if low == c else low
