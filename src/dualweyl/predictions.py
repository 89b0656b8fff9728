"""Closed-form predictors for the characteristic-2 isomorphism question
and the small special cases (d = 1, hooks at d = 2)."""

from __future__ import annotations

from collections import Counter
from enum import Enum
from math import comb

from .partitions import Partition, min_odd_binomial_index, orbit_size, partitions_of
from .quotients import (
    _gens_by_weight,
    _kernel_dims,
    build_gtensor_specht,
    module_dim,
    verify_iso,
)


def predict_iso(shape: Partition) -> bool:
    """True when the mod-2 surjection onto the dual Weyl module is an
    isomorphism for every alphabet size: the shape is 2-regular, or its
    first two parts agree, exceed the third by at least 2, and the shape
    minus its first part is 2-regular."""
    if shape.is_two_regular():
        return True
    tail = shape.remove_first_part()
    return (
        tail is not None
        and shape.part(1) == shape.part(2)
        and shape.part(2) >= shape.part(3) + 2
        and tail.is_two_regular()
    )


def non_iso_shapes(n: int, d: int) -> set[Partition]:
    return {
        shape for shape in partitions_of(n) if not verify_iso(shape, d, 2)
    }


class D1Result(Enum):
    ZERO = "zero"
    LINE = "line"


def d1_predict(shape: Partition) -> D1Result:
    """Mod-2 fate of the one-letter construction: ZERO exactly when some
    column height h has h+1 not a power of 2 while the next column is at
    least as tall as the largest power of 2 dividing h+1."""
    conj = shape.conjugate()
    for j in range(1, shape[0]):
        low = min_odd_binomial_index(conj.part(j) + 1)
        if low is not None and conj.part(j + 1) >= low:
            return D1Result.ZERO
    return D1Result.LINE


def hook_d2_dim(a: int, l: int) -> int:
    """Dimension of the two-letter construction on the hook with arm a and
    leg l: al/2 for even legs and (a+1)(l+1)/2 for odd legs."""
    if a < 2 or l < 2:
        raise ValueError("need a >= 2 and l >= 2")
    return (a * l) // 2 if l % 2 == 0 else ((a + 1) * (l + 1)) // 2


def hook_partition(a: int, l: int) -> Partition:
    return Partition((a,) + (1,) * (l - 1))


def frobenius_weight_check(a: int, l: int) -> bool:
    """For even legs, compare the weight multiset of the two-letter hook
    construction with that of a Frobenius-twisted symmetric power tensored
    with a symmetric power and the determinant character."""
    if l % 2:
        raise ValueError("the comparison is defined for even legs only")
    module = build_gtensor_specht(hook_partition(a, l), 2, 2)
    lhs = Counter(module.weight_table())
    rhs: Counter = Counter()
    half = l // 2 - 1
    for i in range(half + 1):
        for j in range(a):
            w1 = 2 * i + j + 1
            rhs[(w1, a + l - 1 - w1)] += 1
    return lhs == rhs


# Weight classes of the kernel generators for the shape (2,2,1), with the
# closed count of distinct weights per class: count = coeff * C(d, k).
TABLE1_FORMULAS: list[tuple[Partition, int, int]] = [
    (Partition((2, 1, 1, 1)), 4, 4),
    (Partition((2, 2, 1)), 3, 3),
    (Partition((3, 1, 1)), 3, 3),
    (Partition((3, 2)), 2, 2),
    (Partition((4, 1)), 2, 2),
    (Partition((5,)), 1, 1),
]


def table1_weight_counts(d: int) -> dict[Partition, int]:
    """Distinct weights of kernel generators of the shape (2,2,1), grouped
    by the sorted weight type. The generators are the skew representatives
    with a repeated column entry, and whether a weight carries one does not
    change when its letters are permuted; so each dominant weight that
    carries one counts its whole S_d-orbit, and no basis is enumerated."""
    if d < 4:
        raise ValueError("the class census needs d >= 4")
    return {
        beta: orbit_size(beta, d)
        for beta, positions in _gens_by_weight(Partition((2, 2, 1)), d).items()
        if positions
    }


def table1_expected(d: int) -> dict[Partition, int]:
    return {shape: coeff * comb(d, k) for shape, coeff, k in TABLE1_FORMULAS}


def supplementary_rank_gain(shape: Partition, d: int) -> int:
    """Rank the supplementary relations add on top of the basic ones in the
    mod-2 skew construction, without a full build. The basic snakes are
    unitriangular, so their rank is the number of skew tabloids that are
    not row semistandard, and the gain is the number of row-semistandard
    ones, R, less the dimension."""
    dim = module_dim("gtensor", shape, d, 2)
    return _r_count(shape, d) - dim


def _r_count(shape: Partition, d: int) -> int:
    """|R| over d letters, with nothing listed. Adding i - 1 to row i maps
    R one-to-one onto the semistandard tableaux with row i in [i, d + i - 1],
    which the flagged Jacobi-Trudi determinant det[C(d + lambda_i - 1,
    lambda_i - i + j)] counts (Gessel-Viennot; Wachs, JCTA 40, 1985). Its
    Bareiss elimination divides exactly, and its k-th pivot, the count for
    the first k rows, is at least 1 (the filling by 1s)."""
    w = len(shape)
    m = [
        [comb(d + a - 1, k) if k >= 0 else 0 for k in range(a - i, a - i + w)]
        for i, a in enumerate(shape)
    ]
    prev = 1
    for k, row in enumerate(m[:-1]):
        for below in m[k + 1:]:
            for j in range(k + 1, w):
                below[j] = (below[j] * row[k] - below[k] * row[j]) // prev
        prev = row[k]
    return m[-1][-1]


def min_interpolation_degree(values: list[int]) -> int:
    """Degree of the minimal interpolating polynomial through the values at
    consecutive integer points (0 for a constant, -1 for all zeros)."""
    diffs = list(values)
    degree = -1
    level = 0
    while diffs:
        if any(diffs):
            degree = level
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        level += 1
    return degree


def u_dim_degree(shape: Partition) -> int:
    """Degree in d of the kernel dimension (-1 when the kernel is zero):
    the greatest length of a dominant weight beta where the kernel is
    nonzero. The dimension sums dim U_beta times the orbit size of beta
    over d letters, a polynomial of degree len(beta) with a positive
    leading coefficient, so no leading term cancels."""
    return max((len(beta) for beta in _kernel_dims(shape, shape.n)), default=-1)
