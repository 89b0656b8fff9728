from collections import Counter
from math import comb

import pytest

from dualweyl.partitions import Partition, count_syt, partitions_of
from dualweyl.predictions import (
    D1Result,
    TABLE1_FORMULAS,
    _r_count,
    d1_predict,
    frobenius_weight_check,
    hook_d2_dim,
    hook_partition,
    min_interpolation_degree,
    non_iso_shapes,
    predict_iso,
    supplementary_rank_gain,
    table1_expected,
    table1_weight_counts,
    u_dim_degree,
)
from dualweyl.quotients import build_gtensor_specht, u_lambda_dim
from dualweyl.tableaux import TableauClass, enumerate_tableaux, weight_of
from helpers import ker_q_generators, nontrivial_idempotents, specht_endomorphisms


def test_predicted_shapes_give_indecomposable_specht_modules():
    # The paper's corollary: the inverse Schur functor is additive, and
    # where the image of S^shape is the dual Weyl module, whose socle is
    # simple, S^shape cannot split. Checked without the package's
    # constructions: End(S^shape) over GF(2), from the standard
    # polytabloids, is one-dimensional for every shape with n <= 7 where
    # `predict_iso` holds. Not vacuous: S^(5,1,1) and S^(3,1,1,1,1), where
    # it does not hold, split (Murphy, J. Algebra 66, 1980).
    predicted = 0
    for n in range(1, 8):
        for shape in partitions_of(n):
            f, ends = specht_endomorphisms(shape)
            assert f == count_syt(shape), shape
            if predict_iso(shape):
                assert len(ends) == 1, shape
                predicted += 1
    assert predicted == 21
    for parts in ((5, 1, 1), (3, 1, 1, 1, 1)):
        shape = Partition(parts)
        assert not predict_iso(shape)
        f, ends = specht_endomorphisms(shape)
        assert len(nontrivial_idempotents(f, ends)) == 2, parts  # e and 1 + e


def test_predict_iso_examples():
    assert predict_iso(Partition((2, 1)))
    assert predict_iso(Partition((2, 2)))
    assert not predict_iso(Partition((2, 2, 1)))
    assert predict_iso(Partition((3, 3, 1)))
    assert not predict_iso(Partition((3, 3, 2)))
    assert not predict_iso(Partition((4, 3, 2, 1, 1)))


def test_predicted_non_iso_sets():
    predicted4 = {s for s in partitions_of(4) if not predict_iso(s)}
    assert predicted4 == {Partition((1, 1, 1, 1)), Partition((2, 1, 1))}
    predicted5 = {s for s in partitions_of(5) if not predict_iso(s)}
    assert predicted5 == {
        Partition((1, 1, 1, 1, 1)),
        Partition((2, 1, 1, 1)),
        Partition((2, 2, 1)),
        Partition((3, 1, 1)),
    }


def test_verified_non_iso_sets_match():
    assert non_iso_shapes(4, 2) == {
        s for s in partitions_of(4) if not predict_iso(s)
    }
    assert non_iso_shapes(5, 3) == {
        s for s in partitions_of(5) if not predict_iso(s)
    }


def test_d1_predict_examples():
    assert d1_predict(Partition((1, 1, 1, 1))) is D1Result.LINE
    assert d1_predict(Partition((2, 1, 1))) is D1Result.LINE
    assert d1_predict(Partition((2, 1))) is D1Result.ZERO
    for a in range(2, 7):
        for l in range(2, 7):
            expected = D1Result.ZERO if l % 2 == 0 else D1Result.LINE
            assert d1_predict(hook_partition(a, l)) is expected


def test_d1_predict_matches_construction():
    for n in range(1, 11):
        for shape in partitions_of(n):
            expected = 0 if d1_predict(shape) is D1Result.ZERO else 1
            assert build_gtensor_specht(shape, 1, 2).dim == expected, shape


def test_hook_d2_dim():
    assert hook_d2_dim(3, 2) == 3
    assert hook_d2_dim(2, 3) == 6
    assert hook_d2_dim(2, 2) == 2
    with pytest.raises(ValueError):
        hook_d2_dim(1, 4)
    with pytest.raises(ValueError):
        hook_d2_dim(4, 1)


def test_hook_dims_match_construction():
    for a in range(2, 7):
        for l in range(2, 7):
            got = build_gtensor_specht(hook_partition(a, l), 2, 2).dim
            assert got == hook_d2_dim(a, l), (a, l)


def test_frobenius_weight_check():
    assert frobenius_weight_check(3, 2)
    assert frobenius_weight_check(2, 2)
    for a in range(2, 5):
        for l in (2, 4):
            assert frobenius_weight_check(a, l), (a, l)
    with pytest.raises(ValueError):
        frobenius_weight_check(3, 3)


def test_frobenius_small_multisets():
    table = build_gtensor_specht(hook_partition(3, 2), 2, 2).weight_table()
    assert table == {(1, 3): 1, (2, 2): 1, (3, 1): 1}


def test_table1_counts():
    for d in (4, 5, 6):
        assert table1_weight_counts(d) == table1_expected(d), d
    at5 = table1_weight_counts(5)
    assert at5[Partition((2, 1, 1, 1))] == 20
    assert at5[Partition((2, 2, 1))] == 30
    assert at5[Partition((3, 1, 1))] == 30
    assert at5[Partition((3, 2))] == 20
    assert at5[Partition((4, 1))] == 20
    assert at5[Partition((5,))] == 5
    assert len(TABLE1_FORMULAS) == 6
    with pytest.raises(ValueError):
        table1_weight_counts(3)


def test_table1_total_is_all_repeat_weights():
    # Every class count is exactly the number of weights of its type, so the
    # total is the number of weights admitting a repeated column entry.
    d = 5
    total = sum(coeff * comb(d, k) for _, coeff, k in TABLE1_FORMULAS)
    assert sum(table1_weight_counts(d).values()) == total


def test_table1_counts_match_the_generator_enumeration():
    # The orbit count from dominant weights against the distinct weights of
    # every enumerated kernel generator, grouped by type.
    shape = Partition((2, 2, 1))
    for d in range(4, 8):
        weights = {
            weight_of(gen.basis.cols[next(iter(gen.coords))], d)
            for gen in ker_q_generators(shape, d)
        }
        census = Counter(
            Partition(sorted((x for x in w if x), reverse=True)) for w in weights
        )
        assert table1_weight_counts(d) == dict(census), d


def test_supplementary_rank_gain():
    assert supplementary_rank_gain(Partition((2, 1)), 2) == 3
    assert supplementary_rank_gain(Partition((1, 1, 1)), 2) == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_supplementary_rank_gain_matches_the_full_build(n):
    # The count (row-and-column-semistandard tableaux less the dimension)
    # against the rank the supplementary stage of the full mod-2 build
    # adds on top of its basic snakes.
    for shape in partitions_of(n):
        for d in range(1, n + 1):
            full = build_gtensor_specht(shape, d, 2).supplementary_rank_gain
            assert supplementary_rank_gain(shape, d) == full, (shape, d)


def test_r_is_counted_by_a_flagged_jacobi_trudi_determinant():
    # `supplementary_rank_gain` counts R, the row-and-column-semistandard
    # tableaux, by a determinant; check it against their listing for every
    # shape with n <= 7 and d <= n + 1, d < len(shape) included.
    pairs = 0
    for n in range(1, 8):
        for shape in partitions_of(n):
            for d in range(1, n + 2):
                listed = enumerate_tableaux(
                    shape, d, TableauClass.ROW_AND_COLUMN_SEMISTANDARD
                )
                assert _r_count(shape, d) == len(listed), (shape, d)
                pairs += 1
    assert pairs == 284


def test_min_interpolation_degree():
    assert min_interpolation_degree([5, 5, 5, 5]) == 0
    assert min_interpolation_degree([0, 0, 0]) == -1
    assert min_interpolation_degree([1, 2, 3, 4]) == 1
    assert min_interpolation_degree([d**3 for d in range(2, 9)]) == 3


def test_u_dim_degree_bound():
    for n in (4, 5):
        for shape in partitions_of(n):
            degree = u_dim_degree(shape)
            assert degree <= n - 1, (shape, degree)


def test_u_dim_degree_matches_interpolation():
    # The exact degree, read off the dominant weights where the kernel is
    # nonzero, against the interpolation degree of the dimensions over
    # consecutive alphabet sizes.
    degrees = []
    for n in range(1, 6):
        for shape in partitions_of(n):
            dims = [u_lambda_dim(shape, d) for d in range(max(1, n - 1), n + 5)]
            degrees.append(u_dim_degree(shape))
            assert degrees[-1] == min_interpolation_degree(dims), shape
    assert sorted(set(degrees)) == [-1, 1, 2, 3, 4]
