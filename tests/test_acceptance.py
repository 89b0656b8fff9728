"""Acceptance suite: one test per exit criterion, each exact, each printing
its own pass line. Scopes and tolerances are pinned here, not configurable."""

import random
from math import comb

from dualweyl.decomposition import (
    composition_factors_U,
    decomposition_rows,
    dim_simple,
    nabla_filtration_feasible,
)
from dualweyl.garnir import RelationKind, garnir_terms, iter_relation_labels
from dualweyl.partitions import (
    Partition,
    count_syt,
    hook_content_dim,
    partitions_of,
)
from dualweyl.predictions import (
    D1Result,
    d1_predict,
    frobenius_weight_check,
    hook_d2_dim,
    hook_partition,
    predict_iso,
    table1_expected,
    table1_weight_counts,
    u_dim_degree,
)
from dualweyl.quotients import (
    apply_transvection,
    build_dual_weyl,
    build_gtensor_specht,
    restrict_entries,
    straighten,
    u_lambda_dim,
    verify_iso,
)
from dualweyl.tableaux import Tableau
from dualweyl.tabloids import (
    ALT_COLUMN,
    TabloidVector,
    build_basis,
    canonicalize,
    skew_column,
    vector_from_terms,
)
from helpers import DEGREE5_DIM_POLYS, brute_fillings, family_rank, straighten_vector

P = Partition


def _report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_iso_away_from_characteristic_two():
    checked = 0
    for n in range(1, 7):
        for shape in partitions_of(n):
            for d in range(1, 5):
                for p in (3, 5):
                    assert verify_iso(shape, d, p) is True, (shape, d, p)
                    checked += 1
    _report(1, f"isomorphism holds at p in {{3,5}} for {checked} cases")


def test_criterion_02_characteristic_two_characterization():
    checked = 0
    for n in range(1, 7):
        for shape in partitions_of(n):
            for d in sorted({max(1, n - 2), n}):
                assert verify_iso(shape, d, 2) == predict_iso(shape), (shape, d)
                checked += 1
    _report(2, f"closed-form prediction matches construction in {checked} cases")


def test_criterion_03_non_iso_lists():
    expected = {
        4: {P((1, 1, 1, 1)), P((2, 1, 1))},
        5: {P((1, 1, 1, 1, 1)), P((2, 1, 1, 1)), P((2, 2, 1)), P((3, 1, 1))},
    }
    for n, shapes in expected.items():
        got = {
            shape
            for shape in partitions_of(n)
            if not verify_iso(shape, n - 2, 2)
        }
        assert got == shapes, n
    _report(3, "non-isomorphism lists at n=4 and n=5 are exact")


def test_criterion_04_kernel_dimension_formula():
    shape = P((2, 2, 1))
    expected = {4: 56, 5: 125, 6: 246, 7: 441}
    for d, value in expected.items():
        assert (d**4 + 5 * d**2) // 6 == value
        assert u_lambda_dim(shape, d) == value, d
    _report(4, "kernel dimensions for (2,2,1) at d=4..7 are 56, 125, 246, 441")


def test_criterion_05_weight_census():
    for d in (4, 5, 6):
        assert table1_weight_counts(d) == table1_expected(d), d
    _report(5, "kernel weight census for (2,2,1) matches all six counts at d=4,5,6")


def test_criterion_06_decomposition_data_and_factor_table():
    for mu, coeffs in DEGREE5_DIM_POLYS.items():
        for d in range(1, 9):
            value = 0
            for c in coeffs:
                value = value * d + c
            value *= d
            assert dim_simple(mu, d) == value, (mu, d)
    expected = {
        P((1, 1, 1, 1)): {P((2, 2)): 1, P((3, 1)): 1, P((4,)): 1},
        P((2, 1, 1)): {P((2, 2)): 2, P((3, 1)): 1, P((4,)): 1},
        P((1, 1, 1, 1, 1)): {P((3, 1, 1)): 1, P((3, 2)): 1, P((5,)): 1},
        P((2, 1, 1, 1)): {P((4, 1)): 1},
        P((2, 2, 1)): {P((3, 1, 1)): 1, P((3, 2)): 1, P((5,)): 1},
        P((3, 1, 1)): {P((3, 1, 1)): 1, P((3, 2)): 2, P((5,)): 1},
    }
    for shape, factors in expected.items():
        assert composition_factors_U(shape) == factors, shape
    _report(6, "decomposition gates pass and all six factor rows reproduce")


def test_criterion_07_no_weyl_filtration():
    shape = P((2, 2, 1))
    factors = dict(composition_factors_U(shape))
    for nu, mult in decomposition_rows(5)[shape].items():
        factors[nu] = factors.get(nu, 0) + mult
    assert nabla_filtration_feasible(factors) is False
    _report(7, "the image for (2,2,1) admits no dual-Weyl filtration")


def test_criterion_08_one_letter_dichotomy():
    checked = 0
    for n in range(1, 11):
        for shape in partitions_of(n):
            predicted = 0 if d1_predict(shape) is D1Result.ZERO else 1
            assert build_gtensor_specht(shape, 1, 2).dim == predicted, shape
            checked += 1
    _report(8, f"one-letter dimensions match the closed form for {checked} shapes")


def test_criterion_09_hooks_with_two_letters():
    for a in range(2, 7):
        for l in range(2, 7):
            got = build_gtensor_specht(hook_partition(a, l), 2, 2).dim
            assert got == hook_d2_dim(a, l), (a, l)
            if l % 2 == 0:
                assert frobenius_weight_check(a, l), (a, l)
    _report(9, "hook dimensions and even-leg weight decompositions verified")


def test_criterion_10_below_threshold_example():
    shape = P((4, 3, 2, 1, 1))
    assert verify_iso(shape, 2, 2) is True
    assert predict_iso(shape) is False
    _report(10, "the 11-box staircase-plus-box is an isomorphism at d=2")


def test_criterion_11_structural_suite():
    # (a) dual Weyl dimension equals the semistandard count
    for n in range(1, 7):
        for shape in partitions_of(n):
            for d in range(1, 5):
                expected = hook_content_dim(shape, d)
                for p in (2, 3, 5):
                    assert build_dual_weyl(shape, d, p).dim == expected, (shape, d, p)

    # (b) basic snake relations: independent, and spanning the kernel of the
    # row-symmetrization by rank-nullity; same for the mod-2 skew basics
    for n in range(1, 6):
        for shape in partitions_of(n):
            for d in range(1, 5):
                alt_dim = build_basis(shape, d, ALT_COLUMN).dim
                labels = sum(
                    1
                    for _ in iter_relation_labels(
                        shape, d, RelationKind.BASIC_SNAKE, ALT_COLUMN
                    )
                )
                for p in (2, 3, 5):
                    rank = build_dual_weyl(shape, d, p).relation_rank
                    assert rank == labels, (shape, d, p)
                    assert rank == alt_dim - hook_content_dim(shape, d), (shape, d, p)
                module = build_gtensor_specht(shape, d, 2)
                basic_labels = sum(
                    1
                    for _ in iter_relation_labels(
                        shape, d, RelationKind.BASIC_SNAKE, skew_column(2)
                    )
                )
                basic_rank = module.relation_rank - module.supplementary_rank_gain
                assert basic_rank == basic_labels, (shape, d)

    # (c) spanning-set rank equality: basic+supplementary, all adjacent
    # snakes, and exhaustive adjacent labels agree
    for n in range(2, 5):
        for shape in partitions_of(n):
            for d in range(1, 4):
                rank_bs = build_gtensor_specht(shape, d, 2).relation_rank
                rank_adj = family_rank(
                    "gtensor", shape, d, 2, [RelationKind.ALL_ADJACENT_SNAKES]
                )
                rank_exh = family_rank(
                    "gtensor", shape, d, 2, [RelationKind.EXHAUSTIVE_GARNIR]
                )
                assert rank_bs == rank_adj == rank_exh, (shape, d)

    # (d) straightening: supported on semistandard terms, congruent to the
    # input modulo the relation span, and idempotent
    rng = random.Random(11)
    for n in range(2, 5):
        for shape in partitions_of(n):
            for d in (2, 3):
                for p in (2, 3):
                    module = build_dual_weyl(shape, d, p)
                    basis = module.ambient
                    fillings = list(brute_fillings(shape, d))
                    for t in rng.sample(fillings, min(40, len(fillings))):
                        out = straighten(t, shape, d, p)
                        assert all(
                            basis.rep(i).is_row_semistandard() for i in out.coords
                        )
                        st = canonicalize(t, ALT_COLUMN)
                        diff = dict(out.coords)
                        if not st.is_zero:
                            i = basis.index_of(st.rep)
                            diff[i] = (diff.get(i, 0) - st.sign) % p
                            if not diff[i]:
                                del diff[i]
                        assert module.relations_contain(
                            TabloidVector(basis, p, diff)
                        ), (shape, d, p)
                        assert straighten_vector(out).coords == out.coords

    # (e) the skew relation span is closed under transvections
    for n in range(2, 5):
        for shape in partitions_of(n):
            for d in (2, 3):
                module = build_gtensor_specht(shape, d, 2)
                kind = skew_column(2)
                for rel_kind in (
                    RelationKind.BASIC_SNAKE,
                    RelationKind.SKEW_SUPPLEMENTARY,
                ):
                    for label in iter_relation_labels(shape, d, rel_kind, kind):
                        vec = vector_from_terms(
                            module.ambient, 2, garnir_terms(label, kind)
                        )
                        for src in range(1, d + 1):
                            for tgt in range(1, d + 1):
                                if src != tgt:
                                    image = apply_transvection(vec, src, tgt, 2)
                                    assert module.relations_contain(image)

    # (f) the all-distinct weight space of the image has the standard count
    for n in range(1, 6):
        for shape in partitions_of(n):
            table = build_gtensor_specht(shape, n, 2).weight_table()
            assert table.get((1,) * n, 0) == count_syt(shape), shape

    # (g) entry restriction commutes with the construction
    for n in range(1, 6):
        for shape in partitions_of(n):
            for d_sub in range(1, 5):
                restricted, direct = restrict_entries(shape, 5, d_sub, 2)
                assert restricted == direct, (shape, d_sub)

    _report(11, "structural suite (dimensions, spans, straightening, "
                "transvections, weights, restriction) passed")


def test_criterion_12_kernel_growth_degree_bound():
    for n in (4, 5):
        for shape in partitions_of(n):
            degree = u_dim_degree(shape)
            assert degree <= n - 1, (shape, degree)
    _report(12, "kernel dimension growth has polynomial degree < n")
