import random

import pytest

from dualweyl.partitions import Partition, partitions_of
from dualweyl.tableaux import Tableau
from dualweyl.tabloids import (
    ALT_COLUMN,
    TabloidKind,
    build_basis,
    canonicalize,
    has_column_repeat,
    ker_q_generators,
    skew_column,
    vector_from_terms,
)
from helpers import brute_fillings, place_permute, row_sort, unit_vector


def test_kind_validation():
    # Two spaces: the skew kind is the alternating one at every odd p.
    assert list(TabloidKind) == [ALT_COLUMN, skew_column(2)]
    with pytest.raises(ValueError):
        TabloidKind("row")
    assert skew_column(3).zero_on_column_repeats
    assert not skew_column(2).zero_on_column_repeats
    assert ALT_COLUMN.zero_on_column_repeats


def test_canonicalize_single_column_examples():
    down = Tableau.from_rows([(2,), (1,)])
    st = canonicalize(down, ALT_COLUMN)
    assert st.rep == Tableau.from_rows([(1,), (2,)]) and st.sign == -1

    repeated = Tableau.from_rows([(1,), (1,)])
    assert canonicalize(repeated, ALT_COLUMN).is_zero
    skew = canonicalize(repeated, skew_column(2))
    assert not skew.is_zero and skew.sign == 1 and skew.rep == repeated
    assert canonicalize(repeated, skew_column(3)).is_zero


def test_canonicalize_row_kind():
    # Row tabloids are the test oracle's (the polytabloid and e-map
    # expansions); they carry no sign and never vanish.
    t = Tableau.from_rows([(3, 1, 2), (2, 1)])
    assert row_sort(t) == Tableau.from_rows([(1, 2, 3), (1, 2)])


def test_canonical_rep_is_fixed_point():
    rng = random.Random(3)
    for shape in partitions_of(4):
        fillings = list(brute_fillings(shape, 3))
        for kind in (ALT_COLUMN, skew_column(2), skew_column(3)):
            for t in rng.sample(fillings, min(10, len(fillings))):
                st = canonicalize(t, kind)
                again = canonicalize(st.rep, kind)
                assert again.rep == st.rep and again.sign == 1
        for t in rng.sample(fillings, min(10, len(fillings))):
            assert row_sort(row_sort(t)) == row_sort(t)


def _column_transpositions(shape):
    conj = shape.conjugate()
    for j in range(1, shape[0] + 1):
        for i in range(1, conj.part(j)):
            yield {(i, j): (i + 1, j), (i + 1, j): (i, j)}


def test_sign_composition_under_column_swaps():
    rng = random.Random(11)
    for n in range(2, 6):
        for shape in partitions_of(n):
            fillings = list(brute_fillings(shape, 3))
            sample = fillings if n <= 4 else rng.sample(fillings, 40)
            for t in sample:
                for move in _column_transpositions(shape):
                    u = place_permute(t, move)
                    for kind in (ALT_COLUMN, skew_column(3)):
                        a, b = canonicalize(t, kind), canonicalize(u, kind)
                        assert a.rep == b.rep
                        assert a.is_zero == b.is_zero
                        if not a.is_zero:
                            assert b.sign == -a.sign
                    a, b = canonicalize(t, skew_column(2)), canonicalize(u, skew_column(2))
                    assert (a.rep, a.sign, a.is_zero) == (b.rep, b.sign, b.is_zero)


def test_basis_dims():
    from math import comb

    for n, d in [(2, 2), (3, 2), (3, 4), (4, 3)]:
        for shape in partitions_of(n):
            conj = shape.conjugate()
            alt = build_basis(shape, d, ALT_COLUMN)
            assert alt.dim == _prod(comb(d, h) for h in conj)
            sk2 = build_basis(shape, d, skew_column(2))
            assert sk2.dim == _prod(comb(d + h - 1, h) for h in conj)
            assert build_basis(shape, d, skew_column(3)).dim == alt.dim
            rows = {row_sort(t) for t in brute_fillings(shape, d)}
            assert len(rows) == _prod(comb(d + a - 1, a) for a in shape)


def _prod(items):
    out = 1
    for x in items:
        out *= x
    return out


def test_basis_examples():
    assert build_basis(Partition((2, 2, 1)), 4, skew_column(2)).dim == 200
    assert len({row_sort(t) for t in brute_fillings(Partition((2, 1)), 2)}) == 6
    assert build_basis(Partition((1, 1, 1)), 4, ALT_COLUMN).dim == 4


def test_skew_basis_matches_brute_canonicalization():
    shape, d = Partition((2, 2, 1)), 4
    reps = {canonicalize(t, skew_column(2)).rep for t in brute_fillings(shape, d)}
    assert len(reps) == 200
    basis = build_basis(shape, d, skew_column(2))
    assert {t.cols for t in reps} == set(basis.cols)


def test_index_round_trip():
    basis = build_basis(Partition((2, 1)), 3, ALT_COLUMN)
    for i, cols in enumerate(basis.cols):
        t = Tableau(cols)
        assert basis.index_of(t) == i
        assert basis.rep(i) == t


def test_alt_plus_kernel_matches_skew_dim():
    for n in range(1, 7):
        for shape in partitions_of(n):
            for d in range(1, 5):
                alt = build_basis(shape, d, ALT_COLUMN).dim
                sk = build_basis(shape, d, skew_column(2)).dim
                gens = len(ker_q_generators(shape, d))
                assert alt + gens == sk, (shape, d)


def test_ker_q_generator_examples():
    assert ker_q_generators(Partition((4,)), 3) == []
    assert len(ker_q_generators(Partition((1, 1)), 2)) == 2
    assert len(ker_q_generators(Partition((2, 1)), 1)) == 1
    for gen in ker_q_generators(Partition((2, 2, 1)), 3):
        (idx,) = gen.coords
        assert has_column_repeat(gen.basis.rep(idx).cols)


def test_vector_arithmetic():
    basis = build_basis(Partition((2, 1)), 2, ALT_COLUMN)
    t, u = basis.rep(0), basis.rep(1)
    v = vector_from_terms(basis, 3, {t: 2, u: 1})
    w = unit_vector(basis, 3, t)
    assert v.add(w).coords == {basis.index_of(u): 1}
    assert v.scale(0).is_zero()
    assert v.scale(2).coords[basis.index_of(t)] == 1
