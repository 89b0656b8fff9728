import copy
import pickle
import random
import re
import time
from itertools import product
from math import prod

import pytest

from dualweyl.garnir import snake_terms
from dualweyl.partitions import Partition, partitions_of
from dualweyl.tableaux import Tableau
from dualweyl.tabloids import (
    ALT_COLUMN,
    TabloidBasis,
    TabloidKind,
    TabloidVector,
    build_basis,
    canonical_cols,
    canonicalize,
    has_column_repeat,
    skew_column,
    sort_column,
    vector_from_terms,
)
from helpers import (
    CountingLetter,
    brute_fillings,
    ker_q_generators,
    naive_sort_column,
    place_permute,
    row_sort,
    unit_vector,
    unrank_tabloid,
)


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


def test_ranks_match_the_listing():
    # A coordinate is the mixed-radix number of its columns' lex ranks,
    # read by arithmetic: `index_of` inverts `rep` at every coordinate of
    # every space with n <= 6 and d <= 5, both kinds, and `dim`, counted in
    # closed form, is the length of the listing.
    checked = 0
    for n in range(1, 7):
        for shape in partitions_of(n):
            for d in range(1, 6):
                for kind in TabloidKind:
                    basis = build_basis(shape, d, kind)
                    assert basis.dim == len(basis.cols), (shape, d, kind)
                    for i, cols in enumerate(basis.cols):
                        t = basis.rep(i)
                        assert t.cols == cols and basis.index_of(t) == i
                    checked += basis.dim
    assert checked == 121014


def test_ranks_round_trip_over_a_thousand_letters(monkeypatch):
    # Over 1000 letters no space here but (1,) can be listed, and none is.
    # A basis of one past the budget is refused when it is made, so seeded
    # columns of every height rank over 1000 letters by `column_rank`, and
    # seeded tabloids of both kinds rank by `TabloidBasis.rank` at the most
    # letters the budget admits (all 1000 for (1,)). Both rank into range,
    # unrank back by counting (`helpers.unrank_tabloid`), and keep the lex
    # order of their columns; the least and the greatest are 0 and the
    # count less 1. A letter above d, an unsorted column and, on the
    # alternating kind, a repeat are refused as at small d.
    from dualweyl import tabloids

    def refuse(*args):
        raise AssertionError("a space over 1000 letters was listed")

    def column(h, d):
        if strict:
            return tuple(sorted(rng.sample(range(1, d + 1), h)))
        return tuple(sorted(rng.choices(range(1, d + 1), k=h)))

    def extremes(heights, d):
        low = tuple(tuple(range(1, h + 1)) if strict else (1,) * h for h in heights)
        high = tuple(
            tuple(range(d - h + 1, d + 1)) if strict else (d,) * h for h in heights
        )
        return low, high

    monkeypatch.setattr(tabloids, "enumerate_tableaux", refuse)
    rng, letters = random.Random(1000), 1000
    budget = tabloids.BUILD_BUDGET
    for kind in TabloidKind:
        strict = kind.zero_on_column_repeats
        for parts in ((1,), (3, 2, 1), (2, 2, 2, 1), (5, 3), (4, 4, 4, 4)):
            shape = Partition(parts)
            heights = shape.conjugate()
            d = letters
            while prod(tabloids.column_count(h, d, strict) for h in heights) > budget:
                with pytest.raises(ValueError, match=f"over the budget of {budget}"):
                    TabloidBasis(kind, shape, d, ())
                d -= 1
            assert (d == letters) == (parts == (1,))
            for h in set(heights):
                one = Partition((1,) * h)
                ranked = {}
                for col in {column(h, letters) for _ in range(100)}:
                    i = tabloids.column_rank(col, letters, strict)
                    assert 0 <= i < tabloids.column_count(h, letters, strict)
                    assert unrank_tabloid(one, letters, strict, i) == (col,)
                    ranked[col] = i
                assert sorted(ranked) == sorted(ranked, key=ranked.get)
                (low,), (high,) = extremes((h,), letters)
                last = tabloids.column_count(h, letters, strict) - 1
                assert tabloids.column_rank(low, letters, strict) == 0
                assert tabloids.column_rank(high, letters, strict) == last
                assert unrank_tabloid(one, letters, strict, last) == (high,)
            basis = TabloidBasis(kind, shape, d, ())
            sample = {tuple(column(h, d) for h in heights) for _ in range(100)}
            ranked = {}
            for cols in sample:
                i = basis.index_of(Tableau(cols))
                assert 0 <= i < basis.dim
                assert unrank_tabloid(shape, d, strict, i) == cols
                ranked[cols] = i
            assert sorted(ranked) == sorted(ranked, key=ranked.get)
            low, high = extremes(heights, d)
            assert basis.index_of(Tableau(low)) == 0
            assert basis.index_of(Tableau(high)) == basis.dim - 1
            assert unrank_tabloid(shape, d, strict, basis.dim - 1) == high
            top = tuple((*c[:-1], d + 1) for c in low)
            unsorted = tuple(tuple(range(h, 0, -1)) for h in heights)
            for bad in (top, unsorted) if heights[0] > 1 else (top,):
                with pytest.raises(ValueError, match="is not a representative"):
                    basis.index_of(Tableau(bad))
            if strict and heights[0] > 1:
                repeat = tuple((c[0],) * len(c) for c in low)
                with pytest.raises(ValueError, match="is not a representative"):
                    basis.index_of(Tableau(repeat))


def test_a_representative_out_of_range_is_refused():
    # -1 is not the last tabloid, and dim is past the end: `rep` refuses
    # both, and so does `terms()` of a vector holding either coordinate.
    basis = build_basis(Partition((2, 1)), 3, ALT_COLUMN)
    for i in (-1, basis.dim):
        with pytest.raises(ValueError, match=rf"coordinate {i} is not in range\({basis.dim}\)"):
            basis.rep(i)
        with pytest.raises(ValueError, match="not in range"):
            TabloidVector(basis, 3, {0: 1, i: 1}).terms()


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


def test_sort_column_matches_the_naive_rule():
    # Every column of length at most 5 over 5 letters, then seeded columns
    # up to height 40, with and without repeated entries.
    rng = random.Random(32)
    seqs = [seq for h in range(6) for seq in product(range(1, 6), repeat=h)]
    for _ in range(300):
        h = rng.randint(1, 40)
        letters = range(1, 2 * h + 2)
        seqs.append(tuple(rng.choices(letters, k=h)))
        seqs.append(tuple(rng.sample(letters, h)))
    for kind in TabloidKind:
        for seq in seqs:
            assert sort_column(seq, kind) == naive_sort_column(seq, kind), (kind, seq)


def test_the_mod_2_rule_counts_no_inversions():
    # Letters that count their `>` comparisons: the mod-2 skew kind only
    # sorts, in `sort_column`, `canonical_cols` and a snake expansion,
    # while the alternating kind counts the inversions of the same column.
    mod2 = skew_column(2)
    down = tuple(map(CountingLetter, range(12, 0, -1)))
    CountingLetter.greater = 0
    assert sort_column(down, mod2) == (tuple(sorted(down)), 1)
    assert canonical_cols((down, down[:5]), mod2)[1:] == (1, False)
    left = tuple(map(CountingLetter, (1, 2, 2, 3, 5)))
    right = tuple(map(CountingLetter, (1, 2, 4, 4)))
    assert snake_terms((left, right), 2, 0, mod2)
    assert CountingLetter.greater == 0
    assert sort_column(down, ALT_COLUMN) == (tuple(sorted(down)), 1)
    assert CountingLetter.greater == 12 * 11 // 2


def test_a_basis_compares_by_kind_shape_and_d():
    # Other columns do not change what a basis equals, hashes to or
    # shows; a copy or a pickle is the `build_basis` basis.
    basis = build_basis(Partition((2, 1)), 3, ALT_COLUMN)
    other = TabloidBasis(ALT_COLUMN, Partition((2, 1)), 3, basis.cols[:1])
    assert other == basis and hash(other) == hash(basis)
    assert repr(other) == repr(basis) == (
        "TabloidBasis(kind=alt, shape=Partition((2, 1)), d=3)"
    )
    for kind, d in ((skew_column(2), 3), (ALT_COLUMN, 4)):
        assert build_basis(Partition((2, 1)), d, kind) != basis
    for twin in (pickle.loads(pickle.dumps(other)), copy.copy(other)):
        assert twin is basis


def test_build_basis_refuses_an_oversized_space_before_it_lists_a_tableau(
    monkeypatch,
):
    # The one gate in front of every listing: a library call, the basis
    # constructor, an unpickled basis and, through `_layout`, every build
    # and straightening. The closed-form count is all it forms: no tableau
    # is listed, and neither the conjugate shape nor the exact dimension is
    # taken. No basis over such a space can be made, so its pickle is made
    # by hand: a pickled basis is the call of `build_basis` that makes it.
    from dualweyl import quotients, tableaux, tabloids

    class Copied:
        def __init__(self, *args):
            self.args = args

        def __reduce__(self):
            return build_basis, self.args

    small = (Partition((2, 1)), 3, ALT_COLUMN)
    assert pickle.dumps(Copied(*small)) == pickle.dumps(build_basis(*small))
    oversized = [
        (Partition((6,)), 30, ALT_COLUMN, 30**6),
        (Partition((3, 3)), 13, skew_column(2), 91**3),
    ]
    copies = [pickle.dumps(Copied(s, d, k)) for s, d, k, _ in oversized]

    def refuse(*args):
        raise AssertionError("an oversized basis was listed")

    for module in (tableaux, tabloids):
        monkeypatch.setattr(module, "enumerate_tableaux", refuse)
    monkeypatch.setattr(Partition, "conjugate", refuse)
    budget = tabloids.BUILD_BUDGET
    for (shape, d, kind, count), copied in zip(oversized, copies):
        assert count > budget
        message = (
            f"the {kind!r} tabloid space of {shape} at d={d} holds at least "
            f"{count} tabloids, over the budget of {budget}"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            build_basis(shape, d, kind)
        with pytest.raises(ValueError, match=re.escape(message)):
            TabloidBasis(kind, shape, d, ())
        with pytest.raises(ValueError, match=re.escape(message)):
            pickle.loads(copied)
    for name in ("BUILD_BUDGET", "_ambient_count", "_listed_layout"):
        assert not hasattr(quotients, name), name


def test_a_basis_of_an_oversized_space_is_refused_before_its_heights(monkeypatch):
    # A shape of one row of 10^9 boxes has 10^9 column heights, too many to
    # form. The constructor refuses its space from the capped closed-form
    # count, with `build_basis`'s message, well inside a second; the
    # conjugate shape is never taken, so a regression fails here at once
    # instead of exhausting memory.
    from dualweyl import tabloids

    def refuse(*args):
        raise AssertionError("the column heights were formed")

    monkeypatch.setattr(Partition, "conjugate", refuse)
    shape, budget = Partition((10**9,)), tabloids.BUILD_BUDGET
    start = time.perf_counter()
    for kind in TabloidKind:
        message = (
            f"the {kind!r} tabloid space of {shape} at d=2 holds at least "
            f"{2**19} tabloids, over the budget of {budget}"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            TabloidBasis(kind, shape, 2, ())
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("kind", list(TabloidKind))
def test_a_tableau_outside_the_basis_is_a_value_error(kind):
    basis = build_basis(Partition((2, 1)), 3, kind)
    outside = [
        Tableau(((2, 1), (3,))),  # an unsorted column
        Tableau(((1, 2), (4,))),  # a letter above d
        Tableau(((1, 2, 3),)),  # another shape
    ]
    if kind is ALT_COLUMN:
        outside.append(Tableau(((1, 1), (2,))))  # a repeated column entry
    for t in outside:
        message = f"{t!r} is not a representative of {basis!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            basis.index_of(t)
        with pytest.raises(ValueError, match="is not a representative"):
            vector_from_terms(basis, 3, {t: 1})
