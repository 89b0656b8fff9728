import random
import re
import sys
import time
from math import comb

import pytest

from dualweyl.partitions import Partition, hook_content_dim, partitions_of
from dualweyl.tableaux import (
    Tableau,
    TableauClass,
    enumerate_tableaux,
    kostka_number,
    weight_of,
)
from helpers import ColOrderResult, brute_fillings, col_compare, place_permute


def _rows_within(t, strict):
    return all(
        r[k] < r[k + 1] if strict else r[k] <= r[k + 1]
        for r in t.rows()
        for k in range(len(r) - 1)
    )


def _cols_within(t, strict):
    return all(
        c[k] < c[k + 1] if strict else c[k] <= c[k + 1]
        for c in t.cols
        for k in range(len(c) - 1)
    )


# Each class as a predicate on a filling, written from its definition.
IN_CLASS = {
    TableauClass.ALL: lambda t: True,
    TableauClass.COLUMN_STANDARD: lambda t: _cols_within(t, True),
    TableauClass.COLUMN_SEMISTANDARD: lambda t: _cols_within(t, False),
    TableauClass.STANDARD: lambda t: _cols_within(t, True) and _rows_within(t, True),
    TableauClass.SEMISTANDARD: lambda t: _cols_within(t, True) and _rows_within(t, False),
    TableauClass.ROW_AND_COLUMN_SEMISTANDARD: (
        lambda t: _cols_within(t, False) and _rows_within(t, False)
    ),
}


def _weights(n, d):
    """Every weight of n boxes over d letters."""
    if d == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _weights(n - first, d - 1):
            yield (first,) + rest


def test_tableau_accessors():
    t = Tableau.from_rows([(1, 2, 4), (3, 5)])
    assert t.shape == Partition((3, 2))
    assert t.cols == ((1, 3), (2, 5), (4,))
    assert t.entry(2, 1) == 3
    assert t.rows() == ((1, 2, 4), (3, 5))
    assert t.weight(5) == (1, 1, 1, 1, 1)


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau(((1,), (1, 2)))  # heights must decrease
    with pytest.raises(ValueError):
        Tableau(((0, 1),))


def test_enumerate_examples():
    assert enumerate_tableaux(Partition((1, 1)), 1, TableauClass.COLUMN_STANDARD) == []
    assert len(enumerate_tableaux(Partition((2, 2, 1)), 3, TableauClass.SEMISTANDARD)) == 3
    assert len(enumerate_tableaux(Partition((2, 1)), 2, TableauClass.SEMISTANDARD)) == 2


def test_enumerate_matches_brute_force():
    # Every class, n <= 5, d <= 4, against the filtered brute-force
    # fillings in column-reading order; the sorted-column classes also by
    # content, for every weight (most weights of a strict class have none).
    assert set(IN_CLASS) == set(TableauClass)
    cases = 0
    for n in range(1, 6):
        for shape in partitions_of(n):
            for d in range(1, 5):
                fillings = list(brute_fillings(shape, d))
                for cls, member in IN_CLASS.items():
                    brute = sorted(t.cols for t in fillings if member(t))
                    assert enumerate_tableaux(shape, d, cls) == brute, (shape, d, cls)
                    if cls is TableauClass.ALL:
                        continue
                    for w in _weights(n, d):
                        expected = [c for c in brute if weight_of(c, d) == w]
                        got = enumerate_tableaux(shape, d, cls, content=w)
                        assert got == expected, (shape, d, cls, w)
                        cases += 1
    assert cases == 5 * sum(
        comb(n + d - 1, d - 1) * sum(1 for _ in partitions_of(n))
        for n in range(1, 6)
        for d in range(1, 5)
    )


def test_enumeration_order_is_column_lex():
    for cls in TableauClass:
        out = enumerate_tableaux(Partition((2, 1)), 3, cls)
        assert out == sorted(out)
        assert len(set(out)) == len(out)


def test_kostka_numbers_count_semistandard_tableaux_by_dominant_weight():
    zeros = 0
    for n in range(1, 6):
        for shape in partitions_of(n):
            census = {}
            for t in brute_fillings(shape, n):
                if IN_CLASS[TableauClass.SEMISTANDARD](t):
                    w = t.weight(n)
                    if list(w) == sorted(w, reverse=True):
                        beta = Partition(x for x in w if x)
                        census[beta] = census.get(beta, 0) + 1
            for beta in partitions_of(n):
                # 0 where no semistandard tableau has content beta
                assert kostka_number(shape, beta) == census.get(beta, 0), (shape, beta)
                zeros += beta not in census
    assert zeros == 35  # the pairs where shape does not dominate beta


def test_content_enumeration_matches_filtered_enumeration():
    sorted_classes = [
        TableauClass.COLUMN_STANDARD,
        TableauClass.COLUMN_SEMISTANDARD,
        TableauClass.STANDARD,
        TableauClass.SEMISTANDARD,
        TableauClass.ROW_AND_COLUMN_SEMISTANDARD,
    ]
    for n in range(1, 6):
        for shape in partitions_of(n):
            for d in range(1, 4):
                for cls in sorted_classes:
                    by_weight = {}
                    for cols in enumerate_tableaux(shape, d, cls):
                        by_weight.setdefault(weight_of(cols, d), []).append(cols)
                    for w, expected in by_weight.items():
                        got = enumerate_tableaux(shape, d, cls, content=w)
                        assert got == expected, (shape, d, cls, w)
    # a content no tableau of the class realises gives nothing
    strict = TableauClass.COLUMN_STANDARD
    assert enumerate_tableaux(Partition((1, 1)), 1, strict, content=(2,)) == []


def lines_run(shape, d, cls, content):
    """The tableaux of one content, and the number of lines the enumerator
    executed to find them (a measure of its work)."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def enter(frame, event, arg):
        if frame.f_code.co_name in ("enumerate_tableaux", "fillable"):
            return local
        return None

    sys.settrace(enter)
    try:
        got = enumerate_tableaux(shape, d, cls, content)
    finally:
        sys.settrace(None)
    return got, lines


@pytest.mark.parametrize("cls", [
    TableauClass.SEMISTANDARD, TableauClass.ROW_AND_COLUMN_SEMISTANDARD,
])
@pytest.mark.parametrize("n, d", [(24, 2), (60, 3), (100, 2), (100, 4)])
def test_content_enumeration_of_one_row_takes_linear_work(cls, n, d):
    # A one-row shape has a single tableau of each content. Once a letter
    # is placed while a smaller one is left, no later entry can use the
    # smaller one, so such a branch must end at once: the work grows
    # linearly in n, not quadratically. The bound is about 1.5 times the
    # work seen; without the row-gap check in `fillable` it is exceeded
    # 3 to 2000 times over.
    content = (n // d,) * d
    got, lines = lines_run(Partition((n,)), d, cls, content)
    assert got == [tuple((x,) for x in range(1, d + 1) for _ in range(n // d))]
    assert lines <= 30 * d * n


@pytest.mark.parametrize("cls", [
    TableauClass.COLUMN_SEMISTANDARD, TableauClass.ROW_AND_COLUMN_SEMISTANDARD,
])
@pytest.mark.parametrize("n, d", [(24, 2), (60, 3), (100, 2), (100, 4)])
def test_content_enumeration_of_one_column_takes_linear_work(cls, n, d):
    # A weak column has a single filling of each content. Once the last
    # column holds a letter while a smaller one is left, the boxes below
    # cannot use it, so the branch must end at once. Without that check
    # the work exceeds the bound 2 to 1000 times over.
    content = (n // d,) * d
    got, lines = lines_run(Partition((1,) * n), d, cls, content)
    assert got == [(tuple(x for x in range(1, d + 1) for _ in range(n // d)),)]
    assert lines <= 30 * d * n


def test_content_enumeration_rejects_bad_requests():
    shape = Partition((2, 1))
    with pytest.raises(ValueError):
        enumerate_tableaux(shape, 2, TableauClass.COLUMN_STANDARD, content=(1, 1))
    with pytest.raises(ValueError):
        enumerate_tableaux(shape, 2, TableauClass.COLUMN_STANDARD, content=(3,))
    with pytest.raises(ValueError):
        enumerate_tableaux(shape, 2, TableauClass.ALL, content=(2, 1))


def test_an_oversized_product_listing_is_refused_before_its_heights(monkeypatch):
    # One row of 6 boxes over 30 letters has 30^6 fillings with no order,
    # and as many with sorted columns: both product paths refuse the
    # listing from the capped closed-form count, well inside a second,
    # before the conjugate shape is taken or a product is formed.
    from dualweyl import tableaux

    def refuse(*args, **kwargs):
        raise AssertionError("the listing was started")

    monkeypatch.setattr(tableaux, "product", refuse)
    monkeypatch.setattr(Partition, "conjugate", refuse)
    shape, budget = Partition((6,)), tableaux.BUILD_BUDGET
    start = time.perf_counter()
    for cls in (TableauClass.COLUMN_STANDARD, TableauClass.ALL):
        message = (
            f"the {cls.value} tableaux of {shape} at d=30 number at least "
            f"{30**6}, over the budget of {budget}"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            enumerate_tableaux(shape, 30, cls)
    assert time.perf_counter() - start < 0.5


def test_a_product_listing_within_the_budget_is_counted_exactly():
    # Under the budget the capped count is the listing's length, for
    # every product path, an empty one included.
    from dualweyl import tableaux

    for n in range(1, 6):
        for shape in partitions_of(n):
            for d in range(1, 5):
                for cls, count in (
                    (TableauClass.ALL, lambda h: d**h),
                    (TableauClass.COLUMN_STANDARD,
                     lambda h: tableaux.column_count(h, d, True)),
                    (TableauClass.COLUMN_SEMISTANDARD,
                     lambda h: tableaux.column_count(h, d, False)),
                ):
                    got = len(enumerate_tableaux(shape, d, cls))
                    assert tableaux.capped_product_count(shape, count) == got


def test_semistandard_count_matches_hook_content():
    for n in range(1, 7):
        for shape in partitions_of(n):
            for d in range(1, 6):
                got = len(enumerate_tableaux(shape, d, TableauClass.SEMISTANDARD))
                assert got == hook_content_dim(shape, d), (shape, d)


def test_col_compare_trivial():
    t = Tableau.from_rows([(1, 2), (3,)])
    assert col_compare(t, t) is ColOrderResult.EQUIVALENT
    shuffled = place_permute(t, {(1, 1): (2, 1), (2, 1): (1, 1)})
    assert col_compare(t, shuffled) is ColOrderResult.EQUIVALENT
    with pytest.raises(ValueError):
        col_compare(t, Tableau.from_rows([(1, 2, 3)]))


def test_col_compare_extremal_pair():
    # Standard fillings of (4,4,4,2,1) on 15 letters: filling down the
    # columns gives the least tableau, filling along the rows the greatest.
    shape = Partition((4, 4, 4, 2, 1))
    heights = shape.conjugate()
    cols, next_entry = [], 1
    for h in heights:
        cols.append(tuple(range(next_entry, next_entry + h)))
        next_entry += h
    column_filled = Tableau(cols)
    rows, next_entry = [], 1
    for a in shape:
        rows.append(tuple(range(next_entry, next_entry + a)))
        next_entry += a
    row_filled = Tableau.from_rows(rows)
    assert col_compare(column_filled, row_filled) is ColOrderResult.LESS
    assert col_compare(row_filled, column_filled) is ColOrderResult.GREATER


def test_col_compare_is_total_and_antisymmetric():
    for n in range(1, 5):
        for shape in partitions_of(n):
            fillings = list(brute_fillings(shape, 3))
            for t in fillings:
                for u in fillings:
                    r1, r2 = col_compare(t, u), col_compare(u, t)
                    if r1 is ColOrderResult.EQUIVALENT:
                        assert r2 is ColOrderResult.EQUIVALENT
                    else:
                        assert {r1, r2} == {
                            ColOrderResult.LESS,
                            ColOrderResult.GREATER,
                        }


def test_col_equivalence_is_an_equivalence():
    shape = Partition((2, 1))
    fillings = list(brute_fillings(shape, 3))
    rng = random.Random(7)
    classes = {}
    for t in fillings:
        key = tuple(tuple(sorted(c)) for c in t.cols)
        classes.setdefault(key, []).append(t)
    for _ in range(200):
        t, u = rng.choice(fillings), rng.choice(fillings)
        same = tuple(tuple(sorted(c)) for c in t.cols) == tuple(
            tuple(sorted(c)) for c in u.cols
        )
        assert (col_compare(t, u) is ColOrderResult.EQUIVALENT) == same
