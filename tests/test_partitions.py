import math
import time
from itertools import permutations

import pytest

from dualweyl.partitions import (
    Partition,
    count_syt,
    dominates,
    format_partition,
    hook_content_dim,
    min_odd_binomial_index,
    orbit,
    orbit_size,
    parse_partition,
    partitions_of,
)


def test_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition((3, 1)).n == 4


def test_conjugate_examples():
    assert Partition((4, 4, 4, 2, 1)).conjugate() == Partition((5, 4, 3, 3))
    assert Partition((6,)).conjugate() == Partition((1,) * 6)
    assert Partition((1,) * 5).conjugate() == Partition((5,))
    # Linear in rows plus columns: a hook of 100000 boxes, which a count
    # of the rows at least j for each column j takes minutes over.
    started = time.perf_counter()
    hook = Partition((50000,) + (1,) * 50000)
    assert hook.conjugate() == Partition((50001,) + (1,) * 49999)
    assert time.perf_counter() - started < 1


def test_conjugate_involution():
    for n in range(1, 13):
        for shape in partitions_of(n):
            conj = shape.conjugate()
            assert conj.conjugate() == shape
            assert conj.n == shape.n


def test_two_regular():
    assert Partition((2, 1)).is_two_regular()
    assert not Partition((2, 2, 1)).is_two_regular()
    assert not Partition((4, 3, 2, 1, 1)).is_two_regular()


def test_hook_content_closed_forms():
    for n in range(1, 7):
        for d in range(1, 6):
            assert hook_content_dim(Partition((n,)), d) == math.comb(d + n - 1, n)
            assert hook_content_dim(Partition((1,) * n), d) == math.comb(d, n)
    assert hook_content_dim(Partition((2, 2, 1)), 3) == 3
    assert hook_content_dim(Partition((3000,)), 3000) == math.comb(5999, 3000)
    assert hook_content_dim(Partition((1,) * 3000), 4000) == math.comb(4000, 3000)


def _count_syt_brute(shape):
    n = shape.n
    boxes = shape.boxes()
    count = 0
    for perm in permutations(range(1, n + 1)):
        filling = dict(zip(boxes, perm))
        rows_ok = all(
            filling[(i, j)] < filling[(i, j + 1)]
            for (i, j) in boxes
            if (i, j + 1) in filling
        )
        cols_ok = all(
            filling[(i, j)] < filling[(i + 1, j)]
            for (i, j) in boxes
            if (i + 1, j) in filling
        )
        count += rows_ok and cols_ok
    return count


def test_count_syt():
    assert count_syt(Partition((4,))) == 1
    assert count_syt(Partition((2, 1))) == 2
    assert count_syt(Partition((2, 2, 1))) == 5
    for n in range(1, 6):
        for shape in partitions_of(n):
            assert count_syt(shape) == _count_syt_brute(shape)


def test_count_syt_conjugates_once(monkeypatch):
    # The hook lengths read the conjugate, computed once per call, so the
    # count is linear in the boxes; the `dim` budget check of a one-row
    # shape with thousands of boxes counts its standard tableaux.
    calls = []
    conjugate = Partition.conjugate

    def counting(self):
        calls.append(self)
        return conjugate(self)

    monkeypatch.setattr(Partition, "conjugate", counting)
    assert count_syt(Partition((2000,))) == 1
    assert count_syt(Partition((2, 2, 1))) == 5
    assert calls == [Partition((2000,)), Partition((2, 2, 1))]


def test_min_odd_binomial_index():
    assert min_odd_binomial_index(4) is None
    assert min_odd_binomial_index(6) == 2
    assert min_odd_binomial_index(3) == 1
    for c in range(2, 65):
        brute = next(
            (i for i in range(1, c) if math.comb(c, i) % 2 == 1), None
        )
        assert min_odd_binomial_index(c) == brute


def test_partitions_of_counts_and_order():
    counts = [1, 2, 3, 5, 7, 11, 15, 22]
    for n, expected in zip(range(1, 9), counts):
        shapes = list(partitions_of(n))
        assert len(shapes) == expected
        assert shapes == sorted(shapes, reverse=True)
        assert all(s.n == n for s in shapes)


def test_orbit_lists_each_rearrangement_once():
    # The S_d-orbit of a dominant weight, padded with zeros, against the
    # distinct permutations of the padded tuple.
    for n in range(1, 6):
        for d in range(1, 7):
            for beta in partitions_of(n, d):
                padded = tuple(beta) + (0,) * (d - len(beta))
                weights = list(orbit(beta, d))
                assert len(set(weights)) == len(weights)
                assert set(weights) == set(permutations(padded)), (beta, d)
                assert orbit_size(beta, d) == len(weights), (beta, d)


def test_dominance():
    assert dominates(Partition((3, 1)), Partition((2, 2)))
    assert not dominates(Partition((2, 2)), Partition((3, 1)))
    assert dominates(Partition((2, 2)), Partition((2, 2)))
    with pytest.raises(ValueError):
        dominates(Partition((2,)), Partition((3,)))


def test_parse_and_format():
    assert parse_partition("4,3,2,1,1") == Partition((4, 3, 2, 1, 1))
    assert parse_partition("2^2,1") == Partition((2, 2, 1))
    assert parse_partition("1^5") == Partition((1, 1, 1, 1, 1))
    assert format_partition(Partition((2, 2, 1))) == "2,2,1"
    for bad in ("", "1,2", "a", "0", "2,,1"):
        with pytest.raises(ValueError):
            parse_partition(bad)
