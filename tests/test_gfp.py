import random

import pytest
from hypothesis import given, settings, strategies as st

from dualweyl.gfp import SpanBuilder, as_mask, is_prime
from helpers import (
    dim_sum_and_intersection,
    matrix_rank,
    reduce_oracle,
    rref_oracle,
    span,
)


def test_is_prime():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)


def test_span_examples():
    assert span([], 5, 2).dim == 0
    units = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert span(units, 4, 3).dim == 4
    v = [1, 0, 2]
    assert span([v, v], 3, 3).dim == 1


def test_contains_examples():
    s = span([[1, 0], [0, 1]], 2, 2)
    assert s.contains([1, 1])
    assert span([[0, 1]], 2, 2).contains([0, 0])
    assert not span([[0, 1]], 2, 2).contains([1, 0])


def test_dim_sum_and_intersection_examples():
    s = span([[1, 0, 0], [0, 1, 0]], 3, 5)
    assert dim_sum_and_intersection(s, s) == (2, 2)
    a = span([[1, 0]], 2, 3)
    b = span([[0, 1]], 2, 3)
    assert dim_sum_and_intersection(a, b) == (2, 0)
    t = span([[1, 0, 0]], 3, 5)
    assert dim_sum_and_intersection(s, t) == (2, 1)


def _random_vectors(rng, count, m, p):
    return [[rng.randrange(p) for _ in range(m)] for _ in range(count)]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 1),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 6),
    st.integers(0, 9),
    st.integers(0, 9),
)
def test_grassmann_identity(seed, p, m, ks, kt):
    rng = random.Random((seed, p, m, ks, kt).__hash__())
    s = span(_random_vectors(rng, ks, m, p), m, p)
    t = span(_random_vectors(rng, kt, m, p), m, p)
    dim_sum, dim_int = dim_sum_and_intersection(s, t)
    assert dim_sum + dim_int == s.dim + t.dim
    assert max(s.dim, t.dim) <= dim_sum <= min(m, s.dim + t.dim)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_grassmann_identity_large_ambient(p):
    m = 512
    rng = random.Random(90 + p)
    s = span(_random_vectors(rng, 70, m, p), m, p)
    t = span(_random_vectors(rng, 55, m, p), m, p)
    dim_sum, dim_int = dim_sum_and_intersection(s, t)
    assert dim_sum + dim_int == s.dim + t.dim
    assert dim_sum <= m


@pytest.mark.parametrize("p,size", [(2, 512), (3, 60), (5, 40)])
def test_rank_equals_transpose_rank(p, size):
    rng = random.Random(size * p)
    rows = _random_vectors(rng, size, size, p)
    cols = [[rows[i][j] for i in range(size)] for j in range(size)]
    assert matrix_rank(rows, size, p) == matrix_rank(cols, size, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_span_idempotent_and_order_independent(p):
    rng = random.Random(p)
    vectors = _random_vectors(rng, 12, 8, p)
    s = span(vectors, 8, p)
    again = span(s.basis_rows(), 8, p)
    assert again.basis_rows() == s.basis_rows()
    shuffled = vectors[:]
    rng.shuffle(shuffled)
    assert span(shuffled, 8, p).basis_rows() == s.basis_rows()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rref_invariants(p):
    rng = random.Random(17 * p)
    for count in (10, 6):
        s = span(_random_vectors(rng, count, 9, p), 9, p)
        rows = s.basis_rows()
        pivots = s.pivot_indices()
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for k, row in enumerate(rows):
            lead = next(i for i, x in enumerate(row) if x)
            assert lead == pivots[k]
            assert row[lead] == 1
            for other in range(len(rows)):
                if other != k:
                    assert rows[other][lead] == 0


@pytest.mark.parametrize("p", [2, 3])
def test_builder_incremental_and_copy(p):
    builder = SpanBuilder(3, p)
    assert builder.add([1, 0, 0]) is True
    assert builder.add([1, 0, 0]) is False
    assert builder.add([1, 1, 0]) is True
    frozen = builder.subspace()
    assert builder.contains([0, 1, 0])
    assert not builder.contains([0, 0, 1])
    assert builder.add([0, 0, 1]) is True
    assert builder.rank == 3 and frozen.dim == 2
    assert not frozen.contains([0, 0, 1])


def _assert_canonical(s, v):
    """reduce(v) is idempotent, differs from v by a member of the span, and
    is zero on every pivot coordinate."""
    p, m = s.p, s.ambient_dim
    reduced = s.reduce(v)
    assert all(0 < c < p for c in reduced.values())
    assert s.reduce(dict(reduced)) == reduced
    diff = [(v[i] - reduced.get(i, 0)) % p for i in range(m)]
    assert s.contains(diff)
    assert not set(reduced) & set(s.pivot_indices())
    return reduced


def test_reduce_is_canonical():
    for p in (2, 3, 5, 7):
        s = span([[1, 1, 0], [0, 0, 1]], 3, p)
        assert s.reduce([1, 1, 1]) == {}
        reduced = _assert_canonical(s, [1, 0, 1])
        assert reduced == {1: p - 1}
        rng = random.Random(p)
        s = span(_random_vectors(rng, 5, 10, p), 10, p)
        for v in _random_vectors(rng, 20, 10, p):
            _assert_canonical(s, v)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 12),
    st.data(),
)
def test_span_engine_matches_oracle(p, m, data):
    # Both states of the engine against textbook Gauss-Jordan: the builder
    # (echelon, not reduced) for rank and membership, the frozen subspace
    # for the canonical reduced basis and reduction.
    coeff = st.integers(-p, 2 * p)
    vector = st.lists(coeff, min_size=m, max_size=m)
    vectors = data.draw(st.lists(vector, max_size=m + 2))
    probes = data.draw(st.lists(vector, min_size=1, max_size=4))
    expected = [tuple(row) for row in rref_oracle(vectors, m, p)]
    members = [
        [sum(c * row[i] for c, row in zip(cs, vectors)) for i in range(m)]
        for cs in data.draw(
            st.lists(st.lists(coeff, min_size=len(vectors), max_size=len(vectors)),
                     max_size=3)
        )
    ]

    builder = SpanBuilder(m, p)
    grew = [builder.add(v) for v in vectors]
    assert builder.rank == sum(grew) == len(expected) == matrix_rank(vectors, m, p)
    for v in members:
        assert builder.contains(v)
    inside = [not any(reduce_oracle(expected, v, p)) for v in probes]
    assert [builder.contains(v) for v in probes] == inside
    if p == 2:
        assert [not builder.residual_mask(as_mask(v, m)) for v in probes] == inside

    s = builder.subspace()
    assert s.dim == len(expected)
    assert s.basis_rows() == expected
    assert s.pivot_indices() == [next(i for i, x in enumerate(r) if x) for r in expected]
    for v in members:
        assert s.contains(v) and s.reduce(v) == {}
    for v, into in zip(probes, inside):
        reduced = _assert_canonical(s, v)
        oracle = reduce_oracle(expected, v, p)
        assert reduced == {i: x for i, x in enumerate(oracle) if x}
        assert s.contains(v) == into

    # the builder keeps growing after a freeze, and the frozen subspace,
    # which may share its rows, stays as it was
    wider = [tuple(row) for row in rref_oracle(vectors + probes, m, p)]
    for v in probes:
        builder.add(v)
    assert builder.rank == len(wider)
    assert builder.subspace().basis_rows() == wider
    assert s.dim == len(expected)
    assert s.basis_rows() == expected
    for v, into in zip(probes, inside):
        assert s.contains(v) == into


@pytest.mark.parametrize("p", [2, 5])
def test_pushes_after_a_freeze_leave_the_subspace_unchanged(p):
    builder = SpanBuilder(4, p)
    builder.add([1, 1, 0, 0])
    builder.add([0, 1, 1, 0])
    frozen = builder.subspace()
    rows = frozen.basis_rows()
    assert builder.add([0, 0, 0, 1])
    assert frozen.basis_rows() == rows and frozen.pivot_indices() == [0, 1]
    assert frozen.reduce([0, 0, 0, 1]) == {3: 1}
    assert builder.rank == 3
    assert not builder.contains([0, 0, 1, 1])
    assert builder.add([0, 0, 1, 1])
    assert frozen.basis_rows() == rows


def test_vector_input_validation():
    s = span([[1, 0]], 2, 2)
    with pytest.raises(ValueError):
        s.contains([1, 0, 0])
    with pytest.raises(ValueError):
        span([[1, 0]], 2, 4)
