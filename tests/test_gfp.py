import random

import pytest
from hypothesis import given, settings, strategies as st

from dualweyl.gfp import SpanBuilder, Subspace, is_prime
from helpers import (
    dim_sum_and_intersection,
    matrix_rank,
    reduce_oracle,
    rref_oracle,
    span,
    sparse,
)


def test_is_prime():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)


def test_is_prime_agrees_with_a_sieve_below_10_5():
    sieve = bytearray([1]) * 10**5
    sieve[:2] = b"\0\0"
    for k in range(2, 317):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, 10**5, k)))
    assert [p for p in range(-3, 10**5) if is_prime(p)] == [
        p for p in range(10**5) if sieve[p]
    ]


def test_is_prime_is_exact_for_large_p_and_refuses_past_its_bound():
    # Strong pseudoprimes to the first 4, 9 and 12 prime bases, a 61-bit
    # Mersenne prime, the prime just above 2^64, and a prime near 10^18.
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1) and is_prime(2**64 + 13)
    assert is_prime(1000000000000000003)
    assert not is_prime(1000000007 * 998244353)
    with pytest.raises(ValueError, match="below"):
        is_prime(3317044064679887385961981)


def test_span_examples():
    assert span([], 5, 2).dim == 0
    units = [{i: 1} for i in range(4)]
    assert span(units, 4, 3).dim == 4
    v = {0: 1, 2: 2}
    assert span([v, v], 3, 3).dim == 1


def test_contains_examples():
    s = span([{0: 1}, {1: 1}], 2, 2)
    assert s.contains({0: 1, 1: 1})
    assert span([{1: 1}], 2, 2).contains({})
    assert span([{1: 1}], 2, 2).contains({0: 0, 1: 2})
    assert not span([{1: 1}], 2, 2).contains({0: 1})


def test_dim_sum_and_intersection_examples():
    s = span([{0: 1}, {1: 1}], 3, 5)
    assert dim_sum_and_intersection(s, s) == (2, 2)
    a = span([{0: 1}], 2, 3)
    b = span([{1: 1}], 2, 3)
    assert dim_sum_and_intersection(a, b) == (2, 0)
    t = span([{0: 1}], 3, 5)
    assert dim_sum_and_intersection(s, t) == (2, 1)


def _random_vectors(rng, count, m, p):
    return [sparse([rng.randrange(p) for _ in range(m)]) for _ in range(count)]


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
    cols = [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(size)]
    assert matrix_rank(rows, size, p) == matrix_rank(cols, size, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_span_idempotent_and_order_independent(p):
    rng = random.Random(p)
    vectors = _random_vectors(rng, 12, 8, p)
    s = span(vectors, 8, p)
    again = span(map(sparse, s.basis_rows()), 8, p)
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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_subspace_from_reduced_rows_is_the_frozen_span(p):
    # Rows already in reduced row-echelon form freeze as they are, into the
    # subspace the builder gives for their span; the rows go in as masks
    # at p = 2 and as sparse dicts otherwise.
    rng = random.Random(5 * p)
    for count in (3, 6, 9):
        want = span(_random_vectors(rng, count, 9, p), 9, p)
        rows = [sparse(row) for row in want.basis_rows()]
        if p == 2:
            rows = [sum(1 << i for i in row) for row in rows]
        got = Subspace.from_reduced_rows(9, p, reversed(rows))
        assert got.pivot_indices() == want.pivot_indices()
        assert got.basis_rows() == want.basis_rows()
        assert got.reduce({0: 1, 4: 1, 8: 1}) == want.reduce({0: 1, 4: 1, 8: 1})
    assert Subspace.from_reduced_rows(4, p, []).dim == 0


@pytest.mark.parametrize(
    "rows, p",
    [
        ([{0: 2, 1: 1}], 3),  # the pivot coefficient is not 1
        ([{0: 1, 1: 3}], 3),  # a coefficient outside [1, p)
        ([{0: 1, 2: 1}, {2: 1}], 3),  # pivot 2 occurs in the row of pivot 0
        ([{1: 1}, {1: 1, 2: 1}], 5),  # two rows with one pivot
        ([{}], 3),  # an empty row
        ([{0: 1, 4: 1}], 3),  # a coordinate past the ambient space
        ([0b101, 0b100], 2),  # bit 2 is a pivot and lies in the row of bit 0
        ([0b10, 0b110], 2),  # two rows with one pivot
        ([0], 2),  # an empty row
        ([0b10001], 2),  # a coordinate past the ambient space
    ],
)
def test_rows_that_are_not_reduced_echelon_are_refused(rows, p):
    with pytest.raises(ValueError, match="reduced echelon row|holds another pivot"):
        Subspace.from_reduced_rows(4, p, rows)


@pytest.mark.parametrize("p", [2, 3])
def test_builder_incremental_and_copy(p):
    builder = SpanBuilder(3, p)
    assert builder.add({0: 1}) is True
    assert builder.add({0: 1}) is False
    assert builder.add({0: 1, 1: 1}) is True
    frozen = builder.subspace()
    assert builder.contains({1: 1})
    assert not builder.contains({2: 1})
    assert builder.add({2: 1}) is True
    assert builder.rank == 3 and frozen.dim == 2
    assert not frozen.contains({2: 1})


def _assert_canonical(s, v):
    """reduce(v) of a sparse v is idempotent, differs from v by a member of
    the span, and is zero on every pivot coordinate."""
    p, m = s.p, s.ambient_dim
    reduced = s.reduce(v)
    assert all(0 < c < p for c in reduced.values())
    assert s.reduce(dict(reduced)) == reduced
    diff = {i: (v.get(i, 0) - reduced.get(i, 0)) % p for i in range(m)}
    assert s.contains(diff)
    assert not set(reduced) & set(s.pivot_indices())
    return reduced


def test_reduce_is_canonical():
    for p in (2, 3, 5, 7):
        s = span([{0: 1, 1: 1}, {2: 1}], 3, p)
        assert s.reduce({0: 1, 1: 1, 2: 1}) == {}
        reduced = _assert_canonical(s, {0: 1, 2: 1})
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

    # The engine takes sparse dicts; the oracles, dense lists.
    rows = [sparse(v) for v in vectors]
    builder = SpanBuilder(m, p)
    grew = [builder.add(v) for v in rows]
    assert builder.rank == sum(grew) == len(expected) == matrix_rank(rows, m, p)
    for v in members:
        assert builder.contains(sparse(v))
    inside = [not any(reduce_oracle(expected, v, p)) for v in probes]
    assert [builder.contains(sparse(v)) for v in probes] == inside
    if p == 2:
        masks = [sum(1 << i for i, c in enumerate(v) if c % 2) for v in probes]
        assert [not builder.residual_mask(mask) for mask in masks] == inside

    s = builder.subspace()
    assert s.dim == len(expected)
    assert s.basis_rows() == expected
    assert s.pivot_indices() == [next(i for i, x in enumerate(r) if x) for r in expected]
    for v in members:
        assert s.contains(sparse(v)) and s.reduce(sparse(v)) == {}
    for v, into in zip(probes, inside):
        reduced = _assert_canonical(s, sparse(v))
        oracle = reduce_oracle(expected, v, p)
        assert reduced == sparse(oracle)
        assert s.contains(sparse(v)) == into

    # the builder keeps growing after a freeze, and the frozen subspace,
    # which may share its rows, stays as it was
    wider = [tuple(row) for row in rref_oracle(vectors + probes, m, p)]
    for v in probes:
        builder.add(sparse(v))
    assert builder.rank == len(wider)
    assert builder.subspace().basis_rows() == wider
    assert s.dim == len(expected)
    assert s.basis_rows() == expected
    for v, into in zip(probes, inside):
        assert s.contains(sparse(v)) == into


@pytest.mark.parametrize("p", [2, 5])
def test_pushes_after_a_freeze_leave_the_subspace_unchanged(p):
    builder = SpanBuilder(4, p)
    builder.add({0: 1, 1: 1})
    builder.add({1: 1, 2: 1})
    frozen = builder.subspace()
    rows = frozen.basis_rows()
    assert builder.add({3: 1})
    assert frozen.basis_rows() == rows and frozen.pivot_indices() == [0, 1]
    assert frozen.reduce({3: 1}) == {3: 1}
    assert builder.rank == 3
    assert not builder.contains({2: 1, 3: 1})
    assert builder.add({2: 1, 3: 1})
    assert frozen.basis_rows() == rows


def test_vector_input_validation():
    # Vectors are sparse dicts at every p: a dense list or an int mask is
    # refused, as is a coordinate outside the ambient space, by every
    # entry point, and a refused vector changes nothing.
    for p in (2, 5):
        builder = SpanBuilder(2, p)
        builder.add({0: 1})
        frozen = builder.subspace()
        for call in (builder.add, builder.contains, frozen.contains, frozen.reduce):
            for vec in ([1, 0], [1, 0, 0], 1, 0b10):
                with pytest.raises(TypeError):
                    call(vec)
            for key in (2, -1):
                with pytest.raises(ValueError):
                    call({key: 1})
                with pytest.raises(ValueError):
                    call({0: 1, key: 2})
        assert builder.rank == frozen.dim == 1
        assert builder.contains({0: 1}) and not builder.contains({1: 1})
    with pytest.raises(ValueError):
        span([{0: 1}], 2, 4)
