from fractions import Fraction

import pytest

import dualweyl.decomposition as dc
from dualweyl.decomposition import (
    _simple_weight_dim,
    _solve_unitriangular,
    composition_factors_U,
    decomposition_rows,
    dim_simple,
    nabla_filtration_feasible,
)
from dualweyl.partitions import InvariantError, Partition, hook_content_dim, partitions_of
from dualweyl.predictions import predict_iso
from dualweyl.quotients import u_lambda_dim
from dualweyl.tableaux import kostka_number
from helpers import (
    DEGREE5_DIM_POLYS,
    factors_by_simple_characters,
    literature_rows,
    patch_values,
)

P = Partition


@pytest.fixture
def fresh_rows():
    """Derive the rows anew inside the test and drop them after it, so a
    patched derivation neither reads nor leaves a cached row."""
    decomposition_rows.cache_clear()
    yield
    decomposition_rows.cache_clear()


def test_derived_rows_equal_the_literature_rows():
    literature = literature_rows()
    derived = {}
    for n in range(1, 6):
        rows = decomposition_rows(n)
        assert list(rows) == list(partitions_of(n)), n
        for mu, row in rows.items():
            assert list(row) == [nu for nu in partitions_of(n) if nu in row], mu
            derived[mu] = dict(row)
    assert derived == literature


def test_weight_spaces_use_the_gram_matrix_of_the_fillings():
    # Both fillings of (2) with content (1,1) have the row monomial {1,2},
    # so M = [1 1]: M.M^T has rank 0 and M^T.M rank 1. L(2) is the
    # Frobenius twist of the natural module, with no (1,1) weight.
    assert _simple_weight_dim(P((2,)), P((1, 1))) == 0
    assert _simple_weight_dim(P((1, 1)), P((1, 1))) == 1
    assert _simple_weight_dim(P((1, 1)), P((2,))) == 0


def test_dim_identity():
    for n in range(1, 6):
        for mu, row in decomposition_rows(n).items():
            for d in range(1, 9):
                total = sum(mult * dim_simple(nu, d) for nu, mult in row.items())
                assert total == hook_content_dim(mu, d), (mu, d)


def test_dim_L_examples():
    assert [dim_simple(P((5,)), d) for d in range(1, 9)] == [
        d * d for d in range(1, 9)
    ]
    assert dim_simple(P((4, 1)), 3) == 24
    assert dim_simple(P((1, 1, 1, 1, 1)), 4) == 0
    # Steinberg: L(6) is the twist of L(3), which is L(1) tensor L(1)^(1).
    assert [dim_simple(P((6,)), d) for d in range(1, 5)] == [
        d * d for d in range(1, 5)
    ]


def test_degree5_polynomials_match():
    for mu, coeffs in DEGREE5_DIM_POLYS.items():
        for d in range(1, 9):
            value = sum(
                c * Fraction(d) ** (5 - k) for k, c in enumerate(coeffs)
            )
            assert value.denominator == 1
            assert dim_simple(mu, d) == int(value), (mu, d)


def test_tampered_data_rejected(monkeypatch, fresh_rows):
    # A weight space of L(3,2) at (3,1,1) read as 2 instead of 0 makes the
    # (3,1,1) multiplicity in the (3,2) row negative.
    patch_values(monkeypatch, dc, "_simple_weight_dim", {(P((3, 2)), P((3, 1, 1))): 2})
    with pytest.raises(InvariantError, match="row of"):
        decomposition_rows(5)


def test_non_dominant_entry_rejected(monkeypatch, fresh_rows):
    # K_{(1,1),(2)} read as 1 gives the row (1,1): 1, (2): 1.
    patch_values(monkeypatch, dc, "kostka_number", {(P((1, 1)), P((2,))): 1})
    with pytest.raises(InvariantError, match="row of"):
        decomposition_rows(2)


def test_missing_diagonal_rejected(monkeypatch, fresh_rows):
    # K_{(2),(2)} read as 0 gives the row (2): 0, (1,1): 1.
    patch_values(monkeypatch, dc, "kostka_number", {(P((2,)), P((2,))): 0})
    with pytest.raises(InvariantError, match="row of"):
        decomposition_rows(2)


def test_derived_rows_are_read_only():
    rows = decomposition_rows(3)
    mu = P((3,))
    with pytest.raises(TypeError):
        rows[mu] = rows[mu]
    with pytest.raises(TypeError):
        rows[mu][mu] = 1
    assert decomposition_rows(3) is rows
    assert decomposition_rows.cache_parameters()["maxsize"] is not None


def test_composition_factors_match_tables():
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


def test_factor_solve_needs_a_unit_lower_triangular_system():
    # The Kostka numbers K_{rho,beta}, row beta and column rho, are unit
    # lower triangular in `partitions_of` order at every shipped degree;
    # the integer solve for the kernel's Schur coefficients relies on it
    # and refuses any other system.
    for n in range(1, 6):
        labels = list(partitions_of(n))
        for i, beta in enumerate(labels):
            row = [kostka_number(rho, beta) for rho in labels]
            assert row[i] == 1 and not any(row[i + 1:]), beta
    a, b = P((2,)), P((1, 1))
    rhs = {a: 2, b: 5}
    good = {a: {a: 1, b: 0}, b: {a: 1, b: 1}}
    assert _solve_unitriangular([a, b], good, rhs) == {a: 2, b: 3}
    for bad in ({a: {a: 2, b: 0}, b: {a: 1, b: 1}}, {a: {a: 1, b: 1}, b: {a: 0, b: 1}}):
        with pytest.raises(InvariantError):
            _solve_unitriangular([a, b], bad, rhs)


def test_factors_match_the_simple_character_solve():
    # Schur coefficients times the decomposition rows against the solve through the
    # simples' characters, which inverts the decomposition matrix.
    nonzero = 0
    for n in range(1, 6):
        for shape in partitions_of(n):
            factors = composition_factors_U(shape)
            assert factors == factors_by_simple_characters(shape), shape
            nonzero += bool(factors)
    assert nonzero == 8


def test_composition_factors_small_degrees():
    assert composition_factors_U(P((1, 1))) == {P((2,)): 1}
    assert composition_factors_U(P((1, 1, 1))) == {P((3,)): 1}
    assert composition_factors_U(P((2, 1))) == {}
    assert composition_factors_U(P((1,))) == {}


def test_factor_dims_reproduce_kernel_at_many_points():
    for shape in (P((2, 2, 1)), P((2, 1, 1, 1))):
        factors = composition_factors_U(shape)
        for d in range(1, 10):
            total = sum(m * dim_simple(mu, d) for mu, m in factors.items())
            assert total == u_lambda_dim(shape, d), (shape, d)


def test_iso_shapes_have_empty_factor_multiset():
    for n in range(1, 6):
        for shape in partitions_of(n):
            factors = composition_factors_U(shape)
            assert (factors == {}) == predict_iso(shape), shape


@pytest.mark.parametrize("n, empty", [
    (6, {(6,), (5, 1), (4, 2), (3, 3), (3, 2, 1)}),
    (7, {(7,), (6, 1), (5, 2), (4, 3), (4, 2, 1), (3, 3, 1)}),
])
def test_kernel_factors_past_the_literature_rows(n, empty):
    # The factors of every shape of 6 and of 7 boxes meet their dimension
    # equations, and vanish exactly where the kernel does.
    for shape in partitions_of(n):
        factors = composition_factors_U(shape)
        assert all(m > 0 for m in factors.values()), shape
        for d in range(1, n + 2):
            total = sum(m * dim_simple(mu, d) for mu, m in factors.items())
            assert total == u_lambda_dim(shape, d), (shape, d)
        assert (factors == {}) == predict_iso(shape) == (shape in empty), shape


def test_filtration_feasibility():
    rows = decomposition_rows(5)
    assert nabla_filtration_feasible({})
    for mu in partitions_of(5):
        assert nabla_filtration_feasible(dict(rows[mu]))
    shape = P((2, 2, 1))
    factors = dict(composition_factors_U(shape))
    for nu, mult in rows[shape].items():
        factors[nu] = factors.get(nu, 0) + mult
    assert not nabla_filtration_feasible(factors)
    doubled = {nu: 2 * m for nu, m in rows[P((3, 1, 1))].items()}
    assert nabla_filtration_feasible(doubled)


def test_unknown_degree_rejected():
    # The cost bound sits in the derivation, so every reader of the rows
    # shares it.
    with pytest.raises(ValueError):
        composition_factors_U(P((8,)))
    with pytest.raises(ValueError):
        dim_simple(P((8,)), 2)
