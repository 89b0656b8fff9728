from fractions import Fraction

import pytest

from dualweyl.decomposition import (
    DEGREE5_DIM_POLYS,
    DecompositionData,
    DecompositionDataError,
    _solve_unitriangular,
    composition_factors_U,
    default_data_path,
    load_default_data,
    nabla_filtration_feasible,
)
from dualweyl.partitions import Partition, hook_content_dim, partitions_of
from dualweyl.quotients import u_lambda_dim
from dualweyl.tableaux import kostka_number
from helpers import factors_by_simple_characters

P = Partition


@pytest.fixture(scope="module")
def data():
    return load_default_data()


def test_load_passes_gates(data):
    assert data.degrees() == [1, 2, 3, 4, 5]


def test_dim_identity(data):
    for mu in data.rows:
        for d in range(1, 9):
            total = sum(
                mult * data.dim_simple(nu, d) for nu, mult in data.row(mu).items()
            )
            assert total == hook_content_dim(mu, d), (mu, d)


def test_dim_L_examples(data):
    assert [data.dim_simple(P((5,)), d) for d in range(1, 9)] == [
        d * d for d in range(1, 9)
    ]
    assert data.dim_simple(P((4, 1)), 3) == 24
    assert data.dim_simple(P((1, 1, 1, 1, 1)), 4) == 0
    with pytest.raises(DecompositionDataError):
        data.dim_simple(P((6,)), 3)


def test_degree5_polynomials_match(data):
    for mu, coeffs in DEGREE5_DIM_POLYS.items():
        for d in range(1, 9):
            value = sum(
                c * Fraction(d) ** (5 - k) for k, c in enumerate(coeffs)
            )
            assert value.denominator == 1
            assert data.dim_simple(mu, d) == int(value), (mu, d)


def test_tampered_data_rejected(tmp_path):
    lines = default_data_path().read_text().splitlines()
    tampered = [
        line.replace("3,2; 3,2:1, 3,1,1:1", "3,2; 3,2:1, 3,1,1:2")
        for line in lines
    ]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(tampered))
    with pytest.raises(DecompositionDataError):
        DecompositionData.load(bad)


def test_non_dominant_entry_rejected(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2; 2:1, 1,1:1\n1,1; 1,1:1, 2:1\n")
    with pytest.raises(DecompositionDataError):
        DecompositionData.load(bad)


def test_missing_diagonal_rejected(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2; 1,1:1\n1,1; 1,1:1\n")
    with pytest.raises(DecompositionDataError):
        DecompositionData.load(bad)


def test_composition_factors_match_tables(data):
    expected = {
        P((1, 1, 1, 1)): {P((2, 2)): 1, P((3, 1)): 1, P((4,)): 1},
        P((2, 1, 1)): {P((2, 2)): 2, P((3, 1)): 1, P((4,)): 1},
        P((1, 1, 1, 1, 1)): {P((3, 1, 1)): 1, P((3, 2)): 1, P((5,)): 1},
        P((2, 1, 1, 1)): {P((4, 1)): 1},
        P((2, 2, 1)): {P((3, 1, 1)): 1, P((3, 2)): 1, P((5,)): 1},
        P((3, 1, 1)): {P((3, 1, 1)): 1, P((3, 2)): 2, P((5,)): 1},
    }
    for shape, factors in expected.items():
        assert composition_factors_U(shape, data) == factors, shape


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
        with pytest.raises(DecompositionDataError):
            _solve_unitriangular([a, b], bad, rhs)


def test_factors_match_the_simple_character_solve(data):
    # Schur coefficients times the data rows against the solve through the
    # simples' characters, which inverts the decomposition matrix.
    nonzero = 0
    for n in range(1, 6):
        for shape in partitions_of(n):
            factors = composition_factors_U(shape, data)
            assert factors == factors_by_simple_characters(shape, data), shape
            nonzero += bool(factors)
    assert nonzero == 8


def test_composition_factors_small_degrees(data):
    assert composition_factors_U(P((1, 1)), data) == {P((2,)): 1}
    assert composition_factors_U(P((1, 1, 1)), data) == {P((3,)): 1}
    assert composition_factors_U(P((2, 1)), data) == {}
    assert composition_factors_U(P((1,)), data) == {}


def test_factor_dims_reproduce_kernel_at_many_points(data):
    for shape in (P((2, 2, 1)), P((2, 1, 1, 1))):
        factors = composition_factors_U(shape, data)
        for d in range(1, 10):
            total = sum(m * data.dim_simple(mu, d) for mu, m in factors.items())
            assert total == u_lambda_dim(shape, d), (shape, d)


def test_iso_shapes_have_empty_factor_multiset(data):
    for n in range(1, 6):
        for shape in partitions_of(n):
            from dualweyl.predictions import predict_iso

            factors = composition_factors_U(shape, data)
            assert (factors == {}) == predict_iso(shape), shape


def test_filtration_feasibility(data):
    assert nabla_filtration_feasible({}, data)
    for mu in partitions_of(5):
        assert nabla_filtration_feasible(dict(data.row(mu)), data)
    shape = P((2, 2, 1))
    factors = dict(composition_factors_U(shape, data))
    for nu, mult in data.row(shape).items():
        factors[nu] = factors.get(nu, 0) + mult
    assert not nabla_filtration_feasible(factors, data)
    doubled = {nu: 2 * m for nu, m in data.row(P((3, 1, 1))).items()}
    assert nabla_filtration_feasible(doubled, data)


def test_unknown_degree_rejected(data):
    with pytest.raises(ValueError):
        composition_factors_U(P((6,)), data)
