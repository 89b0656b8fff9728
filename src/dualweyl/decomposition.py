"""Decomposition numbers in characteristic 2, simple-module dimensions,
composition factors of the surjection kernel (its Schur coefficients
times the decomposition rows; the decomposition matrix is never
inverted), and the filtration feasibility search.

The rows are derived, not tabulated. The weight spaces of a simple module
come from the contravariant form (Green, Polynomial Representations of
GL_n, LNM 830; James, The Representation Theory of the Symmetric Groups,
LNM 682, for the same Gram matrices of Specht modules): dim L(lam)_beta
is the rank of the canonical map Delta(lam)_beta -> nabla(lam)_beta. The Kostka numbers K_{mu,beta} =
sum_nu d_{mu,nu} dim L(nu)_beta are then unit lower triangular in the
unknown rows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from types import MappingProxyType

from .gfp import SpanBuilder, _bits
from .partitions import (
    InvariantError,
    Partition,
    dominates,
    hook_content_dim,
    partitions_of,
)
from .quotients import _kernel_dims, u_lambda_dim
from .tableaux import TableauClass, enumerate_tableaux, kostka_number

Rows = MappingProxyType[Partition, MappingProxyType[Partition, int]]


def _simple_weight_dim(lam: Partition, beta: Partition) -> int:
    """dim L(lam)_beta over GF(2), as the rank of M.M^T. M has a column per
    column-strict filling c of content beta and a row per row monomial
    (the sorted rows of a filling); column c counts, mod 2, the sigma in
    the column group of c whose sigma.c has that row monomial, since
    every sign is 1 mod 2. The transpose order matters: for M = [1 1],
    M.M^T has rank 0 and M^T.M rank 1."""
    fillings = enumerate_tableaux(
        lam, len(beta), TableauClass.COLUMN_STANDARD, content=tuple(beta)
    )
    height = len(lam)
    monomials: dict[tuple, int] = {}
    columns = []  # column c of M, as a mask over the row monomials
    for cols in fillings:
        mask = 0
        for sigma_c in product(*map(permutations, cols)):
            rows = tuple(
                tuple(sorted(c[i] for c in sigma_c if len(c) > i))
                for i in range(height)
            )
            mask ^= 1 << monomials.setdefault(rows, len(monomials))
        columns.append(mask)
    # Row r of M.M^T is the sum of the columns of M that hold monomial r.
    gram = [0] * len(monomials)
    for mask in columns:
        for r in _bits(mask):
            gram[r] ^= mask
    span = SpanBuilder(len(monomials))
    for row in gram:
        span.add_mask(row)
    return span.rank


@lru_cache(maxsize=8)
def decomposition_rows(n: int) -> Rows:
    """Row mu -> {nu: multiplicity of the nu-simple in the mu dual Weyl
    module}, for every mu of n, labels in `partitions_of` order, as
    read-only views. Each row solves K_{mu,beta} = sum_nu d_{mu,nu}
    dim L(nu)_beta; it must have 1 at mu and nonnegative entries only at
    the partitions that mu dominates."""
    if n > 7:
        # A cost bound: deriving the rows of degree 8 takes about 13 s.
        raise ValueError("decomposition rows are derived for n <= 7 only")
    labels = list(partitions_of(n))
    weights = {
        beta: {nu: _simple_weight_dim(nu, beta) for nu in labels}
        for beta in labels
    }
    rows = {}
    for mu in labels:
        kostka = {beta: kostka_number(mu, beta) for beta in labels}
        row = {
            nu: m
            for nu, m in _solve_unitriangular(labels, weights, kostka).items()
            if m
        }
        if row.get(mu) != 1 or any(
            m < 0 or not dominates(mu, nu) for nu, m in row.items()
        ):
            raise InvariantError(f"derived decomposition row of {mu} is {row}")
        rows[mu] = MappingProxyType(row)
    return MappingProxyType(rows)


def simple_dims(n: int, d: int) -> dict[Partition, int]:
    """Dimension of every simple module of degree n over a d-dimensional
    space. The decomposition rows, least dominant label first, are unit
    lower triangular, and a dual Weyl module has the hook-content
    dimension, so one forward substitution solves them."""
    labels = list(partitions_of(n))[::-1]
    hook = {mu: hook_content_dim(mu, d) for mu in labels}
    return _solve_unitriangular(labels, decomposition_rows(n), hook)


def dim_simple(mu: Partition, d: int) -> int:
    """Dimension of the simple module labelled mu over d letters."""
    return simple_dims(mu.n, d)[mu]


def composition_factors_U(shape: Partition) -> dict[Partition, int]:
    """Multiset of simple labels in the kernel of the surjection onto the
    dual Weyl module.

    The per-dominant-weight dimensions of the kernel at d = n are solved
    for its Schur coefficients: the Kostka numbers form a unit lower
    triangular system in `partitions_of` order, solved by forward
    substitution over the integers. A Schur function is the character of
    a dual Weyl module, whose factors are its decomposition row, so the
    factors are the Schur coefficients times the rows and must come out
    nonnegative. The total-dimension equations at d = 1..#partitions(n)
    are checked afterwards.
    """
    n = shape.n
    labels = list(partitions_of(n))
    rows = decomposition_rows(n)
    kernel = _kernel_dims(shape, n)
    rhs = {beta: kernel.get(beta, 0) for beta in labels}
    matrix = {
        beta: {rho: kostka_number(rho, beta) for rho in labels}
        for beta in labels
    }
    schur = _solve_unitriangular(labels, matrix, rhs)
    factors = {}
    for mu in labels:
        value = sum(c * rows[rho].get(mu, 0) for rho, c in schur.items())
        if value < 0:
            raise InvariantError(
                f"factor solve for {shape} produced {value} at {mu}"
            )
        if value:
            factors[mu] = value
    for d in range(1, len(labels) + 1):
        dims = simple_dims(n, d)
        total = sum(m * dims[mu] for mu, m in factors.items())
        if total != u_lambda_dim(shape, d):
            raise InvariantError(
                f"factor multiset for {shape} fails the dimension check at d={d}"
            )
    return factors


def _solve_unitriangular(labels, matrix, rhs) -> dict[Partition, int]:
    """Forward substitution over the integers; raises unless the system is
    unit lower triangular in the order of ``labels``."""
    solution: dict[Partition, int] = {}
    for i, beta in enumerate(labels):
        row = matrix[beta]
        if row.get(beta) != 1 or any(row.get(mu) for mu in labels[i + 1:]):
            raise InvariantError(
                f"weight system is not unit lower triangular at {beta}"
            )
        solution[beta] = rhs[beta] - sum(
            row.get(mu, 0) * solution[mu] for mu in labels[:i]
        )
    return solution


def nabla_filtration_feasible(factors: dict[Partition, int]) -> bool:
    """Whether the multiset of simple labels splits into whole dual-Weyl
    factor multisets. Bounded exhaustive search; trivially true for the
    empty multiset."""
    remaining = {mu: m for mu, m in factors.items() if m}
    if not remaining:
        return True
    n = next(iter(remaining)).n
    candidates = list(decomposition_rows(n).items())

    def search(rem: dict[Partition, int], start: int) -> bool:
        if not rem:
            return True
        for k in range(start, len(candidates)):
            mu, block = candidates[k]
            if all(rem.get(nu, 0) >= mult for nu, mult in block.items()):
                nxt = dict(rem)
                for nu, mult in block.items():
                    nxt[nu] -= mult
                    if not nxt[nu]:
                        del nxt[nu]
                if search(nxt, k):
                    return True
        return False

    return search(remaining, 0)
