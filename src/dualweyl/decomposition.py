"""Decomposition data for characteristic 2 at degrees up to 5, simple-module
dimensions, composition factors of the surjection kernel (its Schur
coefficients times the data rows; the decomposition matrix is never
inverted), and the filtration feasibility search.

The multiplicity table ships as a data file and is never trusted blindly:
loading fails unless every line parses whole, and unitriangularity,
nonnegativity of the derived simple dimensions, and the known dimension
polynomials at degree 5 all hold.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path
from types import MappingProxyType

from .partitions import (
    InvariantError,
    Partition,
    dominates,
    hook_content_dim,
    parse_partition,
    partitions_of,
)
from .quotients import _kernel_dims, u_lambda_dim
from .tableaux import kostka_number

ENV_DATA_PATH = "DUALWEYL_DATA"

# Dimension polynomials of the degree-5 simple modules, coefficients of
# d^5..d^1. Used as a hard validation gate on the shipped table.
DEGREE5_DIM_POLYS: dict[Partition, tuple[Fraction, ...]] = {
    Partition((1, 1, 1, 1, 1)): (
        Fraction(1, 120), Fraction(-1, 12), Fraction(7, 24), Fraction(-5, 12), Fraction(1, 5),
    ),
    Partition((2, 1, 1, 1)): (
        Fraction(1, 30), Fraction(-1, 6), Fraction(1, 6), Fraction(1, 6), Fraction(-1, 5),
    ),
    Partition((2, 2, 1)): (
        Fraction(1, 30), Fraction(0), Fraction(-1, 3), Fraction(1, 2), Fraction(-1, 5),
    ),
    Partition((3, 1, 1)): (
        Fraction(0), Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3), Fraction(0),
    ),
    Partition((3, 2)): (
        Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(0),
    ),
    Partition((4, 1)): (
        Fraction(0), Fraction(1, 3), Fraction(0), Fraction(-1, 3), Fraction(0),
    ),
    Partition((5,)): (
        Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(0),
    ),
}

_VALIDATION_D_RANGE = range(1, 9)


class DecompositionDataError(ValueError):
    pass


def default_data_path() -> Path:
    override = os.environ.get(ENV_DATA_PATH)
    if override:
        return Path(override)
    return Path(resources.files("dualweyl").joinpath("data/decomposition_p2.txt"))


_PAIR = re.compile(r"(\d[\d,^]*)\s*:\s*(\d+)")
_ENTRIES = re.compile(rf"\s*{_PAIR.pattern}(?:\s*,\s*{_PAIR.pattern})*\s*")


@dataclass(frozen=True)
class DecompositionData:
    """Rows mu -> {nu: multiplicity of the nu-simple in the mu dual Weyl},
    held as read-only views."""

    rows: MappingProxyType[Partition, MappingProxyType[Partition, int]]

    @classmethod
    def load(cls, path: Path | str | None = None) -> "DecompositionData":
        path = Path(path) if path is not None else default_data_path()
        rows: dict[Partition, MappingProxyType[Partition, int]] = {}
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            mu_text, sep, rest = line.partition(";")
            if not sep or not _ENTRIES.fullmatch(rest):
                raise DecompositionDataError(f"line {line!r} is not 'mu; nu:mult, ...'")
            try:
                mu = parse_partition(mu_text)
                entries = {parse_partition(nu): int(m) for nu, m in _PAIR.findall(rest)}
            except ValueError as exc:
                raise DecompositionDataError(f"{exc} in line {line!r}") from None
            if mu in rows:
                raise DecompositionDataError(f"duplicate row for {mu}")
            rows[mu] = MappingProxyType(entries)
        data = cls(MappingProxyType(rows))
        data.validate()
        return data

    def degrees(self) -> list[int]:
        return sorted({mu.n for mu in self.rows})

    def row(self, mu: Partition) -> MappingProxyType[Partition, int]:
        try:
            return self.rows[mu]
        except KeyError:
            raise DecompositionDataError(f"no decomposition row for {mu}")

    def validate(self) -> None:
        for mu, entries in self.rows.items():
            if entries.get(mu) != 1:
                raise DecompositionDataError(f"row {mu} is not unitriangular")
            for nu, mult in entries.items():
                if mult < 0:
                    raise DecompositionDataError(f"negative multiplicity at {mu}")
                if nu.n != mu.n or not dominates(mu, nu):
                    raise DecompositionDataError(
                        f"entry {nu} of row {mu} breaks the dominance order"
                    )
        for n in self.degrees():
            missing = [mu for mu in partitions_of(n) if mu not in self.rows]
            if missing:
                raise DecompositionDataError(f"degree {n} misses rows {missing}")
        for n in self.degrees():
            for d in _VALIDATION_D_RANGE:
                dims = self.simple_dims(n, d)
                for mu, value in dims.items():
                    if value < 0:
                        raise DecompositionDataError(
                            f"derived dimension of {mu} is negative at d={d}"
                        )
                for mu, coeffs in DEGREE5_DIM_POLYS.items() if n == 5 else ():
                    if dims[mu] != _eval_poly(coeffs, d):
                        raise DecompositionDataError(
                            f"dimension of {mu} at d={d} disagrees with the "
                            f"degree-5 polynomial table"
                        )

    def simple_dims(self, n: int, d: int) -> dict[Partition, int]:
        """Dimension of every simple module of degree n over a
        d-dimensional space. The data rows, least dominant label first,
        are unit lower triangular, and a dual Weyl module has the
        hook-content dimension, so one forward substitution solves them."""
        labels = list(partitions_of(n))[::-1]
        hook = {mu: hook_content_dim(mu, d) for mu in labels}
        return _solve_unitriangular(labels, {mu: self.row(mu) for mu in labels}, hook)

    def dim_simple(self, mu: Partition, d: int) -> int:
        """Dimension of the simple module labelled mu over d letters."""
        return self.simple_dims(mu.n, d)[mu]


def composition_factors_U(
    shape: Partition, data: DecompositionData
) -> dict[Partition, int]:
    """Multiset of simple labels in the kernel of the surjection onto the
    dual Weyl module.

    The per-dominant-weight dimensions of the kernel at d = n are solved
    for its Schur coefficients: the Kostka numbers form a unit lower
    triangular system in `partitions_of` order, solved by forward
    substitution over the integers. A Schur function is the character of
    a dual Weyl module, whose factors are its data row, so the factors
    are the Schur coefficients times the data rows and must come out
    nonnegative. The total-dimension equations at d = 1..#partitions(n)
    are checked afterwards.
    """
    n = shape.n
    if n > 5:
        raise ValueError("composition factors are tabulated for n <= 5 only")
    labels = list(partitions_of(n))
    kernel = _kernel_dims(shape, n)
    rhs = {beta: kernel.get(beta, 0) for beta in labels}
    matrix = {
        beta: {rho: kostka_number(rho, beta) for rho in labels}
        for beta in labels
    }
    schur = _solve_unitriangular(labels, matrix, rhs)
    factors = {}
    for mu in labels:
        value = sum(c * data.row(rho).get(mu, 0) for rho, c in schur.items())
        if value < 0:
            raise DecompositionDataError(
                f"factor solve for {shape} produced {value} at {mu}"
            )
        if value:
            factors[mu] = value
    for d in range(1, len(labels) + 1):
        dims = data.simple_dims(n, d)
        total = sum(m * dims[mu] for mu, m in factors.items())
        if total != u_lambda_dim(shape, d):
            raise DecompositionDataError(
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
            raise DecompositionDataError(
                f"weight system is not unit lower triangular at {beta}"
            )
        solution[beta] = rhs[beta] - sum(
            row.get(mu, 0) * solution[mu] for mu in labels[:i]
        )
    return solution


def nabla_filtration_feasible(
    factors: dict[Partition, int], data: DecompositionData
) -> bool:
    """Whether the multiset of simple labels splits into whole dual-Weyl
    factor multisets. Bounded exhaustive search; trivially true for the
    empty multiset."""
    remaining = {mu: m for mu, m in factors.items() if m}
    if not remaining:
        return True
    n = next(iter(remaining)).n
    candidates = [(mu, data.row(mu)) for mu in partitions_of(n)]

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


@lru_cache(maxsize=1)
def load_default_data() -> DecompositionData:
    return DecompositionData.load()


def _eval_poly(coeffs: tuple[Fraction, ...], d: int) -> int:
    value = Fraction(0)
    for c in coeffs:
        value = value * d + c
    value *= d
    if value.denominator != 1:
        raise InvariantError(f"dimension polynomial {coeffs} is {value} at d={d}")
    return int(value)
