"""Decomposition data for characteristic 2 at degrees up to 5, simple-module
dimensions, composition factors of the surjection kernel, and the
filtration feasibility search.

The multiplicity table ships as a data file and is never trusted blindly:
loading fails unless unitriangularity, nonnegativity of the derived simple
dimensions, and the known dimension polynomials at degree 5 all hold.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .partitions import (
    InvariantError,
    Partition,
    dominates,
    hook_content_dim,
    parse_partition,
    partitions_of,
)
from .quotients import _kernel_dims, u_lambda_dim
from .tableaux import kostka_numbers

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


_PAIR_RE = re.compile(r"([\d,^]+)\s*:\s*(\d+)")


@dataclass
class DecompositionData:
    """Rows mu -> {nu: multiplicity of the nu-simple in the mu dual Weyl}."""

    rows: dict[Partition, dict[Partition, int]]

    def __post_init__(self):
        self._dim_cache: dict[tuple[Partition, int], int] = {}
        self._weight_counts: dict[Partition, dict[Partition, int]] = {}

    @classmethod
    def load(cls, path: Path | str | None = None) -> "DecompositionData":
        path = Path(path) if path is not None else default_data_path()
        rows: dict[Partition, dict[Partition, int]] = {}
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                mu_text, rest = line.split(";", 1)
            except ValueError:
                raise DecompositionDataError(f"missing ';' in line {line!r}")
            mu = parse_partition(mu_text)
            entries: dict[Partition, int] = {}
            for m in _PAIR_RE.finditer(rest):
                entries[parse_partition(m.group(1))] = int(m.group(2))
            if not entries:
                raise DecompositionDataError(f"no entries in line {line!r}")
            if mu in rows:
                raise DecompositionDataError(f"duplicate row for {mu}")
            rows[mu] = entries
        data = cls(rows)
        data.validate()
        return data

    def degrees(self) -> list[int]:
        return sorted({mu.n for mu in self.rows})

    def row(self, mu: Partition) -> dict[Partition, int]:
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
        for mu in self.rows:
            for d in _VALIDATION_D_RANGE:
                if self.dim_simple(mu, d) < 0:
                    raise DecompositionDataError(
                        f"derived dimension of {mu} is negative at d={d}"
                    )
        if 5 in self.degrees():
            for mu, coeffs in DEGREE5_DIM_POLYS.items():
                for d in _VALIDATION_D_RANGE:
                    expected = _eval_poly(coeffs, d)
                    if self.dim_simple(mu, d) != expected:
                        raise DecompositionDataError(
                            f"dimension of {mu} at d={d} disagrees with the "
                            f"degree-5 polynomial table"
                        )

    def dim_simple(self, mu: Partition, d: int) -> int:
        """Dimension of the simple module labelled mu over a d-dimensional
        space, by unitriangular inversion against the hook content count."""
        key = (mu, d)
        cached = self._dim_cache.get(key)
        if cached is not None:
            return cached
        value = hook_content_dim(mu, d)
        for nu, mult in self.row(mu).items():
            if nu != mu:
                value -= mult * self.dim_simple(nu, d)
        self._dim_cache[key] = value
        return value

    def simple_character(self, mu: Partition) -> dict[Partition, int]:
        """Coefficients of the mu-simple's character on the Schur basis."""
        out = {mu: 1}
        for nu, mult in self.row(mu).items():
            if nu == mu:
                continue
            for rho, c in self.simple_character(nu).items():
                out[rho] = out.get(rho, 0) - mult * c
        return {rho: c for rho, c in out.items() if c}

    def _kostka_row(self, nu: Partition) -> dict[Partition, int]:
        """Semistandard fillings of nu counted at each dominant weight (the
        weakly decreasing composition representing its class)."""
        cached = self._weight_counts.get(nu)
        if cached is None:
            cached = self._weight_counts[nu] = kostka_numbers(nu)
        return cached

    def simple_weight_multiplicity(self, mu: Partition, beta: Partition) -> int:
        """Multiplicity of the dominant weight beta in the mu-simple."""
        total = 0
        for nu, c in self.simple_character(mu).items():
            total += c * self._kostka_row(nu).get(beta, 0)
        return total


def composition_factors_U(
    shape: Partition, data: DecompositionData
) -> dict[Partition, int]:
    """Multiset of simple labels in the kernel of the surjection onto the
    dual Weyl module.

    Solved from the per-dominant-weight dimensions of the kernel at d = n;
    the weight multiplicities of the simples form a unit lower triangular
    system in `partitions_of` order, solved by forward substitution over
    the integers. The total-dimension equations at d = 1..#partitions(n)
    are checked afterwards.
    """
    n = shape.n
    if n > 5:
        raise ValueError("composition factors are tabulated for n <= 5 only")
    labels = list(partitions_of(n))
    kernel = _kernel_dims(shape, n)
    rhs = {beta: kernel.get(beta, 0) for beta in labels}
    matrix = {
        beta: {mu: data.simple_weight_multiplicity(mu, beta) for mu in labels}
        for beta in labels
    }
    solution = _solve_unitriangular(labels, matrix, rhs)
    factors = {}
    for mu, value in solution.items():
        if value < 0:
            raise DecompositionDataError(
                f"factor solve for {shape} produced {value} at {mu}"
            )
        if value:
            factors[mu] = value
    points = range(1, len(labels) + 1)
    for d in points:
        total = sum(m * data.dim_simple(mu, d) for mu, m in factors.items())
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
        if row[beta] != 1 or any(row[mu] for mu in labels[i + 1:]):
            raise DecompositionDataError(
                f"weight system is not unit lower triangular at {beta}"
            )
        solution[beta] = rhs[beta] - sum(row[mu] * solution[mu] for mu in labels[:i])
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
