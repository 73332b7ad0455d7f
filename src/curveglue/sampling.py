"""Random generators for admissible pairs and valid symbols.

Both sample the solution space of the generated jet-condition systems: free
unknowns get random rationals, pivot unknowns are solved from the reduced
rows, and the prescribed jets are completed with random higher-order terms.
Used by the test suite and handy for experiments.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .glued import SpaceSpec, random_fraction, with_random_tail
from .operators import BranchOp, ConditionSet, JetVar, PairedOp, generate_conditions
from .poly import Poly
from .symbols import SymbolElem, SymbolVar, symbol_conditions


def solve_homogeneous(conditions: ConditionSet, rng: random.Random) -> dict:
    """A random point of the solution space of the reduced system."""
    variables = conditions.variables
    pivots = {min(row): row for row in conditions.sparse_rows}
    values = [None] * len(variables)
    for i in range(len(variables)):
        if i not in pivots:
            values[i] = random_fraction(rng)
    for lead, row in pivots.items():
        values[lead] = -sum((c * values[j] for j, c in row.items() if j != lead), Fraction(0))
    return dict(zip(variables, values))


def _poly_with_jet(jets: list[Fraction], rng: random.Random, max_degree: int) -> Poly:
    """Polynomial with prescribed derivatives at 0 plus a random tail."""
    m = len(jets) - 1
    head = Poly.of(*(jets[r] / math.factorial(r) for r in range(m + 1)))
    return with_random_tail(head, m, rng, max_degree)


def random_admissible_pair(
    space: SpaceSpec, k: int, rng: random.Random, max_degree: int = 4
) -> PairedOp:
    """Random admissible pair of nominal order k with coefficient degrees up
    to max_degree."""
    values = solve_homogeneous(generate_conditions(space, k), rng)
    coeffs = {"a": [], "b": []}
    for s in range(k + 1):
        for branch in "ab":
            jets = [values[JetVar(branch, s, r)] for r in range(space.m + 1)]
            coeffs[branch].append(_poly_with_jet(jets, rng, max_degree))
    return PairedOp(BranchOp.of(*coeffs["a"]), BranchOp.of(*coeffs["b"]), space, k)


def random_symbol(
    space: SpaceSpec, degree: int, rng: random.Random, max_degree: int = 4
) -> SymbolElem:
    """Random valid symbol of the given degree."""
    values = solve_homogeneous(symbol_conditions(space.m, degree), rng)
    m = space.m
    a = _poly_with_jet([values[SymbolVar("a", r)] for r in range(m + 1)], rng, max_degree)
    b = _poly_with_jet([values[SymbolVar("b", r)] for r in range(m + 1)], rng, max_degree)
    return SymbolElem(degree, a, b, space)
