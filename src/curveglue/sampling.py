"""Random generators for admissible pairs and valid symbols.

Both sample the solution space of the generated jet-condition systems: free
unknowns get random rationals, pivot unknowns are solved from the condition
rows, and the prescribed jets are completed with random higher-order terms.
Used by the test suite and handy for experiments.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .glued import SpaceSpec, random_fraction, with_random_tail
from .operators import BranchOp, ConditionSet, PairedOp, _column, generate_conditions
from .poly import Poly
from .symbols import SymbolElem, symbol_conditions


def solve_homogeneous(conditions: ConditionSet, rng: random.Random) -> list:
    """A random point of the solution space of the system, by column."""
    pivots = {next(iter(row)): row for row in conditions.sparse_rows}  # the pivot is first
    values = [None if i in pivots else random_fraction(rng) for i in range(len(conditions.variables))]
    for lead, row in pivots.items():
        values[lead] = -sum((c * values[j] for j, c in row.items() if j != lead), Fraction(0)) / row[lead]
    return values


def _coefficient_pair(values, s: int, m: int, k: int, rng: random.Random, max_degree: int):
    """The coefficients (a_s, b_s) whose m-jets are the unknowns at their
    columns of the order-k layout, a drawn before b, each with a random tail
    (degree at most max(max_degree, m + 1))."""
    pair = []
    for branch in (1, 0):  # a_s^(r)(0) follows b_s^(r)(0)
        head = Poly.of(*(values[_column(s, r, m, k) + branch] / math.factorial(r) for r in range(m + 1)))
        pair.append(with_random_tail(head, m, rng, max_degree))
    return pair


def random_admissible_pair(
    space: SpaceSpec, k: int, rng: random.Random, max_degree: int = 4
) -> PairedOp:
    """Random admissible pair of nominal order k with coefficient degrees up
    to max(max_degree, m + 1): every coefficient gets a tail from x**(m+1)."""
    values = solve_homogeneous(generate_conditions(space, k), rng)
    a, b = zip(*(_coefficient_pair(values, s, space.m, k, rng, max_degree) for s in range(k + 1)))
    return PairedOp(BranchOp.of(*a), BranchOp.of(*b), space, k)


def random_symbol(
    space: SpaceSpec, degree: int, rng: random.Random, max_degree: int = 4
) -> SymbolElem:
    """Random valid symbol of the given degree: a pair (a, b) read, like an
    order-0 pair, from the order-0 columns the degree stratum uses."""
    values = solve_homogeneous(symbol_conditions(space.m, degree), rng)
    a, b = _coefficient_pair(values, 0, space.m, 0, rng, max_degree)
    return SymbolElem(degree, a, b, space)
