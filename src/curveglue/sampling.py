"""Random generators for admissible pairs and valid symbols.

Both sample the solution space of the generated jet-condition systems: free
unknowns get random rationals, pivot unknowns are solved from the condition
rows, and the prescribed jets are completed with random higher-order terms.
The point is held as integers by column over one common denominator, the
form the condition check reads, so the solve is one exact integer division
per row.  Used by the test suite and handy for experiments.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .glued import SpaceSpec, with_random_tail
from .operators import BranchOp, ConditionSet, PairedOp, _column, generate_conditions
from .poly import _poly
from .symbols import SymbolElem, symbol_conditions

if TYPE_CHECKING:  # annotations only: the caller passes the generator
    import random


def solve_homogeneous(conditions: ConditionSet, rng: random.Random) -> tuple[list[int], int]:
    """A random point of the solution space of the system: ``values[col] / den``
    by column, with den = 6 lcm(pivots), the form ``violations`` reads.  Each
    free unknown draws n in [-4, 4], then d in [1, 3], in column order, and
    holds n den / d; the rows are reduced, so each pivot is one dot product
    over free values, all multiples of lcm(pivots), divided exactly."""
    rows = conditions.sparse_rows
    pivots = {next(iter(row)) for row in rows}  # the pivot is first
    den = 6 * math.lcm(*(next(iter(row.values())) for row in rows))
    values = [0 if i in pivots else rng.randint(-4, 4) * (den // rng.randint(1, 3))
              for i in range(len(conditions.variables))]
    for row in rows:  # the pivot's own value is still 0 here
        lead, pivot = next(iter(row.items()))
        values[lead] = -sum(c * values[j] for j, c in row.items()) // pivot
    return values, den


def _coefficient_pair(values, den: int, s: int, m: int, k: int, rng: random.Random, max_degree: int):
    """The coefficients (a_s, b_s) whose m-jets are the unknowns ``values[col] / den``
    at their columns of the order-k layout, a drawn before b, each with a random
    tail (degree at most max(max_degree, m + 1)): the inverse of ``_jet_values``."""
    scale = [math.perm(m, m - r) for r in range(m + 1)]  # m!/r!
    pair = []
    for branch in (1, 0):  # a_s^(r)(0) follows b_s^(r)(0)
        head = _poly([values[_column(s, r, m, k) + branch] * scale[r] for r in range(m + 1)], den * scale[0])
        pair.append(with_random_tail(head, m, rng, max_degree))
    return pair


def random_admissible_pair(
    space: SpaceSpec, k: int, rng: random.Random, max_degree: int = 4
) -> PairedOp:
    """Random admissible pair of nominal order k with coefficient degrees up
    to max(max_degree, m + 1): every coefficient gets a tail from x**(m+1)."""
    values, den = solve_homogeneous(generate_conditions(space, k), rng)
    a, b = zip(*(_coefficient_pair(values, den, s, space.m, k, rng, max_degree) for s in range(k + 1)))
    return PairedOp(BranchOp.of(*a), BranchOp.of(*b), space, k)


def random_symbol(
    space: SpaceSpec, degree: int, rng: random.Random, max_degree: int = 4
) -> SymbolElem:
    """Random valid symbol of the given degree: a pair (a, b) read, like an
    order-0 pair, from the order-0 columns the degree stratum uses."""
    values, den = solve_homogeneous(symbol_conditions(space.m, degree), rng)
    a, b = _coefficient_pair(values, den, 0, space.m, 0, rng, max_degree)
    return SymbolElem(degree, a, b, space)
