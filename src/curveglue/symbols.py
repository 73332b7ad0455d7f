"""The graded symbol algebra of the glued space.

A degree-k symbol is the class of an admissible order-k pair modulo pairs of
order k-1; concretely, the pair of top coefficients (a_k, b_k).  Membership
at degree k is the projection of the order-k admissibility conditions onto
the top-coefficient jets, which has a closed form in k and the contact order
- so a coefficient pair can be legal at one degree and illegal at another.

The product multiplies componentwise (composition of representatives); the
Poisson bracket is the top coefficient of the commutator,
l*a_s*a_t' - n*a_t*a_s' branchwise for degrees l and n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import OrderError, SymbolConditionError
from .glued import SpaceSpec, same_space
from .operators import (
    AdmissibilityReport,
    BranchOp,
    ConditionSet,
    PairedOp,
    _prime_name,
    pair_commutator,
)
from .poly import ZERO, Poly


class SymbolVar(NamedTuple):
    """The unknown a^(r)(0) or b^(r)(0) of a top coefficient."""

    branch: str
    r: int

    @property
    def name(self) -> str:
        return _prime_name(self.branch, self.r)


@lru_cache(maxsize=None)
def symbol_conditions(m: int, degree: int) -> ConditionSet:
    """Degree stratum of the admissibility conditions, in closed form: the
    diagonal rows force b^(r)(0) = a^(r)(0), and a_k^(r)(0) is cut out alone
    exactly when its weight block w = k - r has full rank, with its
    min(m + 1, w) branch rows at least its r + 1 unknowns: when 2r < k."""
    if degree < 0:
        raise OrderError("operator order must be nonnegative")
    one, rows = Fraction(1), []
    for r in range(m, -1, -1):
        b = 2 * (m - r)  # the column of b^(r); a^(r) follows it
        rows += [{b: one}, {b + 1: one}] if 2 * r < degree else [{b: one, b + 1: -one}]
    variables = tuple(SymbolVar(branch, r) for r in range(m, -1, -1) for branch in "ba")
    return ConditionSet(SpaceSpec(m), degree, variables, tuple(rows))


class SymbolElem(NamedTuple):
    """Graded symbol: a degree and the pair of leading coefficients.

    The degree is structural data, not inferable from the coefficients;
    validity is checked by :func:`check_symbol_conditions`."""

    degree: int
    a: Poly
    b: Poly
    space: SpaceSpec

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero

    def __str__(self) -> str:
        from .dsl import render_symbol

        return render_symbol(self)


def check_symbol_conditions(s: SymbolElem) -> AdmissibilityReport:
    """Evaluate the degree stratum on the actual coefficient jets."""
    conditions = symbol_conditions(s.space.m, s.degree)
    top = {"a": s.a, "b": s.b}
    values = {v: top[v.branch].deriv_at_zero(v.r) for v in conditions.variables}
    return AdmissibilityReport(s.space, s.degree, conditions.violations(values))


def make_symbol(degree: int, a: Poly, b: Poly, space: SpaceSpec) -> SymbolElem:
    if degree < 0:
        raise OrderError("symbol degree must be nonnegative")
    s = SymbolElem(degree, a, b, space)
    _require_valid(s)
    return s


def zero_symbol(degree: int, space: SpaceSpec) -> SymbolElem:
    return SymbolElem(degree, ZERO, ZERO, space)


def _require_valid(s: SymbolElem) -> None:
    report = check_symbol_conditions(s)
    if not report.ok:
        raise SymbolConditionError(report)


def take_symbol(op: BranchOp, k: int) -> Poly:
    """Top coefficient of an operator viewed at order k."""
    if op.order > k:
        raise OrderError(f"operator order {op.order} exceeds symbol degree {k}")
    return op.coeff(k)


def pair_symbol(op: PairedOp) -> SymbolElem:
    """The symbol of an admissible pair at its declared order; validity is a
    consequence of admissibility."""
    return make_symbol(
        op.order,
        take_symbol(op.d1, op.order),
        take_symbol(op.d2, op.order),
        op.space,
    )


def symbol_add(s: SymbolElem, t: SymbolElem) -> SymbolElem:
    same_space(s, t)
    if s.degree != t.degree:
        raise OrderError("can only add symbols of equal degree")
    return SymbolElem(s.degree, s.a + t.a, s.b + t.b, s.space)


def symbol_scale(s: SymbolElem, c) -> SymbolElem:
    return SymbolElem(s.degree, s.a * c, s.b * c, s.space)


def symbol_mul(s: SymbolElem, t: SymbolElem) -> SymbolElem:
    """Graded product: degrees add, coefficients multiply componentwise."""
    same_space(s, t)
    _require_valid(s)
    _require_valid(t)
    return make_symbol(s.degree + t.degree, s.a * t.a, s.b * t.b, s.space)


def poisson_bracket(s: SymbolElem, t: SymbolElem) -> SymbolElem:
    """Bracket of degrees l, n at degree l+n-1 via the leading-coefficient
    formula; {deg 0, deg 0} is the zero symbol at degree 0."""
    same_space(s, t)
    _require_valid(s)
    _require_valid(t)
    l, n = s.degree, t.degree
    if l + n == 0:
        return zero_symbol(0, s.space)
    a = l * s.a * t.a.derive() - n * t.a * s.a.derive()
    b = l * s.b * t.b.derive() - n * t.b * s.b.derive()
    return make_symbol(l + n - 1, a, b, s.space)


def bracket_via_commutator(op_a: PairedOp, op_b: PairedOp) -> SymbolElem:
    """Independent route to the bracket: commute the operator pairs and take
    the symbol at degree l+n-1.  Must agree with :func:`poisson_bracket` of
    the two symbols."""
    if op_a.order + op_b.order == 0:
        return zero_symbol(0, op_a.space)
    return pair_symbol(pair_commutator(op_a, op_b))
