"""Differential operators on the branches and admissible pairs on the glued
algebra.

A branch operator is a polynomial-coefficient operator sum a_i(x) d^i/dx^i.
A pair (D1, D2) acts on the glued algebra exactly when, for every glued
function (f, g) and every derivative order i <= m, the i-th derivatives of
D1 f and D2 g agree at 0.  That requirement is linear in the coefficient
jets a_s^(r)(0), b_s^(r)(0) with s <= k, r <= m, so it is captured by a
finite linear system:

* :func:`generate_conditions` row-reduces the defining equation on branch a
  over the rationals and mirrors it to branch b - the ground truth;
* :func:`probe_admissible` is the independent brute-force oracle: it applies
  the operators to a spanning family of glued pairs and compares output jets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import NamedTuple

from .errors import AdmissibilityError, ClosureBugError, DegreeCapExceeded, OrderError
from .glued import GluedFunction, SpaceSpec, make_glued, same_space
from .poly import NEG_INF, ZERO, Poly, _poly, _trim, get_degree_cap, signed_sum

# ---------------------------------------------------------------------------
# Branch operators


class BranchOp(NamedTuple):
    """Operator sum a_i(x) d^i on one branch; ``coeffs[i]`` is a_i.

    The top coefficient is nonzero (zero operator = empty tuple)."""

    coeffs: tuple[Poly, ...]

    @staticmethod
    def of(*coeffs: Poly) -> "BranchOp":
        return BranchOp(_trim(coeffs))

    @staticmethod
    def derivative(coefficient: Poly | None = None, power: int = 1) -> "BranchOp":
        """coefficient * d^power (coefficient defaults to 1)."""
        c = coefficient if coefficient is not None else Poly.of(1)
        return BranchOp.of(*([ZERO] * power + [c]))

    @property
    def order(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Poly:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else ZERO

    def __add__(self, other: "BranchOp") -> "BranchOp":
        n = max(len(self.coeffs), len(other.coeffs))
        return BranchOp.of(*(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __neg__(self) -> "BranchOp":
        return BranchOp(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "BranchOp") -> "BranchOp":
        return self + (-other)

    def apply(self, p: Poly) -> Poly:
        result = ZERO
        deriv = p
        for i, a in enumerate(self.coeffs):
            if i:
                deriv = deriv.derive()
            if not a.is_zero:
                result = result + a * deriv
        return result

    def __str__(self) -> str:
        from .dsl import render_op

        return render_op(self)


def _nums(op: BranchOp) -> tuple[list[list[int]], int]:
    """The numerators of op's coefficients over one common denominator."""
    den = math.lcm(*(a.den for a in op.coeffs))
    return [[c * (den // a.den) for c in a.nums] for a in op.coeffs], den


def _leibniz(a: list[list[int]], b: list[list[int]], first: int) -> list[list[int]]:
    """The terms r >= first of a_i d^i (b_j d^j .) = sum_r C(i,r) a_i b_j^(r) d^(i-r+j).

    The operators are integer numerator arrays: ``a[i]`` holds those of a_i
    over one common denominator, ``b[j]`` those of b_j over another, and the
    result is over their product.  Arrays, and the lists of them, carry no
    trailing zero, so lengths are true degrees plus one.

    Each b_j's nonzero derivatives up to the order of a are taken once.
    :class:`DegreeCapExceeded` is raised for the first product above the cap
    in the order i, j, r ascending."""
    cap = get_degree_cap()
    chains = []
    for bj in b:
        chain = [bj] if bj else []
        while chain and len(chain) < len(a) and (bj := [c * t for t, c in enumerate(bj) if t]):
            chain.append(bj)
        chains.append(chain)
    out: list[list[int]] = [[] for _ in range(len(a) + len(b) - 1 - first)]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, chain in enumerate(chains):
            for r in range(first, min(i + 1, len(chain))):
                br = chain[r]
                degree = len(br) + len(ai) - 2
                if degree > cap:
                    raise DegreeCapExceeded(degree, cap)
                scale = math.comb(i, r)
                target = out[i - r + j]
                target.extend([0] * (degree + 1 - len(target)))
                for s, c in enumerate(br):
                    if c:
                        c *= scale
                        for t, x in enumerate(ai, s):
                            target[t] += c * x
    for target in out:
        while target and not target[-1]:
            target.pop()
    while out and not out[-1]:
        out.pop()
    return out


def compose(op_a: BranchOp, op_b: BranchOp) -> BranchOp:
    """Operator composition: apply op_b first, then op_a."""
    (a, da), (b, db) = _nums(op_a), _nums(op_b)
    return BranchOp.of(*(_poly(c, da * db) for c in _leibniz(a, b, 0)))


def commutator(op_a: BranchOp, op_b: BranchOp) -> BranchOp:
    """[op_a, op_b] = op_a op_b - op_b op_a.  The r = 0 terms of the two
    compositions, a_i b_j d^(i+j), cancel, so they are never formed."""
    (a, da), (b, db) = _nums(op_a), _nums(op_b)
    pairs = zip_longest(_leibniz(a, b, 1), _leibniz(b, a, 1), fillvalue=())
    return BranchOp.of(
        *(_poly([x - y for x, y in zip_longest(p, q, fillvalue=0)], da * db) for p, q in pairs)
    )


def delta_reduce(op: BranchOp, a: Poly) -> BranchOp:
    """The order-lowering map: commutator of op with multiplication by a.

    Multiplication by a has order 0, so the terms r >= 1 of a op are empty
    and only those of op a remain."""
    nums, den = _nums(op)
    return BranchOp.of(*(_poly(c, den * a.den) for c in _leibniz(nums, [a.nums], 1)))


def verify_order(op: BranchOp, k: int, probe_degree: int) -> bool:
    """Check order <= k via vanishing of all (k+1)-fold delta chains.

    Chains run over multisets of monomial exponents 1..probe_degree
    (delta by a constant is identically zero, so exponent 0 adds nothing).
    The multisets are walked depth-first in non-decreasing order, so chains
    with a common prefix reduce that prefix once.  The coefficients are put
    over one common denominator once; each step is then :func:`_leibniz` by
    x^n on their integer numerators, which keeps that denominator."""
    if k < 0:
        return op.is_zero

    def vanishes(reduced: list[list[int]], steps: int, lowest: int) -> bool:
        # Every chain of ``steps`` more deltas with exponents >= lowest.
        if not reduced:
            return True
        if not steps:
            return False
        return all(
            vanishes(_leibniz(reduced, [[0] * n + [1]], 1), steps - 1, n)
            for n in range(lowest, probe_degree + 1)
        )

    return vanishes(_nums(op)[0], k + 1, 1)


# ---------------------------------------------------------------------------
# Jet-condition generation


def _prime_name(stem: str, r: int) -> str:
    """The r-th derivative at 0 in prime notation: a1''(0), b^(4)(0)."""
    primes = "'" * r if r <= 3 else f"^({r})"
    return f"{stem}{primes}(0)"


class JetVar(NamedTuple):
    """The unknown a_s^(r)(0) (branch 'a') or b_s^(r)(0) (branch 'b')."""

    branch: str
    s: int
    r: int

    @property
    def name(self) -> str:
        return _prime_name(f"{self.branch}{self.s}", self.r)


def _variables(m: int, k: int) -> tuple[JetVar, ...]:
    # Pivot priority: higher coefficient index first, higher derivative
    # first, branch b before a - so reduced rows read like hand-written
    # tables (e.g. "a2'(0) + a1(0) = 0", "b0(0) - a0(0) = 0").
    out = []
    for s in range(k, -1, -1):
        for r in range(m, -1, -1):
            out.append(JetVar("b", s, r))
            out.append(JetVar("a", s, r))
    return tuple(out)


def rref(rows) -> list[dict[int, Fraction]]:
    """Reduced row-echelon form over the rationals of sparse rows, each a
    ``{column: value}`` dict; zero rows dropped, the sparse pivot rows
    returned in order of pivot column.

    Each returned row holds only nonzero entries, its columns in increasing
    order: the pivot, equal to 1, comes first.  Readers rely on this order
    and do not sort again.

    Each row is reduced against the pivot rows found so far, normalised at
    its leading column and back-substituted into the earlier pivot rows.
    Pivot rows stay zero left of their pivot and at every other pivot column,
    so the result is the unique reduced form of the row space."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        for col in [c for c in row if c in pivots]:
            _subtract(row, row[col], pivots[col])
        if not row:
            continue
        lead = min(row)
        inv = Fraction(1, row[lead])
        row = {c: v * inv for c, v in row.items()}
        for other in pivots.values():
            if lead in other:
                _subtract(other, other[lead], row)
        pivots[lead] = row
    return [dict(sorted(pivots[lead].items())) for lead in sorted(pivots)]


def _subtract(row: dict, factor, pivot: dict) -> None:
    """row -= factor * pivot, dropping entries that cancel."""
    for c, v in pivot.items():
        value = row.get(c, 0) - factor * v
        if value:
            row[c] = value
        else:
            del row[c]


def render_linear(row: dict[int, Fraction], variables) -> str:
    """Render a sparse constraint row, columns in increasing order, as '... = 0'."""
    return signed_sum((c, variables[col].name) for col, c in row.items()) + " = 0"


class Violation(NamedTuple):
    """A constraint row that evaluates to ``lhs`` instead of 0."""

    constraint: str
    lhs: Fraction


class ConditionSet(NamedTuple):
    """Reduced linear system on the coefficient jets at 0 that is equivalent
    to admissibility at order k on the given space.

    ``sparse_rows`` are its pivot rows in reduced row-echelon form, as
    :func:`rref` returns them: ``{column: value}`` dicts over ``variables``
    with their columns in increasing order, in order of pivot column.  They
    are the only stored form and are shared through the condition caches, so
    callers must not mutate them."""

    space: SpaceSpec
    order: int
    variables: tuple[JetVar, ...]
    sparse_rows: tuple[dict[int, Fraction], ...]

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The same rows as dense tuples, built anew on each call."""
        zero = (Fraction(0),) * len(self.variables)
        out = []
        for row in self.sparse_rows:
            dense = list(zero)
            for c, v in row.items():
                dense[c] = v
            out.append(tuple(dense))
        return tuple(out)

    @property
    def rendered(self) -> tuple[str, ...]:
        return tuple(render_linear(row, self.variables) for row in self.sparse_rows)

    def violations(self, values) -> tuple[Violation, ...]:
        """The rows the given unknown values fail; only these are rendered."""
        out = []
        for row in self.sparse_rows:
            lhs = sum((c * values[self.variables[col]] for col, c in row.items()), Fraction(0))
            if lhs:
                out.append(Violation(render_linear(row, self.variables), lhs))
        return tuple(out)


def spanning_family(space: SpaceSpec, max_diag: int, max_branch: int):
    """Glued pairs spanning all pairs with matching m-jets up to the given
    degrees: diagonal monomials plus branch-supported monomials of degree
    above the contact order."""
    m = space.m
    for n in range(max_diag + 1):
        p = Poly.monomial(n)
        yield p, p
    for n in range(m + 1, max_branch + 1):
        p = Poly.monomial(n)
        yield p, ZERO
        yield ZERO, p


@lru_cache(maxsize=None)
def _generate(m: int, k: int) -> ConditionSet:
    """The reduced system, from one elimination on branch a.

    The diagonal pairs f = g = x^n force b_s^(r)(0) = a_s^(r)(0) (at each
    weight s - r their rows are a unit triangular Pascal system on a - b), so
    only the rows (D1 x^n)^(i)(0) = 0, m < n <= k+m, i <= m, are reduced:
    (D f)^(i)(0) = sum_s sum_{r<=i} C(i,r) a_s^(r)(0) f^(s+i-r)(0), so each
    meets only a_(n-i+r)^(r), with value C(i,r) n! (n! dropped here).  The
    result is mirrored to b, whose column is just before a's: a pivot
    a_s^(r) gives the b_s^(r) row (its a row, pivot moved to b), then the a
    row; a free a_s^(r) gives b_s^(r)(0) - a_s^(r)(0) = 0."""
    variables = _variables(m, k)
    column = {v: c for c, v in enumerate(variables)}
    rows = (
        {column[JetVar("a", n - i + r, r)]: math.comb(i, r) for r in range(min(i, k + i - n) + 1)}
        for n in range(m + 1, k + m + 1)
        for i in range(m + 1)
    )
    pivots = {min(row): row for row in rref(rows)}
    out = []
    for c in range(1, len(variables), 2):
        if c in pivots:
            row = pivots[c]
            out.append({c - 1: row[c], **{j: v for j, v in row.items() if j != c}})
            out.append(row)
        else:
            out.append({c - 1: Fraction(1), c: Fraction(-1)})
    return ConditionSet(SpaceSpec(m), k, variables, tuple(out))


def generate_conditions(space: SpaceSpec, k: int) -> ConditionSet:
    """The reduced linear system equivalent to admissibility at order k."""
    if k < 0:
        raise OrderError("operator order must be nonnegative")
    return _generate(space.m, k)


# ---------------------------------------------------------------------------
# Admissibility checks


class AdmissibilityReport(NamedTuple):
    space: SpaceSpec
    order: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_admissible(d1: BranchOp, d2: BranchOp, space: SpaceSpec, k: int) -> AdmissibilityReport:
    """Evaluate the generated conditions on the actual coefficient jets."""
    if d1.order > k or d2.order > k:
        raise OrderError(f"branch orders exceed the declared order {k}")
    conditions = generate_conditions(space, k)
    ops = {"a": d1, "b": d2}
    values = {v: ops[v.branch].coeff(v.s).deriv_at_zero(v.r) for v in conditions.variables}
    return AdmissibilityReport(space, k, conditions.violations(values))


def probe_admissible(d1: BranchOp, d2: BranchOp, space: SpaceSpec, probe_degree: int) -> bool:
    """Brute-force oracle: apply both operators to the spanning family and
    compare output m-jets at 0.  Independent of the generated conditions."""
    m = space.m
    for f, g in spanning_family(space, max_diag=probe_degree, max_branch=probe_degree):
        if d1.apply(f).jet(m) != d2.apply(g).jet(m):
            return False
    return True


def default_probe_degree(space: SpaceSpec, k: int) -> int:
    # (D f)^(i)(0), i <= m, sees f-jets only up to k + m; +2 is margin.
    return k + space.m + 2


# ---------------------------------------------------------------------------
# Admissible pairs


class PairedOp(NamedTuple):
    """Admissible pair (D1, D2) of order k; build through :func:`make_pair`."""

    d1: BranchOp
    d2: BranchOp
    space: SpaceSpec
    order: int

    def __str__(self) -> str:
        from .dsl import render_paired

        return render_paired(self)


def make_pair(d1: BranchOp, d2: BranchOp, space: SpaceSpec, order: int | None = None) -> PairedOp:
    if order is None:
        order = max(d1.order, d2.order, 0)
    report = check_admissible(d1, d2, space, order)
    if not report.ok:
        raise AdmissibilityError(report)
    return PairedOp(d1, d2, space, order)


def pair_apply(op: PairedOp, u: GluedFunction) -> GluedFunction:
    same_space(op, u)
    # Admissibility is exactly the statement that this stays glued.
    return make_glued(op.d1.apply(u.f), op.d2.apply(u.g), op.space)


def _closed_pair(d1: BranchOp, d2: BranchOp, space: SpaceSpec, order: int, what: str) -> PairedOp:
    report = check_admissible(d1, d2, space, order)
    if not report.ok:
        raise ClosureBugError(
            f"{what} of admissible pairs failed the admissibility check at "
            f"order {order}; this contradicts the closure theorem and "
            f"indicates an internal bug: "
            + "; ".join(v.constraint for v in report.violations)
        )
    return PairedOp(d1, d2, space, order)


def pair_compose(op_a: PairedOp, op_b: PairedOp) -> PairedOp:
    same_space(op_a, op_b)
    return _closed_pair(
        compose(op_a.d1, op_b.d1),
        compose(op_a.d2, op_b.d2),
        op_a.space,
        op_a.order + op_b.order,
        "composition",
    )


def pair_commutator(op_a: PairedOp, op_b: PairedOp) -> PairedOp:
    same_space(op_a, op_b)
    order = max(op_a.order + op_b.order - 1, 0)
    return _closed_pair(
        commutator(op_a.d1, op_b.d1),
        commutator(op_a.d2, op_b.d2),
        op_a.space,
        order,
        "commutator",
    )
