"""Desk-scale spectrum computations for the glued algebra and its symbols.

Points of the glued space are evaluation characters: evaluation at a branch
point, with the two branch origins identified as the single singular point.
Distinct points are certified by separating witnesses.  Symbol characters
extending evaluation at the singular point vanish in positive degree: on
every K_m a symbol s of degree >= 1 has s^(m+2) = g*t with g the degree-0
element (x, y), which vanishes there; the identity is verified
constructively.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import OrderError, UnsupportedSpaceError
from .glued import GluedFunction, SpaceSpec
from .operators import spanning_family
from .poly import Poly, frac
from .symbols import SymbolElem, check_symbol_conditions, make_symbol, symbol_mul

SINGULAR = "sing"


class Character(NamedTuple):
    """Evaluation character: a point of the glued space.

    branch is the int 1 or 2, or "sing"; base_point is 0 exactly when singular.
    Construct through :func:`make_character`, which canonicalizes the two
    branch origins to the singular point."""

    branch: object
    base_point: Fraction

    def __str__(self) -> str:
        from .dsl import render_char

        return render_char(self)


def make_character(branch, base_point) -> Character:
    t = frac(base_point)
    if branch != SINGULAR and (type(branch) is not int or branch not in (1, 2)):
        raise ValueError("branch must be 1, 2 or 'sing'")
    if branch == SINGULAR and t:
        raise ValueError("the singular character sits at base point 0")
    return Character(branch, t) if t else Character(SINGULAR, Fraction(0))


def char_eval(c: Character, u: GluedFunction) -> Fraction:
    """Evaluate the glued function at the point c."""
    if c.branch == SINGULAR:
        return u.f(0)
    return u.f(c.base_point) if c.branch == 1 else u.g(c.base_point)


def separating_witness(
    c1: Character, c2: Character, space: SpaceSpec, max_degree: int
) -> Optional[GluedFunction]:
    """A glued function taking different values at the two points, or None if
    none exists up to the degree bound.  For canonical characters, None
    occurs exactly when the two denote the same point, provided
    max_degree >= m + 1."""
    for f, g in spanning_family(space, max_degree, max_degree):
        u = GluedFunction(f, g, space)
        if char_eval(c1, u) != char_eval(c2, u):
            return u
    return None


def maximal_ideal_factor(s: SymbolElem) -> tuple[SymbolElem, SymbolElem]:
    """On K_m, factor s^(m+2) = g*t with g the degree-0 element (x, y), which
    vanishes at the singular point.

    Requires a valid s of degree >= 1, so both coefficients vanish at 0:
    writing s = (x*alpha, x*beta) and N = m + 2 gives
    t = (x^(m+1)*alpha^N, x^(m+1)*beta^N) at degree N*deg s, valid because
    its m-jets are zero.  Consequently any symbol character extending
    evaluation at the singular point kills s: H(s)^N = H(g)H(t) = 0."""
    if s.degree < 1:
        raise OrderError("factorization needs degree >= 1")
    report = check_symbol_conditions(s)
    if not report.ok:
        raise OrderError("input is not a valid symbol at its degree")
    m, x = s.space.m, Poly.monomial(1)
    g = make_symbol(0, x, x, s.space)
    # Each coefficient c gives x^(m+1) * (c / x)^(m+2).
    a, b = (math.prod([c.divide_exact(x)] * (m + 2), start=x.shift(m)) for c in (s.a, s.b))
    return g, SymbolElem((m + 2) * s.degree, a, b, s.space)


def _factorization_holds(s: SymbolElem) -> bool:
    """s^(m+2) == g*t, degree included, for the factors of
    :func:`maximal_ideal_factor`, and g vanishes at the singular point."""
    g, t = maximal_ideal_factor(s)
    power = s
    for _ in range(s.space.m + 1):
        power = symbol_mul(power, s)
    return power == symbol_mul(g, t) and g.a(0) == g.b(0) == 0


class IdentityCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


def nullity_identity_check(space: SpaceSpec) -> tuple[IdentityCheck, ...]:
    """Verify, exactly, the graded-algebra identities that force symbol
    characters extending evaluation-at-0 to vanish in positive degree."""
    if space.m == 0:
        return _nullity_cross(space)
    if space.m == 1:
        return _nullity_contact_one(space)
    raise UnsupportedSpaceError(f"nullity identities are implemented for K0 and K1, not {space}")


def _nullity_cross(space: SpaceSpec) -> tuple[IdentityCheck, ...]:
    checks = []
    x = Poly.monomial(1)
    samples = [
        make_symbol(1, Poly.of(0, 1), Poly.of(0, -1), space),
        make_symbol(2, Poly.of(0, 2, 1), Poly.of(0, 0, 3), space),
        make_symbol(3, Poly.of(0, 1, 0, "1/2"), Poly.of(0, -1, 1), space),
    ]
    for s in samples:
        # Split off the linear jet: (a, b) = (a'(0)x, b'(0)y) + (x,y)(x*atilde, y*btilde).
        atilde, btilde = s.a.hadamard_split(2)[1], s.b.hadamard_split(2)[1]
        lhs = (s.a, s.b)
        rhs = (x * s.a.coeff(1) + x * (x * atilde), x * s.b.coeff(1) + x * (x * btilde))
        checks.append(
            IdentityCheck(
                f"hadamard decomposition, degree {s.degree}",
                lhs == rhs,
                "(a, b) = (a'(0)x, b'(0)y) + (x, y)*(x*atilde, y*btilde)",
            )
        )
        checks.append(
            IdentityCheck(
                f"square factorization, degree {s.degree}",
                _factorization_holds(s),
                "s*s = g*t with g = (x, y) of degree 0 vanishing at the singular point",
            )
        )
    return tuple(checks)


def _nullity_contact_one(space: SpaceSpec) -> tuple[IdentityCheck, ...]:
    x, x3 = Poly.monomial(1), Poly.monomial(3)
    lin = make_symbol(1, x, x, space)
    cube = symbol_mul(symbol_mul(lin, lin), lin)
    return (
        IdentityCheck(
            "cube identity",
            cube.a == x3 and cube.b == x3 and cube.degree == 3,
            "(x, y) at degree 1 cubes to (x^3, y^3) at degree 3",
        ),
        IdentityCheck(
            "cube factorization",
            _factorization_holds(lin),
            "(x^3, y^3) at degree 3 = (x, y)_0 * (x^2, y^2)_3 with the degree-0 "
            "factor vanishing at the singular point",
        ),
    )
