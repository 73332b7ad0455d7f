"""Desk-scale spectrum computations for the glued algebra and its symbols.

Points of the glued space are evaluation characters: evaluation at a branch
point, with the two branch origins identified as the single singular point.
Distinct points are certified by separating witnesses; the identities behind
the vanishing of symbol characters at the singular point (square and cube
factorizations through a degree-0 element vanishing there) are verified
constructively.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import OrderError, UnsupportedSpaceError
from .glued import GluedFunction, SpaceSpec, make_glued, random_glued
from .operators import spanning_family
from .poly import Poly, frac
from .symbols import SymbolElem, check_symbol_conditions, make_symbol, symbol_mul

SINGULAR = "sing"


@dataclass(frozen=True)
class Character:
    """Evaluation character: a point of the glued space.

    branch is 1, 2 or "sing"; base_point is 0 exactly when singular.
    Construct through :func:`make_character`, which canonicalizes the two
    branch origins to the singular point."""

    branch: object
    base_point: Fraction

    def __str__(self) -> str:
        from .dsl import render_char

        return render_char(self)


def make_character(branch, base_point) -> Character:
    t = frac(base_point)
    if branch == SINGULAR:
        if t != 0:
            raise ValueError("the singular character sits at base point 0")
        return Character(SINGULAR, Fraction(0))
    if branch not in (1, 2):
        raise ValueError("branch must be 1, 2 or 'sing'")
    if t == 0:
        return Character(SINGULAR, Fraction(0))
    return Character(branch, t)


def char_eval(c: Character, u: GluedFunction) -> Fraction:
    """Evaluate the glued function at the point c."""
    if c.branch == SINGULAR:
        return u.f(0)
    return u.f(c.base_point) if c.branch == 1 else u.g(c.base_point)


def probe_homomorphism(
    fn: Callable[[GluedFunction], Fraction],
    space: SpaceSpec,
    samples: int,
    seed: int = 0,
) -> bool:
    """Test additivity, multiplicativity and unitality of a functional on
    random glued pairs.  Evaluation characters always pass; the harness is
    also usable against hypothetical non-characters."""
    rng = random.Random(seed)
    one = make_glued(Poly.of(1), Poly.of(1), space)
    if fn(one) != 1:
        return False
    for _ in range(samples):
        u = random_glued(space, rng)
        v = random_glued(space, rng)
        if fn(u + v) != fn(u) + fn(v):
            return False
        if fn(u * v) != fn(u) * fn(v):
            return False
    return True


def char_is_homomorphism(c: Character, space: SpaceSpec, samples: int, seed: int = 0) -> bool:
    return probe_homomorphism(lambda u: char_eval(c, u), space, samples, seed)


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
    """On the coordinate cross, factor s*s = g*t with g the degree-0 element
    (x, y), which vanishes at the singular point.

    Requires degree >= 1, so both coefficients vanish at 0: writing
    a = x*alpha, b = y*beta gives t = (x*alpha^2, y*beta^2) at degree 2k.
    Consequently any symbol character extending evaluation at the singular
    point kills s: H(s)^2 = H(g)H(t) = 0."""
    if s.space.m != 0:
        raise UnsupportedSpaceError("factorization is stated on the coordinate cross")
    if s.degree < 1:
        raise OrderError("factorization needs degree >= 1")
    report = check_symbol_conditions(s)
    if not report.ok:
        raise OrderError("input is not a valid symbol at its degree")
    x = Poly.monomial(1)
    g = make_symbol(0, x, x, s.space)
    alpha = s.a.divide_exact(x)
    beta = s.b.divide_exact(x)
    t = SymbolElem(2 * s.degree, x * alpha * alpha, x * beta * beta, s.space)
    return g, t


@dataclass(frozen=True)
class IdentityCheck:
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
        g, t = maximal_ideal_factor(s)
        square = symbol_mul(s, s)
        product = symbol_mul(g, t)
        ok = (
            square.a == product.a
            and square.b == product.b
            and square.degree == s.degree * 2
            and g.a(0) == 0
            and g.b(0) == 0
        )
        checks.append(
            IdentityCheck(
                f"square factorization, degree {s.degree}",
                ok,
                "s*s = g*t with g = (x, y) of degree 0 vanishing at the singular point",
            )
        )
    return tuple(checks)


def _nullity_contact_one(space: SpaceSpec) -> tuple[IdentityCheck, ...]:
    checks = []
    x = Poly.monomial(1)
    x2, x3 = Poly.monomial(2), Poly.monomial(3)
    lin = make_symbol(1, x, x, space)
    cube = symbol_mul(symbol_mul(lin, lin), lin)
    checks.append(
        IdentityCheck(
            "cube identity",
            cube.a == x3 and cube.b == x3 and cube.degree == 3,
            "(x, y) at degree 1 cubes to (x^3, y^3) at degree 3",
        )
    )
    g = make_symbol(0, x, x, space)
    t = make_symbol(3, x2, x2, space)
    product = symbol_mul(g, t)
    checks.append(
        IdentityCheck(
            "cube factorization",
            product.a == cube.a and product.b == cube.b and g.a(0) == 0 and g.b(0) == 0,
            "(x^3, y^3) at degree 3 = (x, y)_0 * (x^2, y^2)_3 with the degree-0 "
            "factor vanishing at the singular point",
        )
    )
    return tuple(checks)
