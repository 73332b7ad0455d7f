"""The glued function algebra on two curves with contact of order m.

An element is a pair of branch polynomials (f, g) whose m-jets at 0 agree;
this is the pullback of the two branch algebras over the truncated ring of
m-jets.  The module also realizes the correspondence between such pairs and
polynomials on the ambient plane restricted to the glued curves: extension
via F(x, y) = f(x) + y*(g(x) - f(x))/h(x) and restriction via substitution
of y = 0 and y = h(x).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import EmbeddingError, JetMismatch, SpaceMismatch
from .poly import Poly, Poly2, _poly

if TYPE_CHECKING:  # annotations only: the caller passes the generator
    import random


class SpaceSpec(NamedTuple("SpaceSpec", [("m", int)])):
    """Two curves glued with contact of order m; m = 0 is the coordinate cross."""

    __slots__ = ()

    def __new__(cls, m: int):
        if type(m) is not int:
            raise TypeError(f"contact order must be an int, not {type(m).__name__}")
        if m < 0:
            raise ValueError("contact order must be nonnegative")
        return super().__new__(cls, m)

    @classmethod
    def _make(cls, iterable) -> "SpaceSpec":
        # _replace builds through _make, so both check m here.
        return cls(*iterable)

    def __str__(self) -> str:
        return f"K{self.m}"


def same_space(a, b) -> None:
    """Raise SpaceMismatch unless a and b (anything with a ``space``) agree."""
    if a.space != b.space:
        raise SpaceMismatch(f"spaces differ: {a.space} vs {b.space}")


def canonical_embedding(space: SpaceSpec) -> Poly:
    """The default embedding profile h(x) = x**(m+1)."""
    return Poly.monomial(space.m + 1)


class GluedFunction(NamedTuple):
    """Pair (f, g) of branch polynomials with matching m-jets at 0.

    Construct through :func:`make_glued`, which enforces the jet condition;
    the arithmetic here preserves it automatically.
    """

    f: Poly
    g: Poly
    space: SpaceSpec

    def __add__(self, other: "GluedFunction") -> "GluedFunction":
        same_space(self, other)
        return GluedFunction(self.f + other.f, self.g + other.g, self.space)

    def __sub__(self, other: "GluedFunction") -> "GluedFunction":
        same_space(self, other)
        return GluedFunction(self.f - other.f, self.g - other.g, self.space)

    def __mul__(self, other: "GluedFunction") -> "GluedFunction":
        same_space(self, other)
        return GluedFunction(self.f * other.f, self.g * other.g, self.space)

    def __str__(self) -> str:
        from .dsl import render_glued

        return render_glued(self)


def make_glued(f: Poly, g: Poly, space: SpaceSpec) -> GluedFunction:
    """Build a glued function, verifying the defining jet condition."""
    m = space.m
    if f.jet(m) != g.jet(m):
        n = next(n for n in range(m + 1) if f.coeff(n) != g.coeff(n))
        raise JetMismatch(n, f.coeff(n), g.coeff(n))
    return GluedFunction(f, g, space)


def _check_embedding(h: Poly, space: SpaceSpec) -> None:
    if h.order_of_zero() != space.m + 1:
        raise EmbeddingError(
            f"embedding profile must have a zero of exact order {space.m + 1} at 0, "
            f"got order {h.order_of_zero()}"
        )


def extend_to_plane(u: GluedFunction, h: Poly | None = None) -> Poly2:
    """Extend (f, g) to the plane: F(x, y) = f + y*(g - f)/h.

    With the canonical h = x**(m+1) the division is exact for every glued
    function; with a custom profile a nonzero remainder is reported as an
    :class:`~curveglue.errors.ExactDivisionError`.
    """
    if h is None:
        h = canonical_embedding(u.space)
    _check_embedding(h, u.space)
    slope = (u.g - u.f).divide_exact(h)
    return Poly2.of(u.f, slope)


def restrict_to_branches(F: Poly2, h: Poly | None, space: SpaceSpec) -> GluedFunction:
    """Restrict a plane polynomial to the glued curves y = 0 and y = h(x),
    with the canonical profile when h is None.

    The result always satisfies the jet condition: the difference of the two
    restrictions is a multiple of h, hence of x**(m+1).
    """
    if h is None:
        h = canonical_embedding(space)
    _check_embedding(h, space)
    return make_glued(F.at_y_zero(), F.substitute_y(h), space)


def random_poly(rng: random.Random, max_degree: int = 4) -> Poly:
    """Coefficients n/d, n drawn in [-4, 4] and then d in [1, 3], over their
    common denominator 6 = lcm(1, 2, 3)."""
    terms = range(rng.randint(0, max_degree) + 1)
    return _poly([rng.randint(-4, 4) * (6 // rng.randint(1, 3)) for _ in terms], 6)


def with_random_tail(head: Poly, m: int, rng: random.Random, max_degree: int) -> Poly:
    """A prescribed m-jet plus random terms from x**(m+1) up to max_degree
    (a random constant times x**(m+1) when max_degree <= m), so the degree
    is at most max(max_degree, m + 1)."""
    return head + random_poly(rng, max(max_degree - m - 1, 0)).shift(m + 1)


def random_glued(space: SpaceSpec, rng: random.Random, max_degree: int = 4) -> GluedFunction:
    """Random pair with matching m-jets: shared low part + independent tails.

    f has degree at most max_degree, g at most max(max_degree, m + 1)."""
    f = random_poly(rng, max_degree)
    return GluedFunction(f, with_random_tail(f.jet(space.m), space.m, rng, max_degree), space)
