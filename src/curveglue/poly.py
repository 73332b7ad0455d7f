"""Exact polynomial arithmetic over the rationals.

Univariate polynomials with rational coefficients stand in for smooth
functions on a single branch.  Every condition checked by this package is a
finite-jet condition at 0, so polynomials witness all relevant behaviours
exactly; there is no floating point anywhere.  A :class:`Poly` stores integer
numerators over one positive common denominator in lowest terms, so its
arithmetic, its rendering and the DSL parser run on Python ints; ``Fraction``
appears only at the boundary (``coeffs``, ``coeff`` and evaluation), and
``coeffs`` still returns a tuple of ``Fraction``.  An m-jet at 0 is itself a
:class:`Poly`, the truncation ``p.jet(m)``.  A single bivariate type (:class:`Poly2`)
supports the plane-extension/restriction correspondence.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar, Token
from fractions import Fraction
from typing import NamedTuple

from .errors import CurveGlueError, DegreeCapExceeded, ExactDivisionError

NEG_INF = float("-inf")

# A context variable, so each thread and each asyncio task keeps its own cap.
_degree_cap: ContextVar[int] = ContextVar("degree_cap", default=32)


def get_degree_cap() -> int:
    return _degree_cap.get()


def set_degree_cap(cap: int) -> Token:
    """Set the bound on result degrees in the current context (memory
    guard, default 32); the returned token undoes it."""
    if cap < 1:
        raise ValueError("degree cap must be positive")
    return _degree_cap.set(cap)


@contextmanager
def degree_cap(cap: int):
    """Temporarily raise/lower the degree cap."""
    token = set_degree_cap(cap)
    try:
        yield
    finally:
        _degree_cap.reset(token)


def _check_cap(degrees) -> int:
    """The largest of ``degrees``, -1 if there is none.  The first degree
    past the cap raises :class:`DegreeCapExceeded`: the one refusal of the
    cap, which every capped operation calls."""
    cap, top = _degree_cap.get(), -1
    for degree in degrees:
        if degree > cap:
            raise DegreeCapExceeded(degree, cap)
        if degree > top:
            top = degree
    return top


def frac(value) -> Fraction:
    """Coerce ints, strings like '3/2' and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _trim(coeffs):
    """Drop trailing zeros; int and Poly entries are both falsy at zero."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _poly(nums, den: int) -> "Poly":
    """The canonical Poly with value ``nums[i] / den`` at ``x**i`` (den > 0):
    trailing zeros trimmed, then one gcd brings the fraction to lowest terms."""
    nums = _trim(nums)
    if not nums:
        return ZERO
    g = math.gcd(den, *nums) if den != 1 else 1
    if g != 1:
        return Poly(tuple(c // g for c in nums), den // g)
    return Poly(nums, den)


class Poly(NamedTuple):
    """Univariate polynomial; ``coeffs[i] == nums[i] / den`` multiplies ``x**i``.

    The form is canonical: ``den`` is positive, ``gcd(den, *nums)`` is 1 and
    ``nums`` carries no trailing zero, so the zero polynomial is ``Poly((), 1)``
    and ``degree`` is -inf for it.  Equal values therefore have equal fields,
    and the tuple equality and hash of the fields are value equality.
    """

    nums: tuple[int, ...]
    den: int

    @staticmethod
    def of(*coeffs) -> "Poly":
        fracs = [frac(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in fracs])
        return _poly([c.numerator * (den // c.denominator) for c in fracs], den)

    @staticmethod
    def monomial(power: int, coefficient=1) -> "Poly":
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        num, den = (coefficient, 1) if type(coefficient) is int else frac(coefficient).as_integer_ratio()
        if num == 0:
            return ZERO
        return Poly((0,) * power + (num,), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @property
    def degree(self):
        return len(self.nums) - 1 if self.nums else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, n: int) -> Fraction:
        return Fraction(self.nums[n], self.den) if 0 <= n < len(self.nums) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __add__(self, other: "Poly") -> "Poly":
        a, da, b, db = self.nums, self.den, other.nums, other.den
        if da != db:
            den = math.lcm(da, db)
            a = [c * (den // da) for c in a]
            b = [c * (den // db) for c in b]
            da = den
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out, da)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.nums), self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if type(other) is int:
                return _poly([other * c for c in self.nums], self.den)
            c = frac(other)
            return _poly([c.numerator * a for a in self.nums], self.den * c.denominator)
        a, b = self.nums, other.nums
        if not a or not b:
            return ZERO
        deg = _check_cap((len(a) + len(b) - 2,))
        out = [0] * (deg + 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _poly(out, self.den * other.den)

    def __rmul__(self, other):
        return self * other

    def derive(self) -> "Poly":
        """Formal derivative."""
        return _poly([c * i for i, c in enumerate(self.nums) if i], self.den)

    def __call__(self, t) -> Fraction:
        """Value at ``t = p/q``: integer Horner on ``q**d * N(p/q)``, one
        Fraction at the end."""
        t = frac(t)
        p, q = t.numerator, t.denominator
        value, power = 0, 1  # value / power is the Horner partial sum
        for c in reversed(self.nums):
            power *= q
            value = value * p + c * power
        return Fraction(value, self.den * power)

    def jet(self, order: int) -> "Poly":
        """The m-jet at 0: the terms up to ``x**order``, zero for a negative
        order."""
        return _poly(self.nums[:max(order + 1, 0)], self.den)

    def shift(self, r: int) -> "Poly":
        """Multiply by x**r."""
        if r < 0:
            raise ValueError("shift power must be nonnegative")
        if self.is_zero:
            return ZERO
        return Poly((0,) * r + self.nums, self.den)

    def hadamard_split(self, r: int) -> tuple["Poly", "Poly"]:
        """Split as head + x**r * tail with deg(head) < r; always exact."""
        if r < 1:
            raise ValueError("split order must be positive")
        return self.jet(r - 1), _poly(self.nums[r:], self.den)

    def divide_exact(self, divisor: "Poly") -> "Poly":
        """Exact quotient self / divisor; nonzero remainders are an error.

        Integer pseudo-division: scaling the numerators by ``|lead|**qlen``
        up front makes every quotient step an exact integer division."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return ZERO
        d = divisor.nums
        lead = d[-1]
        qlen = len(self.nums) - len(d) + 1
        scale = abs(lead) ** max(qlen, 0)
        rem = [c * scale for c in self.nums]
        quot = [0] * max(qlen, 0)
        for i in range(qlen - 1, -1, -1):
            q = rem[i + len(d) - 1] // lead
            quot[i] = q
            if q:
                for j, c in enumerate(d, i):
                    rem[j] -= q * c
        remainder = _poly(rem, scale * self.den)
        if not remainder.is_zero:
            raise ExactDivisionError(remainder)
        return _poly([q * divisor.den for q in quot], scale * self.den)

    def order_of_zero(self):
        """Index of the first nonzero coefficient (inf for the zero poly)."""
        for i, c in enumerate(self.nums):
            if c:
                return i
        return math.inf

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_str(self)})"


ZERO = Poly((), 1)


def rational_str(num: int, den: int = 1) -> str:
    """The rational ``num / den`` (den > 0) in lowest terms as text, ``-3/2``
    or ``5``: one gcd, then ``str`` on ints.  A number past Python's
    int-to-str digit limit raises a CurveGlueError that names the limit."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise CurveGlueError(f"a number in the result has more than {limit} digits, "
                             "the limit of Python's integer-to-text conversion") from None


def signed_sum(terms) -> str:
    """Render (numerator, denominator, monomial) triples as ``3/2*x^2 - x + 1``.

    Each coefficient is reduced and printed by :func:`rational_str`; zero
    coefficients are skipped, the monomial ``""`` stands for 1, and the empty
    sum is ``"0"``."""
    parts = []
    for num, den, mono in terms:
        if not num:
            continue
        mag = rational_str(abs(num), den)
        body = f"{mag}*{mono}" if mono and mag != "1" else (mono or mag)
        if parts:
            parts.append(("+ " if num > 0 else "- ") + body)
        else:
            parts.append(body if num > 0 else "-" + body)
    return " ".join(parts) or "0"


def _power(var: str, n: int) -> str:
    return "" if n == 0 else var if n == 1 else f"{var}^{n}"


def poly_str(p: Poly, var: str = "x") -> str:
    """Render in the DSL syntax, e.g. ``3/2*x^2 - x + 1``."""
    return signed_sum((c, p.den, _power(var, n)) for n, c in reversed(tuple(enumerate(p.nums))))


class Poly2(NamedTuple):
    """Bivariate polynomial, stored as y-slices: ``slices[j]`` is the
    coefficient (a univariate Poly in x) of y**j.  Trailing zero slices are
    trimmed, so the grid representation has no all-zero top rows."""

    slices: tuple[Poly, ...]

    @staticmethod
    def of(*slices: Poly) -> "Poly2":
        return Poly2(_trim(slices))

    def at_y_zero(self) -> Poly:
        return self.slices[0] if self.slices else ZERO

    def substitute_y(self, h: Poly) -> Poly:
        """Evaluate F(x, h(x)) exactly."""
        result = ZERO
        for s in reversed(self.slices):
            result = result * h + s
        return result

    def __str__(self) -> str:
        return poly2_str(self)


def poly2_str(F: Poly2) -> str:
    """Render as a sum of c*x^i*y^j terms."""
    return signed_sum(
        (c, s.den, "*".join(filter(None, (_power("x", i), _power("y", j)))))
        for j, s in enumerate(F.slices)
        for i, c in enumerate(s.nums)
    )
