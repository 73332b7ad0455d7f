"""Differential operators on the branches and admissible pairs on the glued
algebra.

A branch operator is a polynomial-coefficient operator sum a_i(x) d^i/dx^i.
A pair (D1, D2) acts on the glued algebra exactly when, for every glued
function (f, g) and every derivative order i <= m, the i-th derivatives of
D1 f and D2 g agree at 0.  That requirement is linear in the coefficient
jets a_s^(r)(0), b_s^(r)(0) with s <= k, r <= m, so it is captured by a
finite linear system:

* :func:`generate_conditions` reduces the defining equation on branch a
  weight block by weight block, each in closed form, and mirrors it to
  branch b: the ground truth;
* :func:`probe_admissible` is the independent brute-force oracle: it applies
  the operators to a spanning family of glued pairs and compares output jets.

Every layer addresses the unknowns by one column layout, :func:`_column`.
A condition system's ``variables`` is a by-column view that names an unknown
only when it is read, so generation builds rows and no names.  Both oracles
run on integers.  The rows are primitive integer equations, and the check
puts the unknowns over one common denominator, so each row is one integer dot
product; the probe forms only the m-jet of each image by :func:`_apply`, the
kernel of ``apply`` too, and never a full product, so the degree cap does not
bind it.  A :class:`BranchOp` holds integer rows over one denominator, which
the products, ``apply``, the probe and the check read as they are.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from typing import NamedTuple

from .errors import AdmissibilityError, ClosureBugError, OrderError
from .glued import GluedFunction, SpaceSpec, make_glued, same_space
from .poly import NEG_INF, ZERO, Poly, _check_cap, _poly, _trim, get_degree_cap, signed_sum

# ---------------------------------------------------------------------------
# Branch operators


class BranchOp(NamedTuple):
    """Operator sum a_i(x) d^i on one branch; row i holds the integer numerators
    of a_i over ``den``.  Canonical, like :class:`Poly`: den > 0, gcd(den, every
    entry) = 1, no row ends in 0 and ``rows`` ends in no empty row, so equal
    operators compare and hash equal.  ``coeffs`` and ``coeff`` build Polys."""

    rows: tuple[tuple[int, ...], ...]
    den: int

    @staticmethod
    def of(*coeffs: Poly) -> "BranchOp":
        coeffs = _trim(coeffs)
        den = math.lcm(*[a.den for a in coeffs])  # of lowest terms: canonical with no gcd
        return BranchOp(tuple([a.nums if a.den == den else tuple([c * (den // a.den) for c in a.nums])
                               for a in coeffs]), den)

    @staticmethod
    def derivative(coefficient: Poly | None = None, power: int = 1) -> "BranchOp":
        """coefficient * d^power (coefficient defaults to 1)."""
        c = coefficient if coefficient is not None else Poly.of(1)
        return BranchOp.of(*([ZERO] * power + [c]))

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        return tuple([_poly(row, self.den) for row in self.rows])

    @property
    def order(self):
        return len(self.rows) - 1 if self.rows else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def coeff(self, i: int) -> Poly:
        return _poly(self.rows[i], self.den) if 0 <= i < len(self.rows) else ZERO

    def __add__(self, other: "BranchOp") -> "BranchOp":
        den = math.lcm(self.den, other.den)
        x, y = den // self.den, den // other.den
        return _op([[c * x + d * y for c, d in zip_longest(p, q, fillvalue=0)]
                    for p, q in zip_longest(self.rows, other.rows, fillvalue=())], den)

    def __neg__(self) -> "BranchOp":
        return BranchOp(tuple([tuple([-c for c in row]) for row in self.rows]), self.den)

    def __sub__(self, other: "BranchOp") -> "BranchOp":
        return self + (-other)

    def apply(self, p: Poly) -> Poly:
        return _poly(_apply(self.rows, p), self.den * p.den)

    def __str__(self) -> str:
        from .dsl import render_op

        return render_op(self)

    def __repr__(self) -> str:
        return f"BranchOp(coeffs={self.coeffs!r})"


def _op(rows, den: int) -> BranchOp:
    """The canonical BranchOp with a_i = ``rows[i] / den`` (den > 0): trailing
    zeros and empty rows trimmed, then one gcd over den and every entry."""
    rows = _trim([_trim(row) for row in rows])
    g = math.gcd(den, *chain.from_iterable(rows))
    return BranchOp(tuple([tuple([c // g for c in row]) for row in rows]) if g != 1 else rows, den // g)


def _apply(a: list[list[int]], f: Poly, top: int | None = None) -> list[int]:
    """D f for D given by integer numerator arrays ``a`` over a denominator e:
    its numerators over e * f.den, all or up to x^top, where a term c x^n of f
    adds c n!/(n-i)! a_i[t-n+i] at x^t.  Whole, ``top`` is what the cap guard
    ``_check_cap`` returns on the degrees of the nonzero a_i f^(i), i ascending."""
    nums = f.nums
    if top is None:
        top = _check_cap(len(ai) + len(nums) - i - 2 for i, ai in enumerate(a[:len(nums)]) if ai)
    out = [0] * (top + 1)
    for n, c in enumerate(nums[:top + len(a)]):
        if c:
            for i in range(max(0, n - top), min(n + 1, len(a))):
                scale, low = c * math.perm(n, i), n - i
                for t, x in enumerate(a[i][:top + 1 - low], low):
                    out[t] += scale * x
    return out


def _pack(digits, width: int) -> int:
    """sum_t digits[t] 2^(width t): digits of either sign packed into one int."""
    x = 0
    for c in reversed(digits):
        x = (x << width) + c
    return x


def _leibniz(a: list[list[int]], b: list[list[int]], commute: bool) -> list[list[int]]:
    """a o b = sum_r C(i,r) a_i b_j^(r) d^(i-r+j), or with ``commute`` a o b - b o a:
    the terms r >= 1 of both orders, as the r = 0 terms cancel.

    The operators are integer numerator arrays, such as BranchOp rows: ``a[i]``
    holds those of a_i over one common denominator, ``b[j]`` those of b_j over
    another, and the result is over their product.  Arrays, and the sequences
    of them, carry no trailing zero, so lengths are true degrees plus one.

    In symbols, sigma(A o B) = sum_r (1/r!) d_xi^r sigma_A d_x^r sigma_B, that
    is sum_r A_r B_r with A_r = sum_i C(i,r) a_i xi^(i-r), B_r = sum_j b_j^(r) xi^j,
    each packed into one int by Kronecker substitution, x -> 2^w and
    xi -> 2^(w nx), one big-int multiply per r and order into one total.
    Each operand is packed once, as P_i = a_i(2^w) and, by one transpose of b,
    as column ints Q_t = sum_j b_j[t] 2^(w nx j): A_r packs C(i,r) P_i and B_r
    perm(t,r) Q_t, each list got from r - 1 by one multiple per entry, (i-r+1)/r
    (an exact division) and t-r+1, so no b_j^(r) is formed.  With
    la, lb the longest lengths in a and b, and first = 1 if commuting, else 0,
    a product has at most nx = la + lb - 1 - first coefficients.  One of
    A_r B_r sums at most min(len(a) - r, len(b)) min(la, lb - r) products
    C(i,r) a_i[u] b_j^(r)[s], each at most C(len(a)-1, r) perm(lb-1, r) |a| |b|,
    |a| and |b| the largest entries; (b, a) swaps the roles.  Summed over r
    and orders that bound is below 2^(w-1), so adding 2^(w-1) to every digit
    of the total puts each in [0, 2^w), where one shift and mask reads it.

    For each (i, j) the product r = first has the highest degree, so the cap
    guard ``_check_cap`` gets those, i then j ascending and (a, b) before (b, a)."""
    first = 1 if commute else 0
    la, lb = max(map(len, a), default=0), max(map(len, b), default=0)
    orders = ((a, b, la, lb, 1), (b, a, lb, la, -1))[:first + 1]  # p o q, longest lengths, sign
    if la + lb - 2 - first > get_degree_cap():  # some product may pass the cap
        _check_cap(len(pi) + len(qj) - 2 - first
                   for p, q, *_ in orders for pi in p[first:] if pi for qj in q if len(qj) > first)
    bound = sum(min(len(p) - r, len(q)) * min(lp, lq - r) * math.comb(len(p) - 1, r) * math.perm(lq - 1, r)
                for p, q, lp, lq, _ in orders for r in range(first, min(len(p), lq)))
    if not bound:  # no r with a product
        return []
    big = max(map(abs, chain.from_iterable(a))) * max(map(abs, chain.from_iterable(b)))
    w = (big * bound).bit_length() + 1
    step, slots = w * (la + lb - 1 - first), len(a) + len(b) - 1 - first  # xi -> 2^step
    half, mask = 1 << (w - 1), (1 << w) - 1
    total = half * ((1 << step * slots) - 1) // mask  # 2^(w-1) at every digit
    for p, q, _, lq, sign in orders:
        ps = [sign * _pack(pi, w) for pi in p]  # C(i, r) P_i at i - r
        qs = [_pack(col, step) for col in zip_longest(*q, fillvalue=0)]  # perm(t, r) Q_t at t - r
        for r in range(min(len(p), lq)):
            if r:
                ps = [x * (e + 1) // r for e, x in enumerate(ps[1:])]
                qs = [x * (e + 1) for e, x in enumerate(qs[1:])]
            if r >= first:
                total += _pack(ps, step) * _pack(qs, w)
    out = [[(x >> s & mask) - half for s in range(0, step, w)]
           for x in [total >> s & ((1 << step) - 1) for s in range(0, step * slots, step)]]
    for target in out:
        while target and not target[-1]:
            target.pop()
    while out and not out[-1]:
        out.pop()
    return out


def compose(op_a: BranchOp, op_b: BranchOp) -> BranchOp:
    """Operator composition: apply op_b first, then op_a."""
    return _op(_leibniz(op_a.rows, op_b.rows, False), op_a.den * op_b.den)


def commutator(op_a: BranchOp, op_b: BranchOp) -> BranchOp:
    """[op_a, op_b] = op_a op_b - op_b op_a, in one kernel pass."""
    return _op(_leibniz(op_a.rows, op_b.rows, True), op_a.den * op_b.den)


def verify_order(op: BranchOp, k: int, probe_degree: int) -> bool:
    """Check order <= k via vanishing of the (k+1)-fold delta chains by the
    monomials x^1..x^probe_degree.

    If a set S generates a commutative algebra, an operator has order <= k
    exactly when every (k+1)-fold commutator with multiplications by members
    of S vanishes (EGA IV 16.8; McConnell and Robson, ch. 15).  Once
    probe_degree >= 1 that set holds x, which generates Q[x], so the one
    chain ad(x)^(k+1) decides.  Its k + 1 steps, [a_i d^i, x] = i a_i d^(i-1),
    scale a_i by i(i-1)...(i-k), zero exactly when i <= k, so the chain
    vanishes exactly when ``op.rows`` has at most k + 1 entries.  With
    probe_degree < 1 there is no chain, so any k >= 0 passes.  A step keeps
    coefficient degrees, so with k >= 0 the cap guard ``_check_cap`` refuses
    only an a_i, i >= 1, already past the cap, the first in ascending i."""
    if k >= 0:
        if probe_degree < 1:
            return True
        _check_cap(len(row) - 1 for row in op.rows[1:])
    return len(op.rows) <= k + 1


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


class SymbolVar(NamedTuple):
    """The unknown a^(r)(0) or b^(r)(0) of a top coefficient."""

    branch: str
    r: int

    @property
    def name(self) -> str:
        return _prime_name(self.branch, self.r)


def _column(s: int, r: int, m: int, k: int) -> int:
    """The column of b_s^(r)(0) in the order-k system on K_m; a_s^(r)(0) has
    the next.  Higher s first, then higher r, so reduced rows read like
    hand-written tables (e.g. "a2'(0) + a1(0) = 0", "b0(0) - a0(0) = 0")."""
    return 2 * ((k - s) * (m + 1) + m - r)


class _Unknowns(Sequence):
    """The unknown of each column of the order-k system on K_m, the inverse of
    :func:`_column`: a read-only view that builds each :class:`JetVar` only
    when read.  With ``stratum`` it holds the :class:`SymbolVar` of a degree
    stratum, built with k = 0: a degree-k symbol (a_k, b_k) is the data of an
    order-0 pair and takes its columns.  It compares equal to the tuple of
    its unknowns, in either direction, but it is not a tuple: it has no
    ``+``, no ordering and no hash."""

    __slots__ = ("m", "k", "stratum")

    def __init__(self, m: int, k: int, stratum: bool = False):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "stratum", stratum)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __reduce__(self):
        return type(self), (self.m, self.k, self.stratum)

    def __len__(self) -> int:
        return 2 * (self.m + 1) * (self.k + 1)

    def __getitem__(self, col):
        col = range(len(self))[col]  # a range for a slice; IndexError out of range
        if isinstance(col, range):
            return tuple(map(self.__getitem__, col))
        pair, branch = divmod(col, 2)
        s, r = self.k - pair // (self.m + 1), self.m - pair % (self.m + 1)
        if self.stratum:
            return tuple.__new__(SymbolVar, ("ba"[branch], r))
        return tuple.__new__(JetVar, ("ba"[branch], s, r))

    def names(self) -> list[str]:
        """The name of the unknown at each column, built without the unknowns."""
        ends = [_prime_name("", r) for r in range(self.m, -1, -1)]
        stems = [""] if self.stratum else [str(s) for s in range(self.k, -1, -1)]
        return [f"{branch}{stem}{end}" for stem in stems for end in ends for branch in "ba"]

    def __eq__(self, other):
        if isinstance(other, (tuple, _Unknowns)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


def render_linear(row: dict[int, int], names) -> str:
    """Render a sparse constraint row, columns in increasing order, as '... = 0',
    each entry divided by the first, the pivot (an empty row is '0 = 0');
    ``names[col]`` is the name of the unknown at column col."""
    pivot = next(iter(row.values()), 1)
    return signed_sum((c, pivot, names[col]) for col, c in row.items()) + " = 0"


class Violation(NamedTuple):
    """A constraint row that evaluates to ``lhs`` instead of 0."""

    constraint: str
    lhs: Fraction


class ConditionSet(NamedTuple):
    """Reduced linear system on the coefficient jets at 0 that is equivalent
    to admissibility at order k on the given space.

    ``sparse_rows`` are its pivot rows as primitive integer equations:
    ``{column: int}`` dicts over ``variables`` holding only nonzero entries
    with no common factor, the pivot, positive, first and the columns
    increasing, the rows in order of pivot column.  Divided by its pivot, a
    row is a row of the reduced row-echelon form.  Readers rely on this order
    and do not sort again.  :func:`_generate` builds them weight block by
    weight block, so a row's unknowns all share one weight s - r.  They are
    the only stored form and are shared through the condition caches, so
    callers must not mutate them.

    ``variables`` holds the unknown of each column.  The generators store a
    by-column view there that builds an unknown only when it is read, so a
    cold generation builds rows and no names, and :attr:`rendered` names the
    columns from the layout; it compares equal to the tuple of its unknowns."""

    space: SpaceSpec
    order: int
    variables: Sequence[JetVar | SymbolVar]
    sparse_rows: tuple[dict[int, int], ...]

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The same rows as dense tuples, reduced (pivot 1), built anew on each call."""
        zero = (Fraction(0),) * len(self.variables)
        out = []
        for row in self.sparse_rows:
            dense, pivot = list(zero), next(iter(row.values()), 1)
            for c, v in row.items():
                dense[c] = Fraction(v, pivot)
            out.append(tuple(dense))
        return tuple(out)

    @property
    def rendered(self) -> tuple[str, ...]:
        variables = self.variables
        names = variables.names() if isinstance(variables, _Unknowns) else [v.name for v in variables]
        return tuple(render_linear(row, names) for row in self.sparse_rows)

    def violations(self, values, den: int) -> tuple[Violation, ...]:
        """The rows failed by the unknowns ``values[col] / den``: integers, one
        per column of ``variables``.  Each row is one integer dot product;
        only a failing row is rendered and gets a ``Fraction`` lhs, the reduced
        row's value."""
        out = []
        for row in self.sparse_rows:
            total = sum(c * values[col] for col, c in row.items())
            if total:
                pivot = next(iter(row.values()))
                names = {col: self.variables[col].name for col in row}
                out.append(Violation(render_linear(row, names), Fraction(total, pivot * den)))
        return tuple(out)


def _jet_values(a, b, m: int, k: int) -> tuple[list[int], int]:
    """The jets of a_s, b_s, s <= k, from ``(rows, den)`` pairs such as BranchOps,
    each at its column of the order-k system, as the integers r! * row[r] over
    one common denominator.  A symbol's top pair, one row each, takes the
    order-0 columns, which the degree stratum uses."""
    den = math.lcm(a[1], b[1])
    facts = [math.factorial(r) for r in range(m + 1)]
    step = _column(0, 1, m, 0) - _column(0, 0, m, 0)  # from r to r + 1
    out = [0] * (_column(0, 0, m, k) + 2)
    for branch, (rows, d) in enumerate((b, a)):  # b_s^(r)(0), then a_s^(r)(0)
        scale = den // d
        for s, row in enumerate(rows):
            col = _column(s, 0, m, k) + branch
            for r, x in enumerate(row[:m + 1]):
                out[col + r * step] = facts[r] * scale * x
    return out, den


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
    """The reduced system, built in one walk over the a-columns.

    The diagonal pairs f = g = x^n force b_s^(r)(0) = a_s^(r)(0) (at each
    weight s - r their rows are a unit triangular Pascal system on a - b), so
    only the rows (D1 x^n)^(i)(0) = 0, m < n <= k+m, i <= m, are reduced:
    (D f)^(i)(0) = sum_s sum_{r<=i} C(i,r) a_s^(r)(0) f^(s+i-r)(0), so each
    meets only a_(n-i+r)^(r), with value C(i,r) n! (n! dropped here).

    Those rows split by the weight w = n - i = s - r into blocks with disjoint
    unknowns u_r = a_(w+r)^(r), r <= top = min(m, k - w), and h = m + 1 - i0
    rows sum_r C(i,r) u_r = 0, i0 = max(0, m + 1 - w) <= i <= m: the Newton
    form p(x) = sum_r u_r C(x,r) vanishes at i0..m.  With f = top - h < 0
    every u_r = 0, a unit row.  Otherwise h = w, u_0..u_f are free, p is
    sum_q u_q P_q, P_q(t) = C(t,q) at t <= f and 0 at i0..m, of degree <= top,
    and each pivot u_p = Delta^p p(0), f < p <= top, is sum_q v(p,q) u_q with

      v(p,q) = (-1)^(p-f) C(p,q) C(p-q-1, f-q)
               + sum_(t in gap, t <= p) (-1)^(p-t) C(p,t) P_q(t),

    the first term the alternating Pascal sum over t <= f, the gap the nodes
    f < t < min(i0, top + 1).  A square block (top = m) has no gap: its rows
    are the first term, pivot 1, written down q from v(p,f) = -(-1)^(p-f)
    C(p,f) by v(p,q-1) = v(p,q) q (p-q) / ((p-q+1)(f-q+1)), exact as the
    ratio of the two binomials' steps.  Otherwise P_q - C(., q) is (x)_(f+1) S_q,
    deg S_q < h, S_q(i) = -C(i,q)/(i)_(f+1) at the zeros, and as (x)_(f+1)
    C(x-f-1, n) = (f+1)! C(f+1+n, n) C(x, f+1+n), v(f+1+n, q) = C(f+1+n, n)
    tau_n, tau the Newton coefficients at f + 1 of (f+1)! S_q.  Forward
    differences of its zeros' values -C(i,q)/C(i,f+1) give them at i0, and
    g = i0 - f - 1 Taylor shifts by -1 (a_n -= a_(n+1), n descending) take
    them down to f + 1: additions, on integers over d = lcm_i C(i,f+1), one
    for all q, digit q of W bits (C(i,.) are the digits of (2^W + 1)^i), W
    enough for d v <= d 2^(m + (h-1) + (g+h-1) + top).  A row is d at the
    pivot and -d v elsewhere, divided by its gcd.

    The walk classifies each a-column in O(1): no block (w <= 0) or a free
    unknown gives b_s^(r)(0) - a_s^(r)(0) = 0, a full-rank block two unit
    rows, a pivot its a row with the pivot moved to b (the column before),
    then the a row.  A block's shifted values serve its pivots in this call."""
    comb, a0 = math.comb, _column(0, 0, m, k) + 1  # the column of a_0(0)
    down, across = _column(0, 1, m, k) + 1 - a0, _column(1, 0, m, k) + 1 - a0  # to r + 1, to s + 1
    diagonal = down + across  # from u_r to u_(r+1)
    free = [min(m, k - w) - w for w in range(k + 1)]  # f of block w: h = w when f >= 0
    out, gaps = [], {}  # gaps[w]: block w's Newton coefficients at f + 1, packed
    for s in range(k, -1, -1):
        base = a0 + s * across
        for p in range(m, -1, -1):  # the a-columns in layout order
            c, w = base + p * down, s - p  # a_s^(p)(0), the u_p of block w
            if w <= 0 or p <= (f := free[w]):  # no block, or a free unknown
                out.append({c - 1: 1, c: -1})
                continue
            if f < 0:
                out += [{c - 1: 1}, {c: 1}]
                continue
            cols = range(c + (f - p) * diagonal, c - (p + 1) * diagonal, -diagonal)  # u_f..u_0
            if k - w >= m:  # square: v(p, q) by its recurrence down q
                v, rest = comb(p, f) if (p - f) & 1 else -comb(p, f), {}
                for j, q in zip(cols, range(f, -1, -1)):
                    rest[j], v = v, v * q * (p - q) // ((p - q + 1) * (f - q + 1))
                out += [{c - 1: 1, **rest}, {c: 1, **rest}]
                continue
            if w not in gaps:  # h = w zeros i0..m, and top = k - w
                i0 = m + 1 - w
                d = math.lcm(*map(comb, range(i0, m + 1), [f + 1] * w))
                size = (d.bit_length() + m + k + w + i0 - f + 7) // 8  # W / 8
                mask, pascal = (1 << 8 * size * (f + 1)) - 1, pow((1 << 8 * size) + 1, i0 - 1)
                x = [(d // comb(i, f + 1)) * (pascal := (pascal + (pascal << 8 * size)) & mask)
                     for i in range(i0, m + 1)]  # digit q: d C(i,q) / C(i,f+1)
                for n in range(1, w):  # forward differences at i0
                    for e in range(w - 1, n - 1, -1):
                        x[e] -= x[e - 1]
                for _ in range(i0 - f - 1):  # Taylor shifts by -1, from i0 down to f + 1
                    for n in range(w - 2, -1, -1):
                        x[n] -= x[n + 1]
                half = 1 << 8 * size - 1  # added to every digit, so that each reads unsigned
                gaps[w] = d, size, half, x, int.from_bytes(half.to_bytes(size, "little") * (f + 1), "little")
            d, size, half, x, bias = gaps[w]
            b = (bias + comb(p, p - f - 1) * x[p - f - 1]).to_bytes(size * (f + 1), "little")
            row = [int.from_bytes(b[j:j + size], "little") - half for j in range(size * f, -1, -size)]
            g = math.gcd(d, *row)
            rest = dict(zip(cols, [v // g for v in row]))
            out += [{c - 1: d // g, **rest}, {c: d // g, **rest}]
    return ConditionSet(SpaceSpec(m), k, _Unknowns(m, k), tuple(out))


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
    conditions = generate_conditions(space, k)
    if d1.order > k or d2.order > k:
        raise OrderError(f"branch orders exceed the declared order {k}")
    values, den = _jet_values(d1, d2, space.m, k)
    return AdmissibilityReport(space, k, conditions.violations(values, den))


def probe_admissible(d1: BranchOp, d2: BranchOp, space: SpaceSpec, probe_degree: int) -> bool:
    """Brute-force oracle: apply both operators to the spanning family and
    compare output m-jets at 0, formed alone by :func:`_apply`, so no product
    meets the degree cap.  Independent of the generated conditions."""
    m, (a, da), (b, db) = space.m, d1, d2
    jets_a, jets_b = {}, {}  # x^n recurs in a diagonal and a branch member
    for f, g in spanning_family(space, max_diag=probe_degree, max_branch=probe_degree):
        if f not in jets_a:
            jets_a[f] = _apply(a, f, m)
        if g not in jets_b:
            jets_b[g] = _apply(b, g, m)
        left, right = db * g.den, da * f.den  # cross-multiplied denominators
        if [x * left for x in jets_a[f]] != [y * right for y in jets_b[g]]:
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


def _combine(combine, op_a: PairedOp, op_b: PairedOp, order: int, what: str) -> PairedOp:
    """``combine`` on each branch, checked again: closure makes it admissible at ``order``."""
    same_space(op_a, op_b)
    d1, d2 = combine(op_a.d1, op_b.d1), combine(op_a.d2, op_b.d2)
    report = check_admissible(d1, d2, op_a.space, order)
    if not report.ok:
        raise ClosureBugError(
            f"{what} of admissible pairs failed the admissibility check at order {order}; "
            "this contradicts the closure theorem and indicates an internal bug: "
            + "; ".join(v.constraint for v in report.violations)
        )
    return PairedOp(d1, d2, op_a.space, order)


def pair_compose(op_a: PairedOp, op_b: PairedOp) -> PairedOp:
    return _combine(compose, op_a, op_b, op_a.order + op_b.order, "composition")


def pair_commutator(op_a: PairedOp, op_b: PairedOp) -> PairedOp:
    return _combine(commutator, op_a, op_b, max(op_a.order + op_b.order - 1, 0), "commutator")
