"""Exact polynomial layer: arithmetic, jets, Hadamard splitting, division."""

import ast
import math
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveglue.errors import CurveGlueError, DegreeCapExceeded, ExactDivisionError
from curveglue.poly import ZERO, Poly, degree_cap, frac, get_degree_cap, rational_str, set_degree_cap

X = Poly.monomial(1)


def rational():
    return st.builds(
        Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=5)
    )


def polys(max_degree=8):
    return st.builds(lambda cs: Poly.of(*cs), st.lists(rational(), max_size=max_degree + 1))


class TestArithmetic:
    def test_mul_by_zero(self):
        assert X * Poly.of() == Poly.of()

    def test_difference_of_squares(self):
        assert Poly.of(1, 1) * Poly.of(1, -1) == Poly.of(1, 0, -1)

    def test_exact_rational_sub(self):
        half, three_halves = Poly.monomial(2, Fraction(1, 2)), Poly.monomial(2, Fraction(3, 2))
        assert three_halves - half == Poly.monomial(2)

    def test_degrees(self):
        p, q = Poly.of(1, 2, 3), Poly.of(0, 1)
        assert (p * q).degree == 3
        assert (p + q).degree <= 2

    def test_degree_cap(self):
        with degree_cap(4):
            with pytest.raises(DegreeCapExceeded):
                Poly.monomial(3) * Poly.monomial(3)

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValueError, match="degree cap must be positive"):
            set_degree_cap(0)
        assert get_degree_cap() == 32

    def test_degree_cap_scopes_are_per_thread(self):
        barrier = threading.Barrier(2, timeout=10)
        seen = {}

        def worker(cap):
            with degree_cap(cap):
                barrier.wait()  # both scopes are open from here
                seen[cap] = [get_degree_cap()]
                try:
                    Poly.monomial(3) * Poly.monomial(3)
                    seen[cap].append("multiplied")
                except DegreeCapExceeded:
                    seen[cap].append("capped")
                barrier.wait()  # neither scope closes before both have read
            seen[cap].append(get_degree_cap())

        threads = [threading.Thread(target=worker, args=(cap,)) for cap in (4, 64)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {4: [4, "capped", 32], 64: [64, "multiplied", 32]}
        assert get_degree_cap() == 32

    def test_degree_cap_scopes_under_thread_switching(self):
        # More threads than cores, switching often, each entering and leaving
        # its own scope: a shared cap would show another thread's value.
        caps = range(4, 12)
        barrier = threading.Barrier(len(caps), timeout=10)
        wrong = []

        def worker(cap):
            barrier.wait()
            for _ in range(300):
                with degree_cap(cap):
                    if get_degree_cap() != cap:
                        wrong.append(cap)
                if get_degree_cap() != 32:
                    wrong.append(32)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(cap,)) for cap in caps]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @settings(max_examples=200)
    @given(polys(), polys(), polys())
    def test_ring_axioms(self, p, q, r):
        with degree_cap(64):
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p


class TestDerivative:
    def test_monomial(self):
        assert Poly.monomial(3).derive() == Poly.monomial(2, 3)

    def test_constant(self):
        assert Poly.of(7).derive() == Poly.of()

    def test_mixed(self):
        assert Poly.of(0, 1, Fraction(1, 2)).derive() == Poly.of(1, 1)

    @settings(max_examples=100)
    @given(polys(5), polys(5))
    def test_leibniz(self, p, q):
        assert (p * q).derive() == p.derive() * q + p * q.derive()


class TestEval:
    def test_quadratic(self):
        assert Poly.of(-1, 0, 1)(2) == 3

    def test_at_zero(self):
        assert Poly.of(Fraction(5, 7), 3, 2)(0) == Fraction(5, 7)

    def test_fractional(self):
        assert Poly.monomial(1, Fraction(1, 3))(3) == 1


class TestJet:
    """An m-jet is the canonical Poly of the terms up to x**m."""

    def test_truncation(self):
        assert Poly.of(2, 3, 0, 0, 0, 1).jet(2) == Poly.of(2, 3)

    def test_zero(self):
        assert Poly.of().jet(1) == Poly.of()

    def test_higher_term_killed(self):
        assert Poly.monomial(3).jet(2) == Poly.of()

    def test_negative_order_is_zero(self):
        for order in (-1, -2, -5):
            assert Poly.of(1, 2, 3).jet(order) == Poly.of()

    @settings(max_examples=100)
    @given(polys(5), polys(5), st.integers(min_value=0, max_value=4))
    def test_ring_map(self, p, q, m):
        assert (p * q).jet(m) == (p.jet(m) * q.jet(m)).jet(m)
        assert (p + q).jet(m) == p.jet(m) + q.jet(m)

    @settings(max_examples=100)
    @given(polys(8), st.integers(min_value=0, max_value=8))
    def test_head_of_split_and_remainder(self, p, m):
        assert p.hadamard_split(m + 1)[0] == p.jet(m)
        assert p.jet(m).degree <= m
        assert (p - p.jet(m)).order_of_zero() > m


class TestHadamardSplit:
    def test_shift(self):
        head, tail = Poly.of(1, 1, 0, 2).hadamard_split(1)
        assert head == Poly.of(1)
        assert tail == Poly.of(1, 0, 2)

    def test_exact_power(self):
        head, tail = Poly.monomial(2).hadamard_split(2)
        assert head == Poly.of()
        assert tail == Poly.of(1)

    def test_constant(self):
        head, tail = Poly.of(5).hadamard_split(3)
        assert head == Poly.of(5)
        assert tail == Poly.of()

    def test_negative_powers_rejected(self):
        for build in (lambda: Poly.of(1, 2).shift(-1), lambda: Poly.of().shift(-1),
                      lambda: Poly.monomial(-1), lambda: Poly.monomial(-1, 0)):
            with pytest.raises(ValueError):
                build()

    def test_nonpositive_order_rejected(self):
        with pytest.raises(ValueError, match="split order must be positive"):
            Poly.of(1, 2).hadamard_split(0)

    @settings(max_examples=150)
    @given(polys(8), st.integers(min_value=1, max_value=6))
    def test_roundtrip(self, p, r):
        head, tail = p.hadamard_split(r)
        assert head.degree < r
        assert head + tail.shift(r) == p


class TestDivideExact:
    def test_factor(self):
        assert Poly.of(0, 0, 1, 1).divide_exact(Poly.monomial(2)) == Poly.of(1, 1)

    def test_zero_numerator(self):
        assert Poly.of().divide_exact(X) == Poly.of()

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
            X.divide_exact(ZERO)

    def test_indivisible_reports_remainder(self):
        with pytest.raises(ExactDivisionError) as err:
            Poly.of(1, 0, 1).divide_exact(X)
        assert err.value.remainder == Poly.of(1)

    def test_random_products(self):
        rng = random.Random(7)
        for _ in range(100):
            p = Poly.of(*[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])
            q = Poly.of(*[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])
            if q.is_zero:
                continue
            assert (p * q).divide_exact(q) == p


# Test-only reference: schoolbook arithmetic on trimmed Fraction tuples, the
# representation Poly used before it stored integer numerators over one
# common denominator.


def _ref_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _ref_trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _ref_neg(a):
    return tuple(-c for c in a)


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_scale(a, c):
    return _ref_trim(c * x for x in a)


def _ref_derive(a):
    return tuple(c * i for i, c in enumerate(a) if i)


def _ref_shift(a, r):
    return (Fraction(0),) * r + a if a else ()


def _ref_divmod(a, d):
    rem, quot = list(a), [Fraction(0)] * max(len(a) - len(d) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = rem[i + len(d) - 1] / d[-1]
        for j, c in enumerate(d):
            rem[i + j] -= quot[i] * c
    return _ref_trim(quot), _ref_trim(rem)


def _ref_eval(a, t):
    value = Fraction(0)
    for c in reversed(a):
        value = value * t + c
    return value


def _ref_jet(a, order):
    return tuple(a[n] if n < len(a) else Fraction(0) for n in range(order + 1))


def _canonical(p):
    assert p.den >= 1
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert all(type(c) is int for c in p.nums)
    return p


def small_rational():
    return st.builds(
        Fraction, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=12)
    )


def coefficient_tuples():
    """Trimmed Fraction tuples: degree at most 10, denominators 1..12."""
    return st.lists(small_rational(), max_size=11).map(_ref_trim)


class TestAgainstFractionReference:
    """Every integer-kernel operation equals the Fraction schoolbook result
    and returns the canonical form."""

    @settings(max_examples=200)
    @given(coefficient_tuples(), coefficient_tuples())
    def test_ring_operations(self, a, b):
        p, q = Poly.of(*a), Poly.of(*b)
        assert _canonical(p).coeffs == a
        assert _canonical(p + q).coeffs == _ref_add(a, b)
        assert _canonical(p - q).coeffs == _ref_add(a, _ref_neg(b))
        assert _canonical(-p).coeffs == _ref_neg(a)
        assert _canonical(p * q).coeffs == _ref_mul(a, b)

    @settings(max_examples=200)
    @given(coefficient_tuples(), st.integers(min_value=-30, max_value=30), small_rational())
    def test_scalar_multiples(self, a, n, c):
        p = Poly.of(*a)
        for scalar in (n, c):
            assert _canonical(p * scalar).coeffs == _ref_scale(a, scalar)
            assert _canonical(scalar * p).coeffs == _ref_scale(a, scalar)

    @settings(max_examples=200)
    @given(coefficient_tuples(), st.integers(min_value=0, max_value=12))
    def test_derive_shift_split(self, a, r):
        p = Poly.of(*a)
        assert _canonical(p.derive()).coeffs == _ref_derive(a)
        assert _canonical(p.shift(r)).coeffs == _ref_shift(a, r)
        head, tail = p.hadamard_split(r + 1)
        assert _canonical(head).coeffs == _ref_trim(a[: r + 1])
        assert _canonical(tail).coeffs == a[r + 1 :]

    @settings(max_examples=150)
    @given(coefficient_tuples(), coefficient_tuples(), coefficient_tuples())
    def test_divide_exact(self, a, b, c):
        if not b:
            return
        product = _ref_mul(a, b)
        assert _canonical(Poly.of(*product).divide_exact(Poly.of(*b))).coeffs == a
        quotient, remainder = _ref_divmod(c, b)
        if remainder:
            with pytest.raises(ExactDivisionError) as err:
                Poly.of(*c).divide_exact(Poly.of(*b))
            assert _canonical(err.value.remainder).coeffs == remainder
        else:
            assert _canonical(Poly.of(*c).divide_exact(Poly.of(*b))).coeffs == quotient

    @settings(max_examples=200)
    @given(coefficient_tuples(), small_rational(), st.integers(min_value=0, max_value=12))
    def test_boundary_values(self, a, t, order):
        p = Poly.of(*a)
        assert p(t) == _ref_eval(a, t)
        assert p(int(t.numerator)) == _ref_eval(a, Fraction(t.numerator))
        jet = _ref_jet(a, order)
        assert _canonical(p.jet(order)) == Poly.of(*jet)
        assert all(type(c) is Fraction for c in p.coeffs + p.jet(order).coeffs)
        assert p.coeff(order) == jet[order]

    @settings(max_examples=200)
    @given(coefficient_tuples(), coefficient_tuples(), small_rational())
    def test_equal_values_compare_and_hash_equal(self, a, b, c):
        p, q = Poly.of(*a), Poly.of(*b)
        rebuilt = [(p + q) - q, Poly.of(*p.coeffs), p.shift(2).hadamard_split(2)[1]]
        if c:
            rebuilt.append((p * c) * (1 / c))
        for other in rebuilt:
            assert other == p
            assert hash(other) == hash(p)

    def test_equal_values_from_different_constructors(self):
        a = Poly.of(Fraction(2, 4), 1)
        b = Poly.of(Fraction(1, 2), Fraction(3, 3))
        assert a == b and hash(a) == hash(b)
        assert Poly.of(0, 0, 0) == Poly.of() == Poly.monomial(5, 0)
        assert Poly.of(Fraction(6, 4)) * 2 == Poly.of(3) == Poly.monomial(0, "3")
        assert (Poly.of(1, Fraction(1, 3)) * 3).den == 1


def test_frac_coercion():
    assert frac("3/2") == Fraction(3, 2)
    assert frac(2) == 2
    with pytest.raises(TypeError):
        frac(1.5)


class TestRationalStr:
    def test_lowest_terms(self):
        assert [rational_str(*pair) for pair in ((6, 4), (-6, 3), (0, 5), (7, 1), (-1, 9))] == [
            "3/2", "-2", "0", "7", "-1/9"
        ]
        assert rational_str(12) == "12"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="Python before 3.10.7 has no int-to-str digit limit",
    )
    def test_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert rational_str(10 ** (limit - 1), 3) == "1" + "0" * (limit - 1) + "/3"
        for num, den in ((10 ** limit, 1), (1, 10 ** limit), (-(10 ** limit), 7)):
            with pytest.raises(CurveGlueError, match=f"more than {limit} digits"):
                rational_str(num, den)


def _cap_refusals(tree) -> list[int]:
    """The lines of the ``DegreeCapExceeded(...)`` calls under an AST node."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "DegreeCapExceeded" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_cap_refusal_is_built_only_in_the_poly_guard():
    # One code path refuses a degree past the cap: poly._check_cap, which
    # every capped operation calls, builds the package's one DegreeCapExceeded.
    src = Path(__file__).parents[1] / "src" / "curveglue"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    guard = next(node for node in trees["poly"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "_check_cap")
    assert len(_cap_refusals(guard)) == 1
    assert {stem: _cap_refusals(tree) for stem, tree in trees.items() if _cap_refusals(tree)} == {
        "poly": _cap_refusals(guard)
    }
