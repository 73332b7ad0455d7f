"""Exact polynomial layer: arithmetic, jets, Hadamard splitting, division."""

import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveglue.errors import DegreeCapExceeded, ExactDivisionError
from curveglue.poly import Jet, Poly, degree_cap, frac, get_degree_cap

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
    def test_truncation(self):
        assert Poly.of(2, 3, 0, 0, 0, 1).jet(2) == Jet(2, (Fraction(2), Fraction(3), Fraction(0)))

    def test_zero(self):
        assert Poly.of().jet(1) == Jet(1, (Fraction(0), Fraction(0)))

    def test_higher_term_killed(self):
        assert Poly.monomial(3).jet(2) == Jet(2, (Fraction(0),) * 3)

    @settings(max_examples=100)
    @given(polys(5), polys(5), st.integers(min_value=0, max_value=4))
    def test_ring_map(self, p, q, m):
        assert (p * q).jet(m) == p.jet(m) * q.jet(m)
        assert (p + q).jet(m) == p.jet(m) + q.jet(m)


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


def test_frac_coercion():
    assert frac("3/2") == Fraction(3, 2)
    assert frac(2) == 2
    with pytest.raises(TypeError):
        frac(1.5)
