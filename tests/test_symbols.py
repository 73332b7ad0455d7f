"""Graded symbols: membership strata, product, Poisson bracket, oracles."""

import random
from fractions import Fraction

import pytest

from curveglue.errors import OrderError, SpaceMismatch, SymbolConditionError
from curveglue.glued import SpaceSpec
from curveglue.operators import BranchOp, make_pair
from curveglue.poly import Poly, degree_cap
from curveglue.sampling import random_admissible_pair, random_symbol
from curveglue.symbols import (
    SymbolElem,
    bracket_via_commutator,
    check_symbol_conditions,
    make_symbol,
    pair_symbol,
    poisson_bracket,
    symbol_add,
    symbol_conditions,
    symbol_mul,
    symbol_scale,
    take_symbol,
    zero_symbol,
)

X = Poly.monomial(1)
X2, X3 = Poly.monomial(2), Poly.monomial(3)
K0, K1 = SpaceSpec(0), SpaceSpec(1)


class TestTakeSymbol:
    def test_leading_coefficient(self):
        op = BranchOp.of(Poly.of(1), Poly.of(3), X2)
        assert take_symbol(op, 2) == X2

    def test_lower_order_gives_zero(self):
        assert take_symbol(BranchOp.derivative(), 2).is_zero

    def test_mixed(self):
        op = BranchOp.of(Poly.of(), Poly.of(-1), X)
        assert take_symbol(op, 2) == X

    def test_order_exceeds_degree(self):
        with pytest.raises(OrderError):
            take_symbol(BranchOp.derivative(power=2), 1)


class TestPairSymbol:
    def test_euler(self):
        pair = make_pair(BranchOp.derivative(X), BranchOp.derivative(X), K1)
        s = pair_symbol(pair)
        assert (s.degree, s.a, s.b) == (1, X, X)

    def test_second_order(self):
        op = BranchOp.of(Poly.of(), Poly.of(-1), X)
        s = pair_symbol(make_pair(op, op, K1, 2))
        assert (s.degree, s.a, s.b) == (2, X, X)

    def test_multiplication_pair(self):
        q = Poly.of(1, 2, 3)
        s = pair_symbol(make_pair(BranchOp.of(q), BranchOp.of(q), K0))
        assert (s.degree, s.a, s.b) == (0, q, q)


class TestSymbolConditions:
    def test_cross_degree_one(self):
        assert check_symbol_conditions(SymbolElem(1, X2, X2, K0)).ok

    def test_contact_one_high_degree_rejects_linear(self):
        report = check_symbol_conditions(SymbolElem(3, X, X, K1))
        assert not report.ok
        assert any("a'(0)" in v.constraint for v in report.violations)

    def test_degree_zero_is_the_full_algebra(self):
        # Multiplication by a glued function is an admissible order-0 pair,
        # so its coefficient pair is a valid degree-0 symbol; the tempting
        # stronger cut a'(0) = 0 is ruled out in tests/test_normal_form.py.
        assert check_symbol_conditions(SymbolElem(0, X, X, K1)).ok
        assert not check_symbol_conditions(SymbolElem(0, X, 2 * X, K1)).ok

    def test_make_symbol_rejects(self):
        with pytest.raises(SymbolConditionError):
            make_symbol(1, Poly.of(1), Poly.of(1), K0)

    def test_negative_degree_rejected(self):
        with pytest.raises(OrderError):
            symbol_conditions(1, -1)
        with pytest.raises(OrderError):
            check_symbol_conditions(SymbolElem(-1, X, X, K1))

    def test_zero_symbol_valid_everywhere(self):
        for m in range(3):
            for degree in range(4):
                assert check_symbol_conditions(zero_symbol(degree, SpaceSpec(m))).ok


class TestProduct:
    def test_componentwise(self):
        s = make_symbol(1, X, X, K0)
        assert symbol_mul(s, s) == SymbolElem(2, X2, X2, K0)

    def test_negative_degree_rejected(self):
        with pytest.raises(OrderError, match="symbol degree must be nonnegative"):
            make_symbol(-1, X, X, K0)

    def test_sum_needs_equal_degrees(self):
        with pytest.raises(OrderError, match="can only add symbols of equal degree"):
            symbol_add(make_symbol(1, X, X, K0), make_symbol(2, X2, X2, K0))

    def test_unit(self):
        unit = make_symbol(0, Poly.of(1), Poly.of(1), K0)
        s = make_symbol(2, X2, -X, K0)
        assert symbol_mul(s, unit) == s

    def test_cube_on_contact_one(self):
        s = make_symbol(1, X, X, K1)
        cube = symbol_mul(symbol_mul(s, s), s)
        assert cube == SymbolElem(3, X3, X3, K1)

    def test_degree_additivity_random(self):
        rng = random.Random(13)
        for _ in range(100):
            m = rng.randint(0, 2)
            space = SpaceSpec(m)
            s = random_symbol(space, rng.randint(0, 3), rng)
            t = random_symbol(space, rng.randint(0, 3), rng)
            assert symbol_mul(s, t).degree == s.degree + t.degree


class TestPoissonBracket:
    def test_derived_example(self):
        s = make_symbol(1, X2, X2, K1)
        t = make_symbol(1, X, X, K1)
        assert poisson_bracket(s, t) == SymbolElem(1, -X2, -X2, K1)

    def test_self_bracket_vanishes(self):
        s = make_symbol(2, X2 + X3, X2, K1)
        assert poisson_bracket(s, s).is_zero

    def test_degree_zero_pair(self):
        s = make_symbol(0, Poly.of(1), Poly.of(1), K0)
        t = make_symbol(0, X, X, K0)
        result = poisson_bracket(s, t)
        assert result.is_zero and result.degree == 0

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            poisson_bracket(make_symbol(1, X, X, K0), make_symbol(1, X, X, K1))

    def test_degree_rule(self):
        rng = random.Random(31)
        for _ in range(100):
            m = rng.randint(0, 2)
            space = SpaceSpec(m)
            l, n = rng.randint(0, 3), rng.randint(0, 3)
            if l + n == 0:
                continue
            s, t = random_symbol(space, l, rng), random_symbol(space, n, rng)
            assert poisson_bracket(s, t).degree == l + n - 1

    def test_closure_under_conditions(self):
        rng = random.Random(37)
        for _ in range(300):
            m = rng.randint(0, 2)
            space = SpaceSpec(m)
            s = random_symbol(space, rng.randint(0, 3), rng)
            t = random_symbol(space, rng.randint(0, 3), rng)
            result = poisson_bracket(s, t)  # make_symbol revalidates inside
            assert check_symbol_conditions(result).ok


class TestBracketViaCommutator:
    def test_quadratic_euler(self):
        a = make_pair(BranchOp.derivative(X2), BranchOp.derivative(X2), K1)
        b = make_pair(BranchOp.derivative(X), BranchOp.derivative(X), K1)
        assert bracket_via_commutator(a, b) == SymbolElem(1, -X2, -X2, K1)

    def test_self_commutator(self):
        a = make_pair(BranchOp.derivative(X), BranchOp.derivative(X), K1)
        assert bracket_via_commutator(a, a).is_zero

    def test_mixed_orders(self):
        a = make_pair(BranchOp.derivative(X), BranchOp.derivative(X), K1)
        b = make_pair(BranchOp.derivative(X2, power=2), BranchOp.derivative(X2, power=2), K1)
        via_commutator = bracket_via_commutator(a, b)
        via_formula = poisson_bracket(pair_symbol(a), pair_symbol(b))
        assert via_commutator.degree == 2
        assert via_commutator == via_formula

    def test_consistency_random(self):
        rng = random.Random(43)
        with degree_cap(64):
            for _ in range(150):
                m = rng.randint(0, 2)
                space = SpaceSpec(m)
                a = random_admissible_pair(space, rng.randint(0, 3), rng, max_degree=3)
                b = random_admissible_pair(space, rng.randint(0, 3), rng, max_degree=3)
                assert bracket_via_commutator(a, b) == poisson_bracket(
                    pair_symbol(a), pair_symbol(b)
                )


class TestLieAlgebraLaws:
    def test_jacobi(self):
        rng = random.Random(47)
        with degree_cap(64):
            for _ in range(200):
                m = rng.randint(0, 2)
                space = SpaceSpec(m)
                r, s, t = (random_symbol(space, rng.randint(1, 3), rng, 2) for _ in range(3))
                total = symbol_add(
                    symbol_add(
                        poisson_bracket(r, poisson_bracket(s, t)),
                        poisson_bracket(s, poisson_bracket(t, r)),
                    ),
                    poisson_bracket(t, poisson_bracket(r, s)),
                )
                assert total.is_zero

    def test_leibniz(self):
        rng = random.Random(53)
        with degree_cap(64):
            for _ in range(200):
                m = rng.randint(0, 2)
                space = SpaceSpec(m)
                s = random_symbol(space, rng.randint(1, 3), rng, 2)
                t = random_symbol(space, rng.randint(0, 2), rng, 2)
                u = random_symbol(space, rng.randint(0, 2), rng, 2)
                left = poisson_bracket(s, symbol_mul(t, u))
                right = symbol_add(
                    symbol_mul(poisson_bracket(s, t), u),
                    symbol_mul(t, poisson_bracket(s, u)),
                )
                assert (left.a, left.b, left.degree) == (right.a, right.b, right.degree)

    def test_antisymmetry_and_bilinearity(self):
        rng = random.Random(61)
        for _ in range(100):
            m = rng.randint(0, 2)
            space = SpaceSpec(m)
            l, n = rng.randint(1, 3), rng.randint(1, 3)
            s, s2 = random_symbol(space, l, rng), random_symbol(space, l, rng)
            t = random_symbol(space, n, rng)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            forward, backward = poisson_bracket(s, t), poisson_bracket(t, s)
            assert symbol_add(forward, backward).is_zero
            left = poisson_bracket(symbol_add(symbol_scale(s, c), s2), t)
            right = symbol_add(symbol_scale(poisson_bracket(s, t), c), poisson_bracket(s2, t))
            assert (left.a, left.b) == (right.a, right.b)
