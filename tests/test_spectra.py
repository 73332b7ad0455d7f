"""Characters, separating witnesses and the symbol-nullity identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveglue.errors import OrderError, UnsupportedSpaceError
from curveglue.glued import SpaceSpec, make_glued, random_glued
from curveglue.poly import Poly
from curveglue.sampling import random_symbol
from curveglue.spectra import (
    SINGULAR,
    char_eval,
    make_character,
    maximal_ideal_factor,
    nullity_identity_check,
    separating_witness,
)
from curveglue.symbols import SymbolElem, check_symbol_conditions, make_symbol, symbol_mul, zero_symbol

X = Poly.monomial(1)
K0, K1 = SpaceSpec(0), SpaceSpec(1)
BRANCH_X_ONLY = make_glued(X, Poly.of(), K0)


class TestCharEval:
    def test_branch_one(self):
        assert char_eval(make_character(1, 2), BRANCH_X_ONLY) == 2

    def test_branch_two(self):
        assert char_eval(make_character(2, 2), BRANCH_X_ONLY) == 0

    def test_singular_forced_by_gluing(self):
        u = make_glued(Poly.of(5, 1), Poly.of(5, 2), K0)
        assert char_eval(make_character(SINGULAR, 0), u) == 5

    def test_branch_origin_canonicalizes(self):
        assert make_character(1, 0) == make_character(2, 0) == make_character(SINGULAR, 0)

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError, match="branch must be 1, 2 or 'sing'"):
            make_character(3, 1)

    @pytest.mark.parametrize("branch", [True, False, 1.0, 2.0, Fraction(1), "1"])
    def test_branch_must_be_the_int_1_or_2(self, branch):
        # The printer writes the branch as given, so anything else would not
        # read back as 'char branch=<1|2|sing> at=<rational>'.
        with pytest.raises(ValueError, match="branch must be 1, 2 or 'sing'"):
            make_character(branch, 1)


# make_character over every branch and base point: (branch, base_point) of
# the result, or the ValueError's text.
MISPLACED = "the singular character sits at base point 0"
UNKNOWN = "branch must be 1, 2 or 'sing'"
CHARACTER_TABLE = {
    (1, 0): (SINGULAR, 0), (1, "1/2"): (1, Fraction(1, 2)), (1, -1): (1, -1),
    (2, 0): (SINGULAR, 0), (2, "1/2"): (2, Fraction(1, 2)), (2, -1): (2, -1),
    (SINGULAR, 0): (SINGULAR, 0), (SINGULAR, "1/2"): MISPLACED, (SINGULAR, -1): MISPLACED,
    (3, 0): UNKNOWN, (3, "1/2"): UNKNOWN, (3, -1): UNKNOWN,
    ("x", 0): UNKNOWN, ("x", "1/2"): UNKNOWN, ("x", -1): UNKNOWN,
}


@pytest.mark.parametrize("branch,base_point", list(CHARACTER_TABLE))
def test_make_character_table(branch, base_point):
    expected = CHARACTER_TABLE[branch, base_point]
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            make_character(branch, base_point)
        assert str(err.value) == expected
    else:
        c = make_character(branch, base_point)
        assert tuple(c) == expected
        assert type(c.base_point) is Fraction


def test_character_str_is_the_dsl_line():
    assert str(make_character(2, "-3/2")) == "char branch=2 at=-3/2"
    assert str(make_character(1, 0)) == "char branch=sing at=0"


def is_homomorphism(fn, space, samples=100, seed=0):
    """Unitality, additivity and multiplicativity of fn on random glued pairs."""
    rng = random.Random(seed)
    if fn(make_glued(Poly.of(1), Poly.of(1), space)) != 1:
        return False
    for _ in range(samples):
        u, v = random_glued(space, rng), random_glued(space, rng)
        if fn(u + v) != fn(u) + fn(v) or fn(u * v) != fn(u) * fn(v):
            return False
    return True


class TestCharEvalHomomorphism:
    def test_evaluation_characters_pass(self):
        for m in range(3):
            for c in (make_character(1, 2), make_character(2, Fraction(-1, 2))):
                assert is_homomorphism(lambda u: char_eval(c, u), SpaceSpec(m))

    def test_non_character_detected(self):
        assert not is_homomorphism(lambda u: u.f(1) + u.g(1), K0)

    def test_singular_character(self):
        c = make_character(SINGULAR, 0)
        for m in range(3):
            assert is_homomorphism(lambda u: char_eval(c, u), SpaceSpec(m))


class TestSeparatingWitness:
    def test_cross_branch_points(self):
        w = separating_witness(make_character(1, 1), make_character(2, 1), K0, max_degree=3)
        assert w is not None
        assert char_eval(make_character(1, 1), w) != char_eval(make_character(2, 1), w)

    def test_glued_point_has_no_witness(self):
        for m in range(3):
            w = separating_witness(make_character(1, 0), make_character(2, 0), SpaceSpec(m), max_degree=m + 4)
            assert w is None

    def test_same_branch_distinct_points(self):
        w = separating_witness(make_character(1, 1), make_character(1, 2), K1, max_degree=4)
        assert w == make_glued(X, X, K1)

    def test_exhaustive_iff_same_point(self):
        points = [Fraction(t) for t in (-2, -1, 0, 1, 2)]
        for m in range(3):
            space = SpaceSpec(m)
            chars = {make_character(b, t) for b in (1, 2) for t in points}
            for c1 in chars:
                for c2 in chars:
                    w = separating_witness(c1, c2, space, max_degree=m + 3)
                    assert (w is None) == (c1 == c2)


class TestMaximalIdealFactor:
    def test_degree_one(self):
        s = SymbolElem(1, X, -X, K0)
        g, t = maximal_ideal_factor(s)
        assert (g.degree, g.a, g.b) == (0, X, X)
        assert (t.a, t.b, t.degree) == (X, X, 2)

    def test_higher_coefficient(self):
        s = SymbolElem(1, Poly.monomial(2), Poly.monomial(2), K0)
        g, t = maximal_ideal_factor(s)
        assert (t.a, t.b) == (Poly.monomial(3), Poly.monomial(3))

    def test_zero_symbol(self):
        g, t = maximal_ideal_factor(zero_symbol(1, K0))
        assert t.is_zero

    def test_preconditions(self):
        g, t = maximal_ideal_factor(make_symbol(1, X, X, K1))
        assert (g.degree, g.a, g.b) == (0, X, X)
        assert t == SymbolElem(3, Poly.monomial(2), Poly.monomial(2), K1)
        with pytest.raises(OrderError):
            maximal_ideal_factor(zero_symbol(0, K0))
        with pytest.raises(OrderError):
            maximal_ideal_factor(SymbolElem(1, X, -X, K1))

    def test_identity_random(self):
        rng = random.Random(71)
        for _ in range(200):
            s = random_symbol(K0, rng.randint(1, 3), rng)
            g, t = maximal_ideal_factor(s)
            square, product = symbol_mul(s, s), symbol_mul(g, t)
            assert (square.a, square.b) == (product.a, product.b)
            assert char_eval(make_character(SINGULAR, 0), make_glued(g.a, g.b, K0)) == 0


    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_power_factors_on_every_contact_order(self, m, degree, seed):
        space = SpaceSpec(m)
        s = random_symbol(space, degree, random.Random(seed), max_degree=2)
        g, t = maximal_ideal_factor(s)
        power = s
        for _ in range(m + 1):
            power = symbol_mul(power, s)
        assert power == symbol_mul(g, t)
        assert check_symbol_conditions(t).ok
        assert char_eval(make_character(SINGULAR, 0), make_glued(g.a, g.b, space)) == 0


class TestNullityIdentities:
    def test_cross(self):
        checks = nullity_identity_check(K0)
        assert checks and all(c.passed for c in checks)

    def test_contact_one_cube(self):
        checks = nullity_identity_check(K1)
        assert any(c.name == "cube identity" and c.passed for c in checks)
        assert all(c.passed for c in checks)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedSpaceError):
            nullity_identity_check(SpaceSpec(2))
