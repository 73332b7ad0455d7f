"""Glued algebra: membership, arithmetic, plane extension and restriction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveglue.errors import EmbeddingError, ExactDivisionError, JetMismatch, SpaceMismatch
from curveglue.glued import (
    SpaceSpec,
    canonical_embedding,
    extend_to_plane,
    make_glued,
    random_glued,
    restrict_to_branches,
)
from curveglue.poly import Poly, Poly2

X = Poly.monomial(1)
K0, K1 = SpaceSpec(0), SpaceSpec(1)
RATIONALS = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=6)
)


class TestMakeGlued:
    def test_slope_mismatch(self):
        with pytest.raises(JetMismatch) as err:
            make_glued(X, 2 * X, K1)
        assert err.value.index == 1

    def test_higher_order_difference_ok(self):
        u = make_glued(X + Poly.monomial(2), X, K1)
        assert u.f != u.g

    @settings(max_examples=100)
    @given(
        st.lists(RATIONALS, max_size=7),
        RATIONALS,
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    )
    def test_mismatch_names_first_differing_index(self, coeffs, d, m, n):
        # f and g agree below x^n and differ at x^n, whatever follows.
        n = min(n, m)
        f = Poly.of(*coeffs)
        if d == f.coeff(n):
            d += 1
        g = f.jet(n - 1) + Poly.monomial(n, d) + Poly.monomial(n + 1, 5)
        with pytest.raises(JetMismatch) as err:
            make_glued(f, g, SpaceSpec(m))
        assert (err.value.index, err.value.left, err.value.right) == (n, f.coeff(n), d)
        assert str(err.value) == f"jet coefficient {n} differs between branches: {f.coeff(n)} != {d}"

    def test_cross_only_needs_values(self):
        u = make_glued(X, Poly.of(), K0)
        assert u.g.is_zero


class TestArithmetic:
    def test_square(self):
        u = make_glued(X, X, K1)
        assert u * u == make_glued(Poly.monomial(2), Poly.monomial(2), K1)

    def test_branch_supported_annihilate(self):
        u = make_glued(X, Poly.of(), K0)
        v = make_glued(Poly.of(), X, K0)
        w = u * v
        assert w.f.is_zero and w.g.is_zero

    def test_add(self):
        one = make_glued(Poly.of(1), Poly.of(1), SpaceSpec(2))
        u = make_glued(X, X, SpaceSpec(2))
        assert (one + u) == make_glued(Poly.of(1, 1), Poly.of(1, 1), SpaceSpec(2))

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            make_glued(X, X, K0) * make_glued(X, X, K1)

    def test_membership_preserved(self):
        rng = random.Random(11)
        for _ in range(200):
            m = rng.randint(0, 3)
            space = SpaceSpec(m)
            u, v = random_glued(space, rng), random_glued(space, rng)
            for w in (u + v, u * v):
                make_glued(w.f, w.g, space)  # raises on violation


class TestExtend:
    def test_linear_example(self):
        u = make_glued(X, X + Poly.monomial(2), K1)
        F = extend_to_plane(u, Poly.monomial(2))
        assert F == Poly2.of(X, Poly.of(1))  # x + y
        assert F.at_y_zero() == u.f
        assert F.substitute_y(Poly.monomial(2)) == u.g

    def test_equal_branches_give_no_y_term(self):
        u = make_glued(X, X, K1)
        assert extend_to_plane(u) == Poly2.of(X)

    def test_pure_y(self):
        u = make_glued(Poly.of(), Poly.monomial(2), K1)
        assert extend_to_plane(u, Poly.monomial(2)) == Poly2.of(Poly.of(), Poly.of(1))

    def test_embedding_order_checked(self):
        u = make_glued(X, X, K1)
        with pytest.raises(EmbeddingError):
            extend_to_plane(u, X)  # zero of order 1, need 2

    def test_custom_profile_inexact_division_reported(self):
        # g - f = x^2 is not divisible by x^2 + x^3.
        u = make_glued(X, X + Poly.monomial(2), K1)
        with pytest.raises(ExactDivisionError):
            extend_to_plane(u, Poly.monomial(2) + Poly.monomial(3))


class TestRestrict:
    def test_plane_line(self):
        u = restrict_to_branches(Poly2.of(X, Poly.of(1)), Poly.monomial(2), K1)
        assert u.f == X
        assert u.g == X + Poly.monomial(2)

    def test_xy(self):
        u = restrict_to_branches(Poly2.of(Poly.of(), X), Poly.monomial(2), K1)
        assert u.f.is_zero
        assert u.g == Poly.monomial(3)

    def test_constant(self):
        c = Poly.of(Fraction(7, 3))
        u = restrict_to_branches(Poly2.of(c), None, SpaceSpec(2))
        assert u.f == c and u.g == c

    def test_always_valid_for_random_surfaces(self):
        rng = random.Random(5)
        for _ in range(200):
            m = rng.randint(0, 3)
            space = SpaceSpec(m)
            slices = [
                Poly.of(*[Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))])
                for _ in range(rng.randint(1, 3))
            ]
            u = restrict_to_branches(Poly2.of(*slices), None, space)
            make_glued(u.f, u.g, space)  # membership holds by construction


def test_roundtrip_extend_restrict():
    rng = random.Random(23)
    for _ in range(100):
        m = rng.randint(0, 3)
        space = SpaceSpec(m)
        u = random_glued(space, rng, max_degree=m + 3)
        h = canonical_embedding(space)
        assert restrict_to_branches(extend_to_plane(u, h), h, space) == u
