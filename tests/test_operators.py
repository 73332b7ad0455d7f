"""Branch operators, delta chains, condition generation and admissibility."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curveglue.errors import AdmissibilityError, DegreeCapExceeded, OrderError, SpaceMismatch
from curveglue.glued import SpaceSpec, random_glued, make_glued
from curveglue.operators import (
    BranchOp,
    JetVar,
    check_admissible,
    commutator,
    compose,
    default_probe_degree,
    delta_reduce,
    generate_conditions,
    make_pair,
    pair_apply,
    pair_commutator,
    pair_compose,
    probe_admissible,
    render_linear,
    rref,
    spanning_family,
    verify_order,
)
from curveglue.operators import _delta_monomial, _generate, _variables
from curveglue.poly import ZERO, Poly, degree_cap, get_degree_cap, signed_sum
from curveglue.sampling import random_admissible_pair
from curveglue.symbols import SymbolVar, symbol_conditions

X = Poly.monomial(1)
X2 = Poly.monomial(2)
D = BranchOp.derivative()
XD = BranchOp.derivative(X)
K0, K1 = SpaceSpec(0), SpaceSpec(1)


def random_op(rng, k, max_degree=4):
    return BranchOp.of(
        *[
            Poly.of(*[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(max_degree + 1)])
            for _ in range(k + 1)
        ]
    )


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
branch_ops = st.lists(
    st.lists(small_fractions, max_size=4).map(lambda cs: Poly.of(*cs)), max_size=4
).map(lambda coeffs: BranchOp.of(*coeffs))


def _two_compositions(op_a, op_b):
    """The commutator as the difference of two full compositions."""
    return compose(op_a, op_b) - compose(op_b, op_a)


def _delta_chain_reference(op, k, probe_degree):
    """verify_order as a prefix-shared walk on BranchOps, each step one
    delta_reduce on Polys: the reference for the integer numerator kernel."""
    if k < 0:
        return op.is_zero

    def vanishes(reduced, steps, lowest):
        if reduced.is_zero:
            return True
        if not steps:
            return False
        return all(
            vanishes(delta_reduce(reduced, Poly.monomial(n)), steps - 1, n)
            for n in range(lowest, probe_degree + 1)
        )

    return vanishes(op, k + 1, 1)


def _chain_by_chain(op, k, probe_degree):
    """verify_order reducing every exponent multiset from the start, with
    each delta step as two full compositions."""
    if k < 0:
        return op.is_zero
    for exps in itertools.combinations_with_replacement(range(1, probe_degree + 1), k + 1):
        reduced = op
        for n in exps:
            reduced = _two_compositions(reduced, BranchOp.mult(Poly.monomial(n)))
            if reduced.is_zero:
                break
        if not reduced.is_zero:
            return False
    return True


class TestApply:
    def test_euler_on_cube(self):
        assert XD.apply(Poly.monomial(3)) == Poly.monomial(3, 3)

    def test_second_order_plus_identity(self):
        op = BranchOp.of(Poly.of(1), Poly.of(), Poly.of(1))  # d^2 + 1
        assert op.apply(X2) == Poly.of(2) + X2

    def test_zero_operator(self):
        assert BranchOp.of().apply(X2).is_zero


class TestCompose:
    def test_constant_coefficient_passes_through(self):
        assert compose(XD, D) == BranchOp.derivative(X, power=2)

    def test_noncommutative_order(self):
        # d (x d) = x d^2 + d; oracle: apply both sides to monomials.
        left = compose(D, XD)
        assert left == BranchOp.of(Poly.of(), Poly.of(1), X)
        for n in range(5):
            p = Poly.monomial(n)
            assert left.apply(p) == D.apply(XD.apply(p))

    def test_identity_multiplication(self):
        ident = BranchOp.mult(Poly.of(1))
        op = BranchOp.of(X, Poly.of(1, 1), X2)
        assert compose(op, ident) == op
        assert compose(ident, op) == op

    @settings(max_examples=200)
    @given(branch_ops, branch_ops)
    def test_matches_sequential_apply(self, a, b):
        with degree_cap(64):
            composed = compose(a, b)
            for n in range(6):
                p = Poly.monomial(n)
                assert composed.apply(p) == a.apply(b.apply(p))

    def test_associative(self):
        rng = random.Random(3)
        with degree_cap(64):
            for _ in range(50):
                a, b, c = (random_op(rng, rng.randint(0, 2), 3) for _ in range(3))
                assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestCommutator:
    def test_euler_with_derivative(self):
        assert commutator(XD, D) == BranchOp.of(Poly.of(), Poly.of(-1))

    def test_constant_coefficients_commute(self):
        assert commutator(D, BranchOp.derivative(power=2)).is_zero

    def test_quadratic_euler(self):
        # Feeds the Poisson bracket example: [x^2 d, x d] = -x^2 d.
        assert commutator(BranchOp.derivative(X2), XD) == BranchOp.derivative(-X2)

    def test_order_bound(self):
        rng = random.Random(17)
        with degree_cap(64):
            for _ in range(100):
                ka, kb = rng.randint(0, 3), rng.randint(0, 3)
                a, b = random_op(rng, ka, 3), random_op(rng, kb, 3)
                assert commutator(a, b).order <= ka + kb - 1

    @settings(max_examples=200)
    @given(branch_ops, branch_ops)
    def test_matches_two_compositions(self, a, b):
        with degree_cap(64):
            assert commutator(a, b) == _two_compositions(a, b)


class TestDeltaChains:
    def test_delta_x_of_derivative(self):
        assert delta_reduce(D, X) == BranchOp.mult(Poly.of(1))

    def test_multiplications_commute(self):
        assert delta_reduce(BranchOp.mult(Poly.of(2, 0, 5)), X).is_zero

    def test_delta_x_of_second_derivative(self):
        assert delta_reduce(BranchOp.derivative(power=2), X) == BranchOp.derivative(Poly.of(2))

    def test_verify_order_examples(self):
        op = BranchOp.of(Poly.of(), Poly.of(1), X)  # x d^2 + d
        assert verify_order(op, 2, probe_degree=6)
        assert not verify_order(op, 1, probe_degree=6)

    def test_multiplication_is_order_zero(self):
        assert verify_order(BranchOp.mult(Poly.of(1, 2, 3)), 0, probe_degree=4)

    def test_zero_operator(self):
        assert verify_order(BranchOp.of(), 0, probe_degree=4)

    def test_true_order_detected_on_random_ops(self):
        rng = random.Random(29)
        for _ in range(20):
            k = rng.randint(1, 3)
            op = random_op(rng, k, 3)
            while op.coeff(k).is_zero:
                op = random_op(rng, k, 3)
            depth = 2 * k + 2
            assert verify_order(op, k, probe_degree=depth)
            assert not verify_order(op, k - 1, probe_degree=depth)

    def test_matches_chain_by_chain_loop(self):
        rng = random.Random(43)
        verdicts = set()
        with degree_cap(128):
            for _ in range(60):
                op = random_op(rng, rng.randint(0, 4), 3)
                k, depth = rng.randint(-1, 3), rng.randint(0, 6)
                expected = _chain_by_chain(op, k, depth)
                assert verify_order(op, k, depth) == expected, (op, k, depth)
                verdicts.add(expected)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("k", [3, 4])
    def test_degree_four_coefficients_within_default_cap(self, k):
        # Each delta by x^8 adds at most 7 to the coefficient degree and
        # takes at least 1 from the order, so every reduced operator stays
        # within degree 4 + 7 * 4 = 32.  The r = 0 products of two full
        # compositions add 8 more: degree 33 at the fourth step.
        op = BranchOp.of(*(Poly.of(s + 1, -1, Fraction(1, 2), 2, 1) for s in range(k + 1)))
        assert get_degree_cap() == 32
        assert verify_order(op, k, probe_degree=8)
        assert not verify_order(op, k - 1, probe_degree=8)


def _verdict(order_check, op, k, probe_degree):
    """The verdict, or the arguments of the degree cap error it raised."""
    try:
        return order_check(op, k, probe_degree)
    except DegreeCapExceeded as exc:
        return exc.args, exc.degree, exc.cap


delta_ops = st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=7).map(
        lambda cs: Poly.of(*cs)
    ),
    max_size=6,
).map(lambda coeffs: BranchOp.of(*coeffs))


class TestDeltaChainKernel:
    @settings(max_examples=200)
    @given(delta_ops, st.integers(1, 9))
    @example(BranchOp.of(ZERO, Poly.of(-1), X), 2)  # [x d^2 - d, x^2] = 4x^2 d
    def test_step_matches_delta_reduce(self, op, n):
        den = math.lcm(*(a.den for a in op.coeffs))
        nums = [[c * (den // a.den) for c in a.nums] for a in op.coeffs]
        with degree_cap(128):
            expected = delta_reduce(op, Poly.monomial(n))
            step = _delta_monomial(nums, n, 128)
        assert [[Fraction(c, den) for c in a] for a in step] == [
            list(a.coeffs) for a in expected.coeffs
        ]

    def test_cap_error_names_the_first_product(self):
        # a_1 and a_2 both exceed the cap; the Poly walk multiplies a_1 first.
        op = BranchOp.of(ZERO, Poly.monomial(6), Poly.monomial(5))
        for order_check in (_delta_chain_reference, verify_order):
            with degree_cap(4), pytest.raises(DegreeCapExceeded) as exc:
                order_check(op, 1, 1)
            assert (exc.value.degree, exc.value.cap) == (6, 4)

    @settings(max_examples=150, deadline=None)
    @given(delta_ops, st.integers(-1, 4), st.integers(0, 9), st.integers(4, 40))
    def test_matches_poly_reference(self, op, k, probe_degree, cap):
        with degree_cap(cap):
            expected = _verdict(_delta_chain_reference, op, k, probe_degree)
            assert _verdict(verify_order, op, k, probe_degree) == expected

    @settings(max_examples=150, deadline=None)
    @given(delta_ops, st.integers(-1, 4), st.integers(1, 8))
    def test_order_theorem(self, op, k, probe_degree):
        # Deltas by x alone lower the top coefficient p a_p d^p to a nonzero
        # multiple of a_p d^(p-1), so any probe degree >= 1 detects the order.
        with degree_cap(128):
            assert verify_order(op, k, probe_degree) == (op.order <= k)


def _named_row(conditions, terms):
    """Row vector for a hand-written condition given as {(branch, s, r): coeff}."""
    index = {v: i for i, v in enumerate(conditions.variables)}
    row = [Fraction(0)] * len(conditions.variables)
    for (branch, s, r), c in terms.items():
        row[index[JetVar(branch, s, r)]] = Fraction(c)
    return row


def _same_row_space(conditions, expected_rows):
    ours = rref(dict(enumerate(r)) for r in conditions.rows)
    return ours == rref(dict(enumerate(r)) for r in expected_rows)


class TestGeneratedConditionsMatchHandTables:
    def test_cross_table(self):
        # a_0(0) = b_0(0); a_i(0) = 0 = b_i(0) for i = 1..k.
        for k in range(4):
            conditions = generate_conditions(K0, k)
            rows = [_named_row(conditions, {("a", 0, 0): 1, ("b", 0, 0): -1})]
            for i in range(1, k + 1):
                rows.append(_named_row(conditions, {("a", i, 0): 1}))
                rows.append(_named_row(conditions, {("b", i, 0): 1}))
            assert _same_row_space(conditions, rows)

    def test_contact_one_tables(self):
        eq = lambda s, r: [
            ({("a", s, r): 1, ("b", s, r): -1}),
        ]
        tables = {
            0: eq(0, 0) + eq(0, 1),
            1: eq(0, 0) + eq(0, 1)
            + [{("a", 1, 0): 1}, {("b", 1, 0): 1}]
            + eq(1, 1),
            2: eq(0, 0) + eq(0, 1) + eq(1, 0) + eq(1, 1)
            + [
                {("a", 2, 0): 1},
                {("b", 2, 0): 1},
                {("a", 2, 1): 1, ("a", 1, 0): 1},
                # the y-branch row also couples to a_1: b'_2(0) + a_1(0) = 0
                {("b", 2, 1): 1, ("a", 1, 0): 1},
            ],
            3: None,  # built below from the order-2 table
        }
        tables[3] = tables[2] + [
            {("a", 3, 0): 1},
            {("b", 3, 0): 1},
            {("a", 3, 1): 1},
            {("b", 3, 1): 1},
        ]
        for k, rows in tables.items():
            conditions = generate_conditions(K1, k)
            assert _same_row_space(conditions, [_named_row(conditions, t) for t in rows]), k


def _gauss_jordan(rows, ncols):
    """Textbook dense Gauss-Jordan elimination over the rationals: pivot rows
    sorted by pivot column, zero rows dropped."""
    rows = [[Fraction(v) for v in row] for row in rows]
    out = []
    for col in range(ncols):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [v / pivot[col] for v in pivot]
        for row in rows + out:
            if row[col]:
                factor = row[col]
                row[:] = [a - factor * b for a, b in zip(row, pivot)]
        out.append(pivot)
    return [tuple(row) for row in out]


def _defining_row(variables, f, g, i):
    """Dense row of the equation (D1 f)^(i)(0) = (D2 g)^(i)(0) in the jet unknowns.

    (D f)^(i)(0) = sum_s sum_{r<=i} C(i,r) a_s^(r)(0) f^(s+i-r)(0)."""
    row = []
    for var in variables:
        if var.r > i:
            row.append(Fraction(0))
            continue
        p = f if var.branch == "a" else g
        value = math.comb(i, var.r) * p.deriv_at_zero(var.s + i - var.r)
        row.append(value if var.branch == "a" else -value)
    return row


class TestSparseElimination:
    """The sparse rows and the sparse rref, checked against the dense row
    build over the spanning family and a dense elimination."""

    def test_generated_rows_match_dense_build(self):
        for m in range(5):
            for k in range(7):
                variables = _variables(m, k)
                family = spanning_family(SpaceSpec(m), max_diag=k + m, max_branch=k + m + 1)
                dense = [_defining_row(variables, f, g, i) for f, g in family for i in range(m + 1)]
                assert _generate(m, k).rows == tuple(_gauss_jordan(dense, len(variables))), (m, k)

    @settings(max_examples=200)
    @given(st.data())
    def test_rref_matches_dense_gauss_jordan(self, data):
        ncols = data.draw(st.integers(min_value=1, max_value=6))
        entries = st.lists(st.integers(-4, 4) | st.just(0), min_size=ncols, max_size=ncols)
        rows = data.draw(st.lists(entries, max_size=8))
        rows += [[0] * ncols] + rows[:1]  # a zero row and a duplicate row
        sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
        dense = [tuple(row.get(c, 0) for c in range(ncols)) for row in rref(sparse)]
        assert dense == _gauss_jordan(rows, ncols)


def _two_branch_rows(m, k):
    """Sparse rows of (D1 f)^(i)(0) = (D2 g)^(i)(0), i <= m, over the whole
    spanning family, both branches, each entry C(i,r) n! (negated on branch b);
    empty rows skipped."""
    column = {v: c for c, v in enumerate(_variables(m, k))}
    for f, g in spanning_family(SpaceSpec(m), max_diag=k + m, max_branch=k + m + 1):
        terms = [
            (branch, p.degree, sign * math.factorial(p.degree))
            for branch, p, sign in (("a", f, 1), ("b", g, -1))
            if p
        ]
        for i in range(m + 1):
            row = {}
            for branch, n, value in terms:
                for r in range(max(0, i - n), min(i, k + i - n) + 1):
                    row[column[JetVar(branch, n - i + r, r)]] = math.comb(i, r) * value
            if row:
                yield row


def _projected_stratum(m, k):
    """The degree stratum by elimination: rref of the order-k system with the
    lower unknowns moved first, keeping the rows whose pivot is a top unknown."""
    full = _generate(m, k)
    variables = full.variables
    other = [i for i, v in enumerate(variables) if v.s != k]
    top = [i for i, v in enumerate(variables) if v.s == k]
    column = {old: new for new, old in enumerate(other + top)}
    reduced = rref({column[c]: v for c, v in row.items()} for row in full.sparse_rows)
    kept = [{c - len(other): v for c, v in row.items()} for row in reduced if min(row) >= len(other)]
    return tuple(SymbolVar(variables[i].branch, variables[i].r) for i in top), kept


def _items(rows):
    return [list(row.items()) for row in rows]


class TestConditionsMatchElimination:
    """Branch-a elimination mirrored to b, and the closed-form stratum, against
    eliminating the whole two-branch system."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 12))
    def test_generate_matches_two_branch_rref(self, m, k):
        assert _items(_generate(m, k).sparse_rows) == _items(rref(_two_branch_rows(m, k)))

    def test_symbol_conditions_match_projection(self):
        for m in range(9):
            for k in range(13):
                variables, rows = _projected_stratum(m, k)
                stratum = symbol_conditions(m, k)
                assert stratum.variables == variables, (m, k)
                assert _items(stratum.sparse_rows) == _items(rows), (m, k)
                assert stratum.rendered == tuple(render_linear(row, variables) for row in rows)


def _dense_render(row, variables):
    """Dense reference renderer: walk every column, skipping zeros."""
    return signed_sum((c, v.name) for c, v in zip(row, variables)) + " = 0"


class TestSparseRowsMatchDenseReference:
    """``rendered`` and ``violations`` read only the sparse rows; a dense walk
    over the same rows is the reference."""

    @pytest.mark.parametrize("m", range(6))
    def test_render_violations_and_row_order(self, m):
        rng = random.Random(m)
        verdicts = set()
        for k in range(7):
            for conditions in (_generate(m, k), symbol_conditions(m, k)):
                variables, dense = conditions.variables, conditions.rows
                assert conditions.rendered == tuple(_dense_render(row, variables) for row in dense)
                choices = [0, 0, 1, -1, Fraction(1, 2), Fraction(-3, 2)]
                values = {v: rng.choice(choices) for v in variables}
                expected = []
                for row in dense:
                    lhs = sum(c * values[v] for c, v in zip(row, variables))
                    verdicts.add(bool(lhs))
                    if lhs:
                        expected.append((_dense_render(row, variables), lhs))
                got = [(v.constraint, v.lhs) for v in conditions.violations(values)]
                assert got == expected, (m, k)
                for row in conditions.sparse_rows:
                    columns = list(row)
                    assert all(a < b for a, b in zip(columns, columns[1:])), (m, k, row)
                    assert row[columns[0]] == 1
        assert verdicts == {True, False}


class TestCheckAdmissible:
    def test_plain_derivatives_fail_on_cross(self):
        report = check_admissible(D, D, K0, 1)
        assert not report.ok
        assert any(v.constraint == "a1(0) = 0" and v.lhs == 1 for v in report.violations)

    def test_euler_pair_on_contact_one(self):
        assert check_admissible(XD, XD, K1, 1).ok

    def test_second_order_example(self):
        op = BranchOp.of(Poly.of(), Poly.of(-1), X)  # x d^2 - d
        assert check_admissible(op, op, K1, 2).ok

    def test_order_precondition(self):
        with pytest.raises(OrderError):
            check_admissible(BranchOp.derivative(power=2), D, K0, 1)


class TestProbe:
    def test_agrees_on_failing_pair(self):
        assert not probe_admissible(D, D, K0, default_probe_degree(K0, 1))

    def test_square_coefficients(self):
        op = BranchOp.derivative(X2, power=2)
        assert probe_admissible(op, op, K1, default_probe_degree(K1, 2))

    def test_euler_on_cross(self):
        assert probe_admissible(XD, XD, K0, default_probe_degree(K0, 1))

    def test_minimum_depth_agrees_with_check(self):
        # (D f)^(i)(0), i <= m, reads f only up to x^(k+m).
        rng = random.Random(103)
        verdicts = set()
        for _ in range(100):
            space = SpaceSpec(rng.randint(0, 2))
            k = rng.randint(0, 4)
            pair = random_admissible_pair(space, k, rng)
            d1, d2 = pair.d1, pair.d2
            if rng.randint(0, 1):
                d1 = d1 + BranchOp.derivative(Poly.monomial(rng.randint(0, space.m)), rng.randint(0, k))
            generated = check_admissible(d1, d2, space, k).ok
            assert probe_admissible(d1, d2, space, k + space.m) == generated
            verdicts.add(generated)
        assert verdicts == {True, False}

    def test_oracle_equivalence_random(self):
        rng = random.Random(101)
        for _ in range(150):
            m = rng.randint(0, 2)
            space = SpaceSpec(m)
            k = rng.randint(0, 4)
            d1, d2 = random_op(rng, k), random_op(rng, k)
            generated = check_admissible(d1, d2, space, k).ok
            probed = probe_admissible(d1, d2, space, default_probe_degree(space, k))
            assert generated == probed


class TestPairs:
    def test_make_pair_rejects(self):
        with pytest.raises(AdmissibilityError):
            make_pair(D, D, K0)

    def test_pair_apply_euler(self):
        pair = make_pair(XD, XD, K1)
        u = make_glued(X, X, K1)
        assert pair_apply(pair, u) == u

    def test_pair_apply_zero(self):
        pair = make_pair(BranchOp.of(), BranchOp.of(), K1, order=1)
        u = make_glued(X, X, K1)
        out = pair_apply(pair, u)
        assert out.f.is_zero and out.g.is_zero

    def test_pair_apply_preserves_membership(self):
        rng = random.Random(41)
        for _ in range(300):
            m = rng.randint(0, 2)
            space = SpaceSpec(m)
            pair = random_admissible_pair(space, rng.randint(0, 3), rng)
            u = random_glued(space, rng)
            pair_apply(pair, u)  # raises JetMismatch if the diagram breaks

    def test_euler_squared(self):
        pair = make_pair(XD, XD, K1)
        square = pair_compose(pair, pair)
        assert square.order == 2
        assert square.d1 == BranchOp.of(Poly.of(), X, X2)

    def test_compose_with_identity(self):
        pair = make_pair(XD, XD, K1)
        one = Poly.of(1)
        ident = make_pair(BranchOp.mult(one), BranchOp.mult(one), K1)
        composed = pair_compose(pair, ident)
        assert (composed.d1, composed.d2) == (pair.d1, pair.d2)

    def test_space_mismatch(self):
        on_k0, on_k1 = make_pair(XD, XD, K0), make_pair(XD, XD, K1)
        with pytest.raises(SpaceMismatch, match="spaces differ: K0 vs K1"):
            pair_apply(on_k0, make_glued(X, X, K1))
        with pytest.raises(SpaceMismatch, match="spaces differ: K0 vs K1"):
            pair_compose(on_k0, on_k1)
        with pytest.raises(SpaceMismatch, match="spaces differ: K1 vs K0"):
            pair_commutator(on_k1, on_k0)

    def test_closure_example(self):
        a = make_pair(XD, XD, K1)
        b = make_pair(BranchOp.derivative(X2, power=2), BranchOp.derivative(X2, power=2), K1)
        composed = pair_compose(a, b)
        assert composed.order == 3
        assert check_admissible(composed.d1, composed.d2, K1, 3).ok

    def test_closure_random(self):
        rng = random.Random(59)
        with degree_cap(64):
            for _ in range(100):
                m = rng.randint(0, 2)
                space = SpaceSpec(m)
                a = random_admissible_pair(space, rng.randint(0, 3), rng, max_degree=3)
                b = random_admissible_pair(space, rng.randint(0, 3), rng, max_degree=3)
                pair_compose(a, b)  # raises ClosureBugError on failure
                pair_commutator(a, b)
