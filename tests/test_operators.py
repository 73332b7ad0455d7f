"""Branch operators, delta chains, condition generation and admissibility."""

import gc
import hashlib
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curveglue.errors import (
    AdmissibilityError,
    ClosureBugError,
    DegreeCapExceeded,
    OrderError,
    SpaceMismatch,
)
from curveglue.glued import SpaceSpec, random_glued, make_glued
from curveglue.operators import (
    AdmissibilityReport,
    BranchOp,
    JetVar,
    SymbolVar,
    Violation,
    check_admissible,
    commutator,
    compose,
    default_probe_degree,
    generate_conditions,
    make_pair,
    pair_apply,
    pair_commutator,
    pair_compose,
    probe_admissible,
    spanning_family,
    verify_order,
)
from curveglue import operators
from curveglue.operators import _apply, _column, _generate, _jet_values, _leibniz, _Unknowns
from curveglue import dsl
from curveglue.dsl import render_paired
from curveglue.poly import ZERO, Poly, _poly, _trim, degree_cap, get_degree_cap, poly_str, signed_sum
from curveglue.sampling import random_admissible_pair, random_symbol, solve_homogeneous
from curveglue.symbols import (
    bracket_via_commutator,
    pair_symbol,
    poisson_bracket,
    symbol_add,
    symbol_conditions,
    symbol_mul,
)

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


def _apply_reference(op, p):
    """D p as a walk over a_i p^(i) on Polys: the oracle for the integer
    apply kernel, product for product, so a degree cap error names the
    first i ascending with a_i and p^(i) nonzero whose product passes it."""
    result = ZERO
    deriv = p
    for i, a in enumerate(op.coeffs):
        if i:
            deriv = deriv.derive()
        if not a.is_zero:
            result = result + a * deriv
    return result


def _leibniz_reference(a, b, first):
    """The terms r >= first of a_i d^i (b_j d^j .) = sum_r C(i,r) a_i b_j^(r) d^(i-r+j)
    on integer numerator arrays, as a triple loop over (i, j, r) with each
    product a_i b_j^(r) formed term by term: the oracle for the packed
    kernel, product for product, so a degree cap error names the first
    product above the cap in the order i, j, r ascending.

    Each b_j's nonzero derivatives up to the order of a are taken once."""
    cap = get_degree_cap()
    chains = []
    for bj in b:
        chain = [bj] if bj else []
        while chain and len(chain) < len(a) and (bj := [c * t for t, c in enumerate(bj) if t]):
            chain.append(bj)
        chains.append(chain)
    out = [[] for _ in range(len(a) + len(b) - 1 - first)]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, chain in enumerate(chains):
            for r in range(first, min(i + 1, len(chain))):
                br = chain[r]
                degree = len(br) + len(ai) - 2
                if degree > cap:
                    raise DegreeCapExceeded(degree, cap)
                scale = math.comb(i, r)
                target = out[i - r + j]
                target.extend([0] * (degree + 1 - len(target)))
                for s, c in enumerate(br):
                    if c:
                        c *= scale
                        for t, x in enumerate(ai, s):
                            target[t] += c * x
    for target in out:
        while target and not target[-1]:
            target.pop()
    while out and not out[-1]:
        out.pop()
    return out


def _two_compositions(op_a, op_b):
    """The commutator as the difference of two full compositions."""
    return compose(op_a, op_b) - compose(op_b, op_a)


def _poly_leibniz(op_a, op_b, first):
    """The terms r >= first of a_i d^i (b_j d^j .) = a_i sum_r C(i,r) b_j^(r) d^(i-r+j),
    walked on Polys: the reference for the integer numerator kernel.

    Each b_j's nonzero derivatives up to the order of op_a are taken once;
    the products run in the order i, j, r ascending, so a degree cap error
    names the same product as the kernel's."""
    chains = []
    for b in op_b.coeffs:
        chain = [b] if b else []
        while chain and len(chain) < len(op_a.coeffs) and (b := b.derive()):
            chain.append(b)
        chains.append(chain)
    out = {}
    for i, a in enumerate(op_a.coeffs):
        if a.is_zero:
            continue
        for j, chain in enumerate(chains):
            for r in range(first, min(i + 1, len(chain))):
                d = i - r + j
                out[d] = out.get(d, ZERO) + (math.comb(i, r) * chain[r]) * a
    top = max(out) if out else -1
    return BranchOp.of(*(out.get(d, ZERO) for d in range(top + 1)))


def _compose_reference(op_a, op_b):
    return _poly_leibniz(op_a, op_b, 0)


def _commutator_reference(op_a, op_b):
    return _poly_leibniz(op_a, op_b, 1) - _poly_leibniz(op_b, op_a, 1)


def _delta_reduce_reference(op, a):
    return _poly_leibniz(op, BranchOp.of(a), 1)


def _delta_chain_reference(op, k, probe_degree):
    """The order check over every exponent multiset in 1..probe_degree, as a
    prefix-shared walk on BranchOps, each step one delta by x^n on Polys:
    the oracle for verify_order's single chain by the generator x."""
    if k < 0:
        return op.is_zero

    def vanishes(reduced, steps, lowest):
        if reduced.is_zero:
            return True
        if not steps:
            return False
        return all(
            vanishes(_delta_reduce_reference(reduced, Poly.monomial(n)), steps - 1, n)
            for n in range(lowest, probe_degree + 1)
        )

    return vanishes(op, k + 1, 1)


def _chain_by_chain(op, k, probe_degree):
    """The walk reducing every exponent multiset from the start, with each
    delta step as two full compositions."""
    if k < 0:
        return op.is_zero
    for exps in itertools.combinations_with_replacement(range(1, probe_degree + 1), k + 1):
        reduced = op
        for n in exps:
            reduced = _two_compositions(reduced, BranchOp.of(Poly.monomial(n)))
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
        ident = BranchOp.of(Poly.of(1))
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


def _assert_canonical(op):
    """Integer rows as tuples with no trailing zero and no trailing empty
    row, over a positive denominator that shares no factor with every entry."""
    rows, den = op
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert all(type(c) is int for row in rows for c in row) and type(den) is int
    assert den > 0 and math.gcd(den, *itertools.chain.from_iterable(rows)) == 1
    assert all(row[-1] for row in rows if row) and (not rows or rows[-1])


def _render_op_reference(op, declared_order, var):
    """render_op as one poly_str per coefficient Poly."""
    order = max(len(op.coeffs) - 1, 0) if declared_order is None else declared_order
    lines = [f"op order={order}"]
    for i in range(order, -1, -1):
        coeff = op.coeff(i)
        if not coeff.is_zero:
            lines.append(f"coeff {i}: {poly_str(coeff, var)}")
    return "\n".join(lines)


# Denominators up to 12 and numerators with common factors, so the
# denominator lcm and the result gcd both have work to do.
wide_ops = st.lists(
    st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), max_size=5).map(
        lambda cs: Poly.of(*cs)
    ),
    max_size=4,
).map(lambda coeffs: BranchOp.of(*coeffs))


class TestRepresentation:
    """BranchOp holds integer rows over one denominator in canonical form."""

    @settings(max_examples=200, deadline=None)
    @given(wide_ops, wide_ops)
    def test_every_construction_is_canonical(self, a, b):
        with degree_cap(64):
            built = [a, b, a + b, a - b, -a, a - a, compose(a, b), commutator(a, b)]
        order = max(a.order, b.order, 0)
        parsed = dsl.parse_paired(render_paired(dsl.ParsedPair(a, b, order)))
        for op in built + [parsed.d1, parsed.d2]:
            _assert_canonical(op)
        assert (parsed.d1, parsed.d2) == (a, b)

    @settings(max_examples=200, deadline=None)
    @given(wide_ops)
    def test_coeffs_rebuild_the_operator(self, op):
        assert all(type(c) is Poly for c in op.coeffs)
        assert BranchOp.of(*op.coeffs) == op
        assert [op.coeff(i) for i in range(-1, len(op.rows) + 1)] == [ZERO, *op.coeffs, ZERO]

    @settings(max_examples=200, deadline=None)
    @given(wide_ops, wide_ops)
    def test_equal_operators_hash_equal(self, a, b):
        # Pairs of one value built by different paths.
        with degree_cap(64):
            pairs = [
                ((a + b) - b, a),
                (a + b, b + a),
                (-(-a), a),
                (compose(a, b), _compose_reference(a, b)),
                (commutator(a, b), _two_compositions(a, b)),
                (commutator(a, b), -commutator(b, a)),
            ]
        for left, right in pairs:
            assert left == right and hash(left) == hash(right)

    @settings(max_examples=200, deadline=None)
    @given(wide_ops, st.none() | st.integers(0, 5), st.sampled_from("xy"))
    def test_render_matches_per_coefficient_rendering(self, op, declared_order, var):
        assert dsl.render_op(op, declared_order, var) == _render_op_reference(op, declared_order, var)

    def test_zero_operator(self):
        assert BranchOp.of() == BranchOp.of(ZERO, ZERO) == D - D == BranchOp((), 1)
        assert repr(BranchOp.of()) == "BranchOp(coeffs=())"

    def test_str_is_the_dsl_block(self):
        op = BranchOp.of(Poly.of(1), Poly.of(0, Fraction(1, 2)))
        assert str(op) == "op order=1\ncoeff 1: 1/2*x\ncoeff 0: 1"
        assert str(BranchOp.of()) == "op order=0"


class TestDeltaChains:
    # delta_a is the commutator with multiplication by a, an order-0 operator.
    def test_delta_x_of_derivative(self):
        assert commutator(D, BranchOp.of(X)) == BranchOp.of(Poly.of(1))

    def test_multiplications_commute(self):
        assert commutator(BranchOp.of(Poly.of(2, 0, 5)), BranchOp.of(X)).is_zero

    def test_delta_x_of_second_derivative(self):
        expected = BranchOp.derivative(Poly.of(2))
        assert commutator(BranchOp.derivative(power=2), BranchOp.of(X)) == expected

    def test_verify_order_examples(self):
        op = BranchOp.of(Poly.of(), Poly.of(1), X)  # x d^2 + d
        assert verify_order(op, 2, probe_degree=6)
        assert not verify_order(op, 1, probe_degree=6)

    def test_multiplication_is_order_zero(self):
        assert verify_order(BranchOp.of(Poly.of(1, 2, 3)), 0, probe_degree=4)

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
        # Each delta by x keeps the coefficient degrees, so every reduced
        # operator stays at degree 4, whatever the probe degree.  Deltas by
        # x^8 would add up to 7 per step: degree 4 + 7 * 4 = 32 at k = 4.
        op = BranchOp.of(*(Poly.of(s + 1, -1, Fraction(1, 2), 2, 1) for s in range(k + 1)))
        assert get_degree_cap() == 32
        assert verify_order(op, k, probe_degree=8)
        assert not verify_order(op, k - 1, probe_degree=8)


def _outcome(function, *args):
    """The result, or the arguments of the degree cap error raised."""
    try:
        return function(*args)
    except DegreeCapExceeded as exc:
        return exc.args, exc.degree, exc.cap


delta_polys = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=7).map(
    lambda cs: Poly.of(*cs)
)
delta_ops = st.lists(delta_polys, max_size=6).map(lambda coeffs: BranchOp.of(*coeffs))


class TestDeltaChainKernel:
    @settings(max_examples=200)
    @given(delta_ops, st.integers(1, 9))
    @example(BranchOp.of(ZERO, Poly.of(-1), X), 2)  # [x d^2 - d, x^2] = 4x^2 d
    def test_step_matches_commutator_by_monomial(self, op, n):
        # One delta step by x^n through the kernel, on the integer numerators.
        nums, den = op.rows, op.den
        with degree_cap(128):
            expected = commutator(op, BranchOp.of(Poly.monomial(n)))
            step = _leibniz(nums, [[0] * n + [1]], 1)
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
    @given(delta_ops, delta_ops, delta_polys, st.integers(4, 40))
    @example(BranchOp.of(ZERO, Poly.of(-1), X), D, X2, 40)  # [x d^2 - d, x^2] = 4x^2 d
    def test_matches_poly_reference(self, a, b, p, cap):
        # Results and degree cap errors, product for product, of compose,
        # commutator, one delta step and apply against the Poly walks.
        with degree_cap(cap):
            for function, reference, args in (
                (compose, _compose_reference, (a, b)),
                (commutator, _commutator_reference, (a, b)),
                (lambda op, p: commutator(op, BranchOp.of(p)), _delta_reduce_reference, (a, p)),
                (BranchOp.apply, _apply_reference, (a, p)),
            ):
                assert _outcome(function, *args) == _outcome(reference, *args), function

    @settings(max_examples=150, deadline=None)
    @given(delta_ops, st.integers(-1, 4), st.integers(0, 9), st.integers(4, 40))
    @example(BranchOp.of(ZERO, Poly.monomial(4)), 1, 2, 4)  # the walk's [x^4 d, x^2] has degree 5
    def test_matches_walk_over_exponents(self, op, k, probe_degree, cap):
        # The one x-chain gives the walk's verdict.  Where the walk's deeper
        # steps by x^n pass the cap, the chain still decides, or raises on
        # its first step by x, which the walk also takes first.
        with degree_cap(cap):
            expected = _outcome(_delta_chain_reference, op, k, probe_degree)
            outcome = _outcome(verify_order, op, k, probe_degree)
        if isinstance(expected, bool):
            assert outcome == expected
        else:
            assert outcome in (op.order <= k, expected)

    @settings(max_examples=150, deadline=None)
    @given(delta_ops, st.integers(-1, 4), st.integers(1, 9), st.data())
    def test_order_theorem(self, op, k, probe_degree, data):
        # Deltas by x alone lower the top coefficient p a_p d^p to a nonzero
        # multiple of a_p d^(p-1), and keep every coefficient degree, so any
        # probe degree >= 1 detects the order under a cap that op meets.
        top = max((a.degree for a in op.coeffs), default=0)
        with degree_cap(data.draw(st.integers(max(top, 1), 40), label="cap")):
            assert verify_order(op, k, probe_degree) == (op.order <= k)


# Entries of every height the width bound must cover: up to 10^60; full
# heights 2^b - 1 with alternating signs, so products meet no cancellation;
# and sparse arrays of units among zeros, all with lengths up to 9.  An
# operator repeating one array adds up as many equal products as it can.
# Operators are trimmed as the kernel takes them: no trailing zero in an
# array, no trailing empty array in the list.
numerator_arrays = st.one_of(
    st.lists(st.integers(-10**60, 10**60), max_size=9),
    st.builds(
        lambda n, b, sign: [sign * (-1) ** t * (2**b - 1) for t in range(n)],
        st.integers(0, 9), st.integers(1, 200), st.sampled_from((1, -1)),
    ),
    st.lists(st.sampled_from((0, 0, 0, 1, -1)), max_size=9),
)
numerator_ops = st.one_of(
    st.lists(numerator_arrays, max_size=9),
    st.builds(lambda array, n: [array] * n, numerator_arrays, st.integers(0, 9)),
).map(lambda arrays: list(_trim([list(_trim(x)) for x in arrays])))


def _commute_reference(a, b):
    """a o b - b o a over r >= 1 from two triple loops, entrywise and
    trimmed; a degree cap error of the (a, b) loop comes first."""
    pairs = itertools.zip_longest(_leibniz_reference(a, b, 1), _leibniz_reference(b, a, 1), fillvalue=[])
    out = [list(_trim([x - y for x, y in itertools.zip_longest(p, q, fillvalue=0)])) for p, q in pairs]
    return list(_trim(out))


class TestLeibnizKernel:
    @settings(max_examples=300, deadline=None)
    @given(numerator_ops, numerator_ops, st.booleans(), st.integers(4, 40))
    @example([[1] * 9] * 9, [[-1, 1] * 4 + [-1]] * 9, False, 40)
    @example([[], [0, 0, 0, 5]], [[0, 0, 0, 7]], True, 4)  # r = 0 is not formed: (5, 4) from r = 1
    @example([[1] * 9], [[], [2, 1]], True, 4)  # only (b, a) has a product, b_1 a_0', of degree 8
    @example([[3, 1], [2]], [[1, 2, 1], [], [0, 5, 0, 1]], True, 40)  # b_1 = 0 packs as zeros in every column
    def test_matches_triple_loop(self, a, b, commute, cap):
        # Results and degree cap errors of the packed kernel against the
        # triple loop over (i, j, r): one loop for a o b, and in commute
        # mode the difference of the loops for a o b and b o a at r >= 1.
        with degree_cap(cap):
            if commute:
                assert _outcome(_leibniz, a, b, True) == _outcome(_commute_reference, a, b)
            else:
                assert _outcome(_leibniz, a, b, False) == _outcome(_leibniz_reference, a, b, 0)

    @pytest.mark.parametrize(
        "combine,digest",
        [
            (pair_compose, "7415beacdd2699c9936fd0ef400f8f4e8ecde1f526723c3395badf2164aa7067"),
            (pair_commutator, "0672e3b64021fb85919c2d440c7e878059ee295ac8c302a71d782d3752f8207d"),
        ],
        ids=["compose", "commutator"],
    )
    def test_K16_products_are_pinned(self, combine, digest):
        # Digests, recorded with the triple-loop kernel, of the products of two
        # sampled order-16 pairs on K16: scale-sized outputs, too large for a
        # golden file.
        with degree_cap(72):
            p, q = (random_admissible_pair(SpaceSpec(16), 16, random.Random(seed)) for seed in (1, 2))
            rendered = render_paired(combine(p, q))
        assert hashlib.sha256(rendered.encode()).hexdigest() == digest


def _weighted(op):
    """op with each term c x^i d^s scaled by its Euler weight i - s."""
    return BranchOp.of(*(Poly.of(*((i - s) * c for i, c in enumerate(a.coeffs))) for s, a in enumerate(op.coeffs)))


def _weight_component(op, w):
    """The terms c x^i d^s of op with i - s = w."""
    return BranchOp.of(*(Poly.monomial(s + w, a.coeff(s + w)) if s + w >= 0 else ZERO
                         for s, a in enumerate(op.coeffs)))


THETA = BranchOp.of(ZERO, X)  # the Euler operator x d, admissible on every K_m


class TestScaleOracles:
    """Checks of products that need no triple loop, so they reach sizes the
    reference kernel cannot (Freivalds, IFIP 1977; the Euler grading of the
    quasi-homogeneous curve y(y - x^(m+1)) = 0)."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_products_by_application(self, seed):
        # A wrong product differs from the right one by a nonzero operator of
        # order n <= 2k, whose kernel on polynomials has dimension at most n,
        # so a random f of degree 2k + 3 tells the two apart unless it hits a
        # proper subspace.
        space, k, rng = SpaceSpec(24), 24, random.Random(seed)
        a, b = (random_admissible_pair(space, k, rng).d1 for _ in range(2))
        f = Poly.of(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2 * k + 3)), 1)
        with degree_cap(128):
            ab, ba = a.apply(b.apply(f)), b.apply(a.apply(f))
            assert compose(a, b).apply(f) == ab
            assert commutator(a, b).apply(f) == ab - ba

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 32), st.integers(0, 32), st.integers(0, 2**32))
    @example(32, 32, 0)
    def test_euler_grading(self, m, k, seed):
        # [theta, A] scales each term c x^i d^s of A by its weight i - s.
        pair = random_admissible_pair(SpaceSpec(m), k, random.Random(seed))
        with degree_cap(64):
            for op in (pair.d1, pair.d2):
                assert commutator(THETA, op) == _weighted(op)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2**32))
    @example(8, 8, 0)
    def test_weight_components_are_admissible(self, m, k, seed):
        # ad(theta) maps admissible pairs to admissible pairs and grades them
        # by weight, so every weight component of one is admissible too.
        space = SpaceSpec(m)
        pair = random_admissible_pair(space, k, random.Random(seed))
        weights = {i - s for op in (pair.d1, pair.d2) for s, a in enumerate(op.coeffs) for i in range(len(a.nums))}
        depth = default_probe_degree(space, k)
        for w in sorted(weights):
            d1, d2 = _weight_component(pair.d1, w), _weight_component(pair.d2, w)
            assert check_admissible(d1, d2, space, k).ok
            assert probe_admissible(d1, d2, space, depth)


def rref(rows):
    """Reduced row-echelon form over the rationals of sparse rows, each a
    ``{column: value}`` dict of ints or Fractions; zero rows dropped, the
    sparse pivot rows returned in order of pivot column, their values
    Fractions: the elimination oracle for the interpolation formula of
    _generate.

    Each returned row holds only nonzero entries, its columns in increasing
    order: the pivot, equal to 1, comes first, the form a row of
    ConditionSet.sparse_rows takes divided by its pivot (see _reduced).

    The elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): each
    row is scaled to integers by the lcm of its denominators, and a pivot row
    is kept as an integer row P over the denominator e it was last updated
    at, so that P / e is the reduced row.  With d the latest pivot, the
    determinant of the pivot block so far, a new row v is reduced to
    u = d v - sum_c v[c] (d / e_c) P_c over the pivot rows it meets, with no
    division left over; its leading entry is the next pivot d', and a pivot
    row P that meets the new pivot column becomes (d' P - P[lead] u) / e,
    a division that is exact by Sylvester's identity.  A pivot row the new
    column misses is left as it is.  Pivot rows stay zero at every other
    pivot column, so the result is the unique reduced form of the row space;
    one ``Fraction(x, e)`` is built per output entry."""
    pivots: dict[int, tuple[dict[int, int], int]] = {}
    d = 1
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        if not row:
            continue
        den = math.lcm(*(v.denominator for v in row.values()))
        row = {c: d * v.numerator * (den // v.denominator) for c, v in row.items()}
        for col in [c for c in row if c in pivots]:
            pivot, e = pivots[col]
            if e != d:
                pivot = {c: v * d // e for c, v in pivot.items()}
                pivots[col] = pivot, d
            _subtract(row, row[col] // d, pivot)
        if not row:
            continue
        lead = min(row)
        new = row[lead]
        for col, (other, e) in pivots.items():
            x = other.get(lead)
            if x:
                other = {c: new * v for c, v in other.items()}
                _subtract(other, x, row)
                pivots[col] = {c: v // e for c, v in other.items()}, new
        pivots[lead] = row, new
        d = new
    return [{c: Fraction(v, e) for c, v in sorted(row.items())} for _, (row, e) in sorted(pivots.items())]


def _subtract(row: dict, factor, pivot: dict) -> None:
    """row -= factor * pivot, dropping entries that cancel."""
    for c, v in pivot.items():
        value = row.get(c, 0) - factor * v
        if value:
            row[c] = value
        else:
            del row[c]


def _reduced(rows):
    """Integer condition rows, each divided by its first value, the pivot: the
    reduced rows the Fraction oracles build."""
    return [{c: Fraction(v, next(iter(row.values()))) for c, v in row.items()} for row in rows]


def _is_primitive(row) -> bool:
    """The row contract of ConditionSet.sparse_rows: nonzero int values with
    gcd 1, the columns increasing, the pivot first and positive."""
    columns, values = list(row), list(row.values())
    return (
        all(type(v) is int and v for v in values)
        and math.gcd(*values) == 1
        and columns == sorted(columns)
        and values[0] > 0
    )


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


def _deriv_at_zero(p, r):
    return p.coeff(r) * math.factorial(r)


def _defining_row(variables, f, g, i):
    """Dense row of the equation (D1 f)^(i)(0) = (D2 g)^(i)(0) in the jet unknowns.

    (D f)^(i)(0) = sum_s sum_{r<=i} C(i,r) a_s^(r)(0) f^(s+i-r)(0)."""
    row = []
    for var in variables:
        if var.r > i:
            row.append(Fraction(0))
            continue
        p = f if var.branch == "a" else g
        value = math.comb(i, var.r) * _deriv_at_zero(p, var.s + i - var.r)
        row.append(value if var.branch == "a" else -value)
    return row


class TestSparseElimination:
    """The sparse rows and the sparse rref, checked against the dense row
    build over the spanning family and a dense elimination."""

    def test_generated_rows_match_dense_build(self):
        for m in range(5):
            for k in range(7):
                variables = _Unknowns(m, k)
                family = spanning_family(SpaceSpec(m), max_diag=k + m, max_branch=k + m + 1)
                dense = [_defining_row(variables, f, g, i) for f, g in family for i in range(m + 1)]
                assert _generate(m, k).rows == tuple(_gauss_jordan(dense, len(variables))), (m, k)

    @settings(max_examples=300)
    @given(st.data())
    def test_rref_matches_dense_gauss_jordan(self, data):
        # Fractions make rref scale rows to integers by their denominators.
        fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
        value = st.integers(-4, 4) | st.just(0) | fractions
        ncols = data.draw(st.integers(min_value=1, max_value=6))
        entries = st.lists(value, min_size=ncols, max_size=ncols)
        rows = data.draw(st.lists(entries, max_size=8))
        rows += [[0] * ncols] + rows[:1]  # a zero row and a duplicate row
        sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
        reduced = rref(sparse)
        assert all(type(v) is Fraction for row in reduced for v in row.values())
        dense = [tuple(row.get(c, 0) for c in range(ncols)) for row in reduced]
        assert dense == _gauss_jordan(rows, ncols)


def _block_kind(m, k, w):
    """The kind of weight block w of the order-k system on K_m: rows
    i0..i1 of the Pascal matrix over the unknowns a_(w+r)^(r), r <= top."""
    if not 1 <= w <= k:
        return None  # no rows (w < 1) or no unknowns (w > k)
    i0, i1, top = max(0, m + 1 - w), min(m, k + m - w), min(m, k - w)
    if i1 - i0 >= top:
        return "full rank"
    return "square" if top == m else "truncated-short"


def _block_pascal_rows(m, k, w, index):
    """The sparse rows of weight block w: sum_r C(i,r) a_(w+r)^(r) over
    i0 <= i <= i1, columns read from ``index``."""
    i0, i1, top = max(0, m + 1 - w), min(m, k + m - w), min(m, k - w)
    return [
        {index[JetVar("a", w + r, r)]: math.comb(i, r) for r in range(min(i, top) + 1)}
        for i in range(i0, i1 + 1)
    ]


def _variables_reference(m, k):
    """The unknowns of the order-k system on K_m as a tuple, by the nested
    loop over s, r and the branch that built them before the view."""
    return tuple(JetVar(branch, s, r) for s in range(k, -1, -1) for r in range(m, -1, -1) for branch in "ba")


def _stratum_reference(m):
    """The degree stratum's unknowns as a tuple, b^(r)(0) then a^(r)(0)."""
    return tuple(SymbolVar(branch, r) for r in range(m, -1, -1) for branch in "ba")


# One weight block (m, k, w) with m, k <= 96 and 1 <= w <= k.
_blocks = st.tuples(st.integers(0, 96), st.integers(1, 96)).flatmap(
    lambda mk: st.tuples(st.just(mk[0]), st.just(mk[1]), st.integers(1, mk[1]))
)


class TestWeightBlocks:
    """_generate reduces each weight block w = s - r alone, by one
    interpolation formula, against a dense oracle and the sparse rref: unit
    rows in the full-rank kind, the closed form with no gap in the square
    kind, the gap term in the truncated-short kind."""

    def test_blocks_match_dense_gauss_jordan(self):
        kinds = {}
        oracle = {}  # a block's reduced form depends only on its Pascal rows
        for m in range(25):
            for k in range(33):
                conditions = _generate(m, k)
                index = {v: c for c, v in enumerate(conditions.variables)}
                a_rows = {min(row): row for row in conditions.sparse_rows if min(row) % 2}
                for w in range(1, k + 1):
                    kind = _block_kind(m, k, w)
                    kinds[kind] = kinds.get(kind, 0) + 1
                    rows = _block_pascal_rows(m, k, w, index)
                    columns = sorted(set().union(*rows))
                    dense = tuple(tuple(row.get(c, 0) for c in columns) for row in rows)
                    if dense not in oracle:
                        oracle[dense] = _gauss_jordan(dense, len(columns))
                    want = [{c: v for c, v in zip(columns, row) if v} for row in oracle[dense]]
                    if kind == "full rank":
                        assert len(want) == len(columns), (m, k, w)
                    else:
                        assert len(want) == len(rows) < len(columns), (m, k, w)
                    got = [a_rows[c] for c in columns if c in a_rows]
                    assert _items(_reduced(got)) == _items(want), (m, k, w, kind)
        assert set(kinds) == {"full rank", "square", "truncated-short"}, kinds

    def test_column_formula(self):
        for m in range(9):
            for k in range(13):
                variables = _Unknowns(m, k)
                for s in range(k + 1):
                    for r in range(m + 1):
                        column = 2 * ((k - s) * (m + 1) + (m - r)) + 1
                        assert column == variables.index(JetVar("a", s, r)), (m, k, s, r)

    def test_column_layout(self):
        # _Unknowns inverts _column, b_s^(r)(0) first and a_s^(r)(0) next,
        # over every column; the degree stratum has the order-0 columns.
        for m in range(9):
            for k in range(9):
                variables = _Unknowns(m, k)
                columns = {
                    _column(s, r, m, k) + b: JetVar("ba"[b], s, r)
                    for s in range(k + 1) for r in range(m + 1) for b in (0, 1)
                }
                assert sorted(columns) == list(range(len(variables))), (m, k)
                for column, var in columns.items():
                    assert variables[column] == var, (m, k, column)
                stratum = symbol_conditions(m, k).variables
                assert len(stratum) == 2 * (m + 1), (m, k)
                for r in range(m + 1):
                    for b in (0, 1):
                        assert stratum[_column(0, r, m, 0) + b] == SymbolVar("ba"[b], r), (m, k, r)

    def test_view_behaves_like_the_tuple(self):
        # The by-column views against the tuples they replace, for the full
        # layout and the degree stratum.
        for m in range(13):
            for k in range(13):
                stratum = symbol_conditions(m, k).variables
                assert stratum == _Unknowns(m, 0, stratum=True), (m, k)
                assert pickle.loads(pickle.dumps(stratum)) == _Unknowns(m, 0, stratum=True), (m, k)
                views = [
                    (_Unknowns(m, k), _variables_reference(m, k)),
                    (_Unknowns(m, 0, stratum=True), _stratum_reference(m)),
                ]
                for view, tup in views:
                    n = len(tup)
                    assert len(view) == n, (m, k)
                    assert [view[c] for c in range(-n, n)] == [tup[c] for c in range(-n, n)], (m, k)
                    assert all(type(view[c]) is type(tup[c]) for c in range(n)), (m, k)
                    for bad in (n, -n - 1):
                        with pytest.raises(IndexError):
                            view[bad]
                    for cut in (slice(None), slice(1, n - 1), slice(None, None, -1), slice(-3, None, 2), slice(n, 2 * n)):
                        assert view[cut] == tup[cut] and type(view[cut]) is tuple, (m, k, cut)
                    assert [view.index(v) for v in tup] == list(range(n)), (m, k)
                    assert all(v in view for v in tup), (m, k)
                    assert JetVar("a", k + 1, 0) not in view and SymbolVar("a", m + 1) not in view
                    with pytest.raises(ValueError):
                        view.index(JetVar("a", k + 1, 0))
                    assert tuple(view) == tup and list(view) == list(tup), (m, k)
                    assert view == tup and tup == view and not view != tup and not tup != view, (m, k)
                    assert view != tup[:-1] and tup[:-1] != view and view != list(tup), (m, k)
                    assert repr(view) == repr(tup), (m, k)
                    assert view.names() == [v.name for v in tup], (m, k)
                    with pytest.raises(TypeError):
                        hash(view)
                    assert pickle.loads(pickle.dumps(view)) == tup, (m, k)
                    with pytest.raises(AttributeError):
                        view.m = m + 1
                    with pytest.raises(AttributeError):
                        view.names = ()
                assert _Unknowns(m, k) != _Unknowns(m, k + 1)

    def test_condition_sets_compare_by_value(self):
        for m, k in [(0, 0), (2, 3), (5, 4)]:
            before = generate_conditions(SpaceSpec(m), k)
            _generate.cache_clear()
            after = generate_conditions(SpaceSpec(m), k)
            assert after is not before and after == before and after.variables == before.variables
            stratum = symbol_conditions(m, k)
            symbol_conditions.cache_clear()
            assert symbol_conditions(m, k) == stratum
            for system in (after, stratum):
                # A system built on the tuple of unknowns renders the same.
                assert system._replace(variables=tuple(system.variables)).rendered == system.rendered

    def test_cold_generation_builds_no_names(self):
        # Condition generation builds rows only: an unknown is built when
        # it is read, never up front.
        def count():
            gc.collect()
            return sum(type(o) in (JetVar, SymbolVar) for o in gc.get_objects())

        _generate.cache_clear()
        symbol_conditions.cache_clear()
        before = count()
        held = [_generate(6, 8), symbol_conditions(6, 8)]
        assert count() == before
        assert held[0].variables[0] == JetVar("b", 8, 6) and held[1].variables[-1] == SymbolVar("a", 0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 5), st.lists(st.tuples(delta_polys, delta_polys), min_size=1, max_size=5))
    def test_jet_values_at_their_columns(self, m, pairs):
        # Each unknown r! * p_r sits at its column, over the one denominator.
        k = len(pairs) - 1
        values, den = _jet_values(*(BranchOp.of(*branch) for branch in zip(*pairs)), m, k)
        assert len(values) == len(_Unknowns(m, k))
        expected = [None] * len(values)
        for s, (a, b) in enumerate(pairs):
            for r in range(m + 1):
                for branch, p in ((0, b), (1, a)):
                    expected[_column(s, r, m, k) + branch] = math.factorial(r) * p.coeff(r)
        assert all(type(x) is int for x in values)
        assert [Fraction(x, den) for x in values] == expected

    def test_symbol_stratum_reads_the_full_rank_kind(self):
        # The symbol stratum cuts out a_k^(r)(0) alone exactly when 2r < k;
        # that is the full-rank kind of the block w = k - r it lies in.
        for m in range(25):
            for k in range(33):
                rows = symbol_conditions(m, k).sparse_rows
                for r in range(m + 1):
                    alone = {2 * (m - r) + 1: 1} in rows
                    assert alone == (2 * r < k) == (_block_kind(m, k, k - r) == "full rank"), (m, k, r)

    @settings(max_examples=40, deadline=None)
    @given(_blocks)
    @example((96, 96, 40))  # f = 16, so u_0..u_16 are free, and the gap is 17..56
    def test_large_blocks_match_rref(self, block):
        m, k, w = block
        conditions = _generate.__wrapped__(m, k)  # uncached: keeps the cache small
        index = {v: c for c, v in enumerate(conditions.variables)}
        rows = _block_pascal_rows(m, k, w, index)
        columns = set().union(*rows)
        got = [row for row in conditions.sparse_rows if min(row) in columns]
        assert all(map(_is_primitive, got)), block
        assert _items(_reduced(got)) == _items(rref(rows)), block


def _rank_formula(m, k):
    """The rank of the order-k system on K_m: (m+1)(k+1) diagonal rows, b = a,
    and min(h, top + 1) = min(m + 1, w, k + 1 - w) pivots in block w."""
    return (m + 1) * (k + 1) + sum(min(m + 1, w, k + 1 - w) for w in range(1, k + 1))


def _jet_dimension(m, k):
    """J(m, k): the dimension of the admissible order-k jets at 0."""
    return 2 * (m + 1) * (k + 1) - len(_generate.__wrapped__(m, k).sparse_rows)


class TestClosedForms:
    """Closed forms for the size of the condition systems, which pin the row
    count of every block kind at sizes the dense oracle cannot reach quickly:
    the rank, the order filtration's increments as the symbol strata (gr F_k
    is the degree-k stratum, two separate code paths), and the stabilisation
    beyond order 2m, where every new top coefficient vanishes to order m + 1
    on both branches."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 48), st.integers(0, 72))
    @example(128, 128)
    def test_rank(self, m, k):
        assert len(_generate.__wrapped__(m, k).sparse_rows) == _rank_formula(m, k)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 32), st.integers(1, 48))
    def test_filtration_increments_are_the_symbol_strata(self, m, k):
        free = 2 * (m + 1) - len(symbol_conditions.__wrapped__(m, k).sparse_rows)
        assert free == (m + 1) - sum(2 * r < k for r in range(m + 1)), (m, k)
        assert _jet_dimension(m, k) - _jet_dimension(m, k - 1) == free, (m, k)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 24), st.integers(0, 24))
    def test_stabilisation(self, m, extra):
        assert _jet_dimension(m, 2 * m + 1 + extra) == (m + 1) ** 2, (m, extra)


def _two_branch_rows(m, k):
    """Sparse rows of (D1 f)^(i)(0) = (D2 g)^(i)(0), i <= m, over the whole
    spanning family, both branches, each entry C(i,r) n! (negated on branch b);
    empty rows skipped."""
    column = {v: c for c, v in enumerate(_Unknowns(m, k))}
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


def _generate_reference(m, k):
    """The reduced system from one rref of every branch-a row at once,
    mirrored to b: the whole-system elimination _generate replaced."""
    variables = _Unknowns(m, k)
    column = {v: c for c, v in enumerate(variables)}
    rows = (
        {column[JetVar("a", n - i + r, r)]: math.comb(i, r) for r in range(min(i, k + i - n) + 1)}
        for n in range(m + 1, k + m + 1)
        for i in range(m + 1)
    )
    pivots = {min(row): row for row in rref(rows)}
    out = []
    for c in range(1, len(variables), 2):
        if c in pivots:
            row = pivots[c]
            out.append({c - 1: row[c], **{j: v for j, v in row.items() if j != c}})
            out.append(row)
        else:
            out.append({c - 1: Fraction(1), c: Fraction(-1)})
    return tuple(out)


class TestBlocksMatchWholeSystem:
    """Byte identity of the block-by-block rows with the whole-system
    elimination: values divided by the pivot, column and row order, and the
    primitive integer form of every row."""

    @pytest.mark.parametrize("m,orders", [(m, range(21)) for m in range(13)] + [(32, [32])])
    def test_sparse_rows_identical(self, m, orders):
        for k in orders:
            rows = _generate(m, k).sparse_rows
            assert all(map(_is_primitive, rows)), (m, k)
            assert _items(_reduced(rows)) == _items(_generate_reference(m, k)), (m, k)

    @pytest.mark.parametrize(
        "m,k,digest",
        [
            (64, 128, "ebe3e9c9606dfda50c0f98e3e6e2df34038a5b2052553fa8c40fcc0cd2411e82"),
            (128, 256, "08b829fb57f2a8df2fdbff42010f22dcf0f015f1a7f63ba5370cac74682d7b40"),
        ],
    )
    def test_square_blocks_are_pinned(self, m, k, digest):
        # A square block needs k - w >= m with w >= 1, so the k = m pins hold
        # none; at k = 2m most blocks are square.  Digests of the rows, in
        # item order, recorded with a comb pair per entry.
        rows = _generate.__wrapped__(m, k).sparse_rows
        assert hashlib.sha256(repr(_items(rows)).encode()).hexdigest() == digest


class TestConditionsMatchElimination:
    """Branch-a elimination mirrored to b, and the closed-form stratum, against
    eliminating the whole two-branch system."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 12))
    def test_generate_matches_two_branch_rref(self, m, k):
        assert _items(_reduced(_generate(m, k).sparse_rows)) == _items(rref(_two_branch_rows(m, k)))

    def test_symbol_conditions_match_projection(self):
        for m in range(9):
            for k in range(13):
                variables, rows = _projected_stratum(m, k)
                stratum = symbol_conditions(m, k)
                assert stratum.variables == variables, (m, k)
                assert all(map(_is_primitive, stratum.sparse_rows)), (m, k)
                assert _items(_reduced(stratum.sparse_rows)) == _items(rows), (m, k)
                dense = [[row.get(c, 0) for c in range(len(variables))] for row in rows]
                assert stratum.rendered == tuple(_dense_render(row, variables) for row in dense)


def _dense_render(row, variables):
    """Dense reference renderer of a reduced Fraction row: walk every column,
    skipping zeros."""
    return signed_sum((c.numerator, c.denominator, v.name) for c, v in zip(row, variables)) + " = 0"


class TestSparseRowsMatchDenseReference:
    """``rendered`` and ``violations`` read only the sparse rows; a dense walk
    over the same rows, in ``Fraction`` arithmetic, is the reference."""

    @pytest.mark.parametrize("m", range(6))
    def test_render_violations_and_row_order(self, m):
        rng = random.Random(m)
        verdicts = set()
        for k in range(7):
            for conditions in (_generate(m, k), symbol_conditions(m, k)):
                variables, dense = conditions.variables, conditions.rows
                assert conditions.rendered == tuple(_dense_render(row, variables) for row in dense)
                # Integer unknowns over one denominator, as both checks pass them.
                den = rng.choice([1, 2, 6])
                values = [rng.choice([0, 0, 1, -1, 2, -3]) for _ in variables]
                expected = []
                for row in dense:
                    lhs = sum((c * Fraction(x, den) for c, x in zip(row, values)), Fraction(0))
                    verdicts.add(bool(lhs))
                    if lhs:
                        expected.append((_dense_render(row, variables), lhs))
                violations = conditions.violations(values, den)
                assert all(type(v.lhs) is Fraction for v in violations)
                assert [(v.constraint, v.lhs) for v in violations] == expected, (m, k)
                assert all(map(_is_primitive, conditions.sparse_rows)), (m, k)
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

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 6),
        st.lists(st.lists(small_fractions, max_size=9).map(lambda cs: Poly.of(*cs)), max_size=6)
        .map(lambda coeffs: BranchOp.of(*coeffs)),
        small_fractions,
    )
    def test_jet_matches_apply(self, m, op, c):
        # The Poly walk is the oracle: the whole product, cut to the m-jet at
        # the end; the truncated kernel keeps its trailing zeros.
        a, den = op.rows, op.den
        space = SpaceSpec(m)
        depth = default_probe_degree(space, max(op.order, 0))
        with degree_cap(128):
            for f, g in spanning_family(space, depth, depth):
                for p in (f, g, f * c):
                    jet = _apply(a, p, m)
                    assert len(jet) == m + 1
                    assert _poly(jet, den * p.den) == _apply_reference(op, p).jet(m)

    def test_never_reads_the_conditions(self, monkeypatch):
        rng = random.Random(107)
        cases = []
        for _ in range(20):
            space = SpaceSpec(rng.randint(0, 3))
            k = rng.randint(0, 4)
            pair = random_admissible_pair(space, k, rng)
            moved = pair.d1 + BranchOp.derivative(Poly.monomial(rng.randint(0, space.m)), k)
            cases += [(pair.d1, pair.d2, space, k, True), (moved, pair.d2, space, k, False)]

        def refuse(*args):
            raise AssertionError("the probe read the generated conditions")

        monkeypatch.setattr(operators, "_generate", refuse)
        monkeypatch.setattr(operators, "generate_conditions", refuse)
        for d1, d2, space, k, admissible in cases:
            assert probe_admissible(d1, d2, space, default_probe_degree(space, k)) == admissible
        with pytest.raises(AssertionError):
            check_admissible(D, D, K0, 1)

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


class TestSampling:
    def test_draws_are_pinned(self):
        # Both samplers read the jets by column and draw a before b, s
        # ascending: every sampled value is pinned by one digest.
        digest = hashlib.sha256()
        with degree_cap(200):
            for m in range(6):
                for k in range(7):
                    rng = random.Random(f"{m},{k}")
                    digest.update(repr(random_admissible_pair(SpaceSpec(m), k, rng)).encode())
                    digest.update(repr(random_symbol(SpaceSpec(m), k, rng)).encode())
        assert digest.hexdigest() == "efb6938f0ddee9699a95327867343e80168f92a9486eb2b756a2e2cc553a59fe"

    @pytest.mark.parametrize(
        "n,digest",
        [
            (32, "70ff7697fb7f2edc0e8264588cf69ca79b15fc130f5ce2c180f5ca4d238f556c"),
            (64, "a294582a62db0d0f3b38f436f6d2e10bb234b6ebc1521182212383ccc05e4d6b"),
        ],
    )
    def test_draws_at_scale_are_pinned(self, n, digest):
        # An order-n pair on K_n, at the sizes of the scale tables; digests
        # recorded with the Fraction solve.
        with degree_cap(200):
            rendered = repr(random_admissible_pair(SpaceSpec(n), n, random.Random(1)))
        assert hashlib.sha256(rendered.encode()).hexdigest() == digest

    def test_sample_satisfies_its_system(self):
        # The solve apart from the draws: every sampled point, in the form the
        # check reads, satisfies every row of its own system.
        rng = random.Random(3)
        for m in range(7):
            for k in range(9):
                for conditions in (_generate(m, k), symbol_conditions(m, k)):
                    assert conditions.violations(*solve_homogeneous(conditions, rng)) == (), (m, k)


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
        ident = make_pair(BranchOp.of(one), BranchOp.of(one), K1)
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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 8), st.integers(0, 8), st.integers(0, 2**32))
    @example(12, 8, 8, 0)
    def test_closure_at_scale(self, m, k, l, seed):
        # Products pass both oracles.  The probe reads no generated row, so it
        # checks the packed kernel, and the closed forms at order k + l,
        # independently of the check.
        space, rng = SpaceSpec(m), random.Random(seed)
        a, b = random_admissible_pair(space, k, rng), random_admissible_pair(space, l, rng)
        for product in (pair_compose(a, b), pair_commutator(a, b)):
            depth = default_probe_degree(space, product.order)
            assert check_admissible(product.d1, product.d2, space, product.order).ok
            assert probe_admissible(product.d1, product.d2, space, depth)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 8), st.integers(0, 8), st.integers(0, 2**32))
    @example(12, 8, 8, 0)
    def test_bracket_at_scale(self, m, k, l, seed):
        # The top coefficient of the commutator is the leading-coefficient
        # formula of the two symbols.
        space, rng = SpaceSpec(m), random.Random(seed)
        a, b = random_admissible_pair(space, k, rng), random_admissible_pair(space, l, rng)
        assert bracket_via_commutator(a, b) == poisson_bracket(pair_symbol(a), pair_symbol(b))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12), st.tuples(*[st.integers(1, 8)] * 3), st.integers(0, 2**32))
    @example(12, (8, 8, 8), 0)
    def test_lie_identities_at_scale(self, m, degrees, seed):
        # Antisymmetry, Jacobi and Leibniz over symbol_mul, each result also
        # passing its degree stratum inside make_symbol.
        space, rng = SpaceSpec(m), random.Random(seed)
        r, s, t = (random_symbol(space, degree, rng) for degree in degrees)
        with degree_cap(64):  # coefficients of degree <= 13, nested twice
            assert symbol_add(poisson_bracket(r, s), poisson_bracket(s, r)).is_zero
            cyclic = [poisson_bracket(x, poisson_bracket(y, z)) for x, y, z in ((r, s, t), (s, t, r), (t, r, s))]
            assert symbol_add(symbol_add(*cyclic[:2]), cyclic[2]).is_zero
            left = poisson_bracket(r, symbol_mul(s, t))
            right = symbol_add(symbol_mul(poisson_bracket(r, s), t), symbol_mul(s, poisson_bracket(r, t)))
            assert left == right

    @pytest.mark.parametrize(
        "combine,what,orders,order",
        [
            (pair_compose, "composition", (1, 2), 3),
            (pair_commutator, "commutator", (1, 2), 2),
            (pair_commutator, "commutator", (0, 0), 0),
        ],
        ids=["compose", "commutator", "commutator-order-0"],
    )
    def test_failed_recheck_is_a_closure_bug(self, monkeypatch, combine, what, orders, order):
        # compose is checked again at k + l, commutator at max(k + l - 1, 0).
        pairs = {
            0: make_pair(BranchOp.of(X), BranchOp.of(X), K1),
            1: make_pair(XD, XD, K1),
            2: make_pair(BranchOp.derivative(X2, power=2), BranchOp.derivative(X2, power=2), K1),
        }
        a, b = (pairs[k] for k in orders)
        violation = Violation("a1(0) = 0", Fraction(1))
        monkeypatch.setattr(
            "curveglue.operators.check_admissible",
            lambda d1, d2, space, k: AdmissibilityReport(space, k, (violation,)),
        )
        with pytest.raises(ClosureBugError) as exc:
            combine(a, b)
        assert str(exc.value) == (
            f"{what} of admissible pairs failed the admissibility check at order {order}; "
            "this contradicts the closure theorem and indicates an internal bug: a1(0) = 0"
        )
