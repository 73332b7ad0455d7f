"""Acceptance gate: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
All checks are exact (rational arithmetic); the only tolerances are the
fixed sampling sizes and seeds below.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from curveglue.glued import (
    SpaceSpec,
    canonical_embedding,
    extend_to_plane,
    make_glued,
    random_glued,
    restrict_to_branches,
)
from curveglue.operators import (
    BranchOp,
    check_admissible,
    default_probe_degree,
    generate_conditions,
    pair_commutator,
    pair_compose,
    probe_admissible,
)
from curveglue.poly import Poly, degree_cap
from curveglue.sampling import random_admissible_pair, random_symbol
from curveglue.spectra import (
    SINGULAR,
    char_eval,
    make_character,
    maximal_ideal_factor,
    separating_witness,
)
from curveglue.symbols import (
    SymbolElem,
    bracket_via_commutator,
    check_symbol_conditions,
    pair_symbol,
    poisson_bracket,
    symbol_add,
    symbol_mul,
)

GOLDEN = Path(__file__).parent / "golden"
K0 = SpaceSpec(0)


def _verdict(name, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_condition_tables():
    """Generated condition tables reproduce the golden files verbatim."""
    cases = [
        ("conditions_K0_order3.txt", 0, 3),
        ("conditions_K1_order0.txt", 1, 0),
        ("conditions_K1_order1.txt", 1, 1),
        ("conditions_K1_order2.txt", 1, 2),
        ("conditions_K1_order3.txt", 1, 3),
    ]
    ok = all(
        (GOLDEN / name).read_text().splitlines()
        == list(generate_conditions(SpaceSpec(m), k).rendered)
        for name, m, k in cases
    )
    _verdict("criterion 1: condition-table golden reproduction", ok)


def test_criterion_2_oracle_equivalence():
    """Generated verdict == brute-force probe on 500 random pairs."""
    rng = random.Random(2024)

    def rand_op(k):
        return BranchOp.of(
            *[
                Poly.of(*[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(5)])
                for _ in range(k + 1)
            ]
        )

    disagreements = 0
    for _ in range(500):
        m = rng.randint(0, 2)
        space = SpaceSpec(m)
        k = rng.randint(0, 4)
        d1, d2 = rand_op(k), rand_op(k)
        generated = check_admissible(d1, d2, space, k).ok
        probed = probe_admissible(d1, d2, space, default_probe_degree(space, k))
        disagreements += generated != probed
    _verdict(f"criterion 2: oracle equivalence, 500 samples, {disagreements} disagreements",
             disagreements == 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2**32 - 1), st.data())
def test_oracle_agreement_at_the_boundary(m, k, seed, data):
    """An admissible pair passes both oracles; moving exactly one jet unknown
    a_s^(r)(0) or b_s^(r)(0), free or pivot, by a nonzero rational fails both:
    every column occurs in some reduced row."""
    space = SpaceSpec(m)
    pair = random_admissible_pair(space, k, random.Random(seed))
    depth = default_probe_degree(space, k)
    assert check_admissible(pair.d1, pair.d2, space, k).ok
    assert probe_admissible(pair.d1, pair.d2, space, depth)
    var = data.draw(st.sampled_from(generate_conditions(space, k).variables))
    delta = data.draw(st.fractions(-5, 5, max_denominator=6).filter(bool))
    ops = {"a": pair.d1, "b": pair.d2}
    coeffs = [ops[var.branch].coeff(s) for s in range(k + 1)]
    coeffs[var.s] += Poly.monomial(var.r, delta / math.factorial(var.r))
    ops[var.branch] = BranchOp.of(*coeffs)
    assert not check_admissible(ops["a"], ops["b"], space, k).ok
    assert not probe_admissible(ops["a"], ops["b"], space, depth)


def test_criterion_3_closure():
    """Compositions and commutators of admissible pairs stay admissible."""
    rng = random.Random(303)
    failures = 0
    with degree_cap(64):
        for _ in range(300):
            m = rng.randint(0, 2)
            space = SpaceSpec(m)
            a = random_admissible_pair(space, rng.randint(0, 3), rng, max_degree=3)
            b = random_admissible_pair(space, rng.randint(0, 3), rng, max_degree=3)
            composed = pair_compose(a, b)
            bracketed = pair_commutator(a, b)
            if not check_admissible(composed.d1, composed.d2, space, a.order + b.order).ok:
                failures += 1
            elif not check_admissible(
                bracketed.d1, bracketed.d2, space, max(a.order + b.order - 1, 0)
            ).ok:
                failures += 1
    _verdict(f"criterion 3: closure under composition/commutator, 300 samples, {failures} failures",
             failures == 0)


def test_criterion_4_bracket_consistency():
    """Poisson-bracket formula agrees with the commutator route exactly."""
    rng = random.Random(404)
    failures = 0
    with degree_cap(64):
        for _ in range(300):
            m = rng.randint(0, 2)
            space = SpaceSpec(m)
            a = random_admissible_pair(space, rng.randint(0, 3), rng, max_degree=3)
            b = random_admissible_pair(space, rng.randint(0, 3), rng, max_degree=3)
            if bracket_via_commutator(a, b) != poisson_bracket(pair_symbol(a), pair_symbol(b)):
                failures += 1
    _verdict(f"criterion 4: bracket formula vs commutator, 300 samples, {failures} failures",
             failures == 0)


def test_criterion_5_lie_identities():
    """Jacobi, Leibniz and antisymmetry with exact zero residual."""
    rng = random.Random(505)
    failures = 0
    with degree_cap(64):
        for _ in range(200):
            m = rng.randint(0, 2)
            space = SpaceSpec(m)
            r, s, t = (random_symbol(space, rng.randint(1, 3), rng, 2) for _ in range(3))
            jacobi = symbol_add(
                symbol_add(
                    poisson_bracket(r, poisson_bracket(s, t)),
                    poisson_bracket(s, poisson_bracket(t, r)),
                ),
                poisson_bracket(t, poisson_bracket(r, s)),
            )
            if not jacobi.is_zero:
                failures += 1
                continue
            left = poisson_bracket(r, symbol_mul(s, t))
            right = symbol_add(
                symbol_mul(poisson_bracket(r, s), t), symbol_mul(s, poisson_bracket(r, t))
            )
            if (left.a, left.b) != (right.a, right.b):
                failures += 1
                continue
            if not symbol_add(poisson_bracket(r, s), poisson_bracket(s, r)).is_zero:
                failures += 1
    _verdict(f"criterion 5: Jacobi/Leibniz/antisymmetry, 200 triples, {failures} failures",
             failures == 0)


def test_criterion_6_plane_roundtrip():
    """extend/restrict are mutually inverse on random glued functions."""
    rng = random.Random(606)
    failures = 0
    for _ in range(100):
        m = rng.randint(0, 3)
        space = SpaceSpec(m)
        u = random_glued(space, rng, max_degree=m + 3)
        h = canonical_embedding(space)
        if restrict_to_branches(extend_to_plane(u, h), h, space) != u:
            failures += 1
    _verdict(f"criterion 6: plane extension roundtrip, 100 samples, {failures} failures",
             failures == 0)


def test_criterion_7_spectrum_splice():
    """A witness separates two characters iff they are distinct points.

    Base points {-2..2} on both branches give 9 canonical characters per
    space (the two branch origins collapse to the singular point), hence
    81 ordered pairs per m; separating_witness must return None exactly
    on the 9 diagonal pairs.
    """
    points = [Fraction(t) for t in (-2, -1, 0, 1, 2)]
    failures = 0
    pairs = 0
    for m in range(3):
        space = SpaceSpec(m)
        chars = sorted(
            {make_character(b, t) for b in (1, 2) for t in points},
            key=lambda c: (str(c.branch), c.base_point),
        )
        assert len(chars) == 9
        for c1 in chars:
            for c2 in chars:
                pairs += 1
                w = separating_witness(c1, c2, space, max_degree=m + 3)
                if (w is None) != (c1 == c2):
                    failures += 1
                elif w is not None and char_eval(c1, w) == char_eval(c2, w):
                    failures += 1
    _verdict(
        f"criterion 7: witness iff distinct point, {pairs} ordered pairs, {failures} failures",
        failures == 0 and pairs == 243,
    )


def test_criterion_8_factorization_identities():
    """s^2 = g*t with g in the singular maximal ideal; cube identity on K1."""
    rng = random.Random(808)
    singular = make_character(SINGULAR, 0)
    failures = 0
    for _ in range(200):
        s = random_symbol(K0, rng.randint(1, 3), rng)
        g, t = maximal_ideal_factor(s)
        square, product = symbol_mul(s, s), symbol_mul(g, t)
        if (square.a, square.b) != (product.a, product.b):
            failures += 1
        elif char_eval(singular, make_glued(g.a, g.b, K0)) != 0:
            failures += 1
    K1 = SpaceSpec(1)
    x = Poly.monomial(1)
    base = SymbolElem(1, x, x, K1)
    assert check_symbol_conditions(base).ok
    cube = symbol_mul(symbol_mul(base, base), base)
    cube_ok = (cube.degree, cube.a, cube.b) == (3, Poly.monomial(3), Poly.monomial(3))
    _verdict(
        f"criterion 8: square factorization 200 samples ({failures} failures) + cube identity",
        failures == 0 and cube_ok,
    )
