"""The library names the benchmark in ``perfbench/`` relies on.

The harness looks some of them up with ``getattr``/``hasattr`` fallbacks, so
a rename would silently zero its cache counters or drop its timing spans
instead of failing.  This test makes such a rename fail here.
"""

import importlib
from fractions import Fraction
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Every curveglue name used in perfbench/*.py, by module.
USED = {
    "cli": ["main"],
    "dsl": [
        "parse_char",
        "parse_glued",
        "parse_many_paired",
        "parse_paired",
        "parse_poly2",
        "parse_symbol",
        "render_char",
        "render_glued",
        "render_paired",
        "render_symbol",
    ],
    "glued": [
        "SpaceSpec",
        "extend_to_plane",
        "make_glued",
        "random_glued",
        "random_poly",
        "restrict_to_branches",
    ],
    "operators": [
        "BranchOp",
        "PairedOp",
        "_generate",
        "check_admissible",
        "default_probe_degree",
        "generate_conditions",
        "pair_apply",
        "pair_commutator",
        "pair_compose",
        "probe_admissible",
        "spanning_family",
        "verify_order",
    ],
    "poly": ["Poly", "Poly2", "get_degree_cap", "poly2_str", "set_degree_cap"],
    "sampling": ["random_admissible_pair", "random_symbol"],
    "spectra": ["char_eval", "make_character", "separating_witness"],
    "symbols": [
        "bracket_via_commutator",
        "pair_symbol",
        "poisson_bracket",
        "symbol_conditions",
    ],
}


PAIRS = [(m, n) for m, names in USED.items() for n in names]


@pytest.mark.parametrize("module,name", PAIRS, ids=[f"{m}.{n}" for m, n in PAIRS])
def test_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"curveglue.{module}"), name)


def test_names_are_used_by_the_benchmark():
    source = "\n".join(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))
    for names in USED.values():
        for name in names:
            assert name in source, f"{name} is listed but perfbench does not use it"


def test_condition_caches_expose_lru_statistics():
    from curveglue import operators, symbols

    for cached in (operators._generate, symbols.symbol_conditions):
        assert callable(cached.cache_info) and callable(cached.cache_clear)


def test_condition_rows_are_dense_pivot_rows():
    # harness.perturb takes the first nonzero entry of a row of ``rows`` as
    # its pivot unknown, and condition_grid reads len(rows) as the rank.
    from curveglue.glued import SpaceSpec
    from curveglue.operators import generate_conditions

    conditions = generate_conditions(SpaceSpec(3), 4)  # four sparse pivots are not 1
    rows = conditions.rows
    assert len(rows) == len(conditions.sparse_rows) > 0
    for row, sparse in zip(rows, conditions.sparse_rows):
        assert len(row) == len(conditions.variables)
        pivot = next(iter(sparse.values()))
        assert {c: v for c, v in enumerate(row) if v} == {c: Fraction(v, pivot) for c, v in sparse.items()}
        lead = next(c for c, v in enumerate(row) if v)
        assert row[lead] == 1
        assert [other[lead] for other in rows if other is not row] == [0] * (len(rows) - 1)


def test_condition_variables_are_read_by_column():
    # condition_grid reads len(variables) as the unknowns count, and
    # harness.perturb reads .branch, .s and .r of variables[i] at the column
    # of a row's pivot; rendering reads .name.
    from curveglue.glued import SpaceSpec
    from curveglue.operators import JetVar, generate_conditions

    m, k = 3, 4
    conditions = generate_conditions(SpaceSpec(m), k)
    variables = conditions.variables
    assert len(variables) == 2 * (m + 1) * (k + 1) == len(conditions.rows[0])
    for i in range(len(variables)):
        var = variables[i]
        assert type(var) is JetVar
        assert var.branch in "ab" and 0 <= var.s <= k and 0 <= var.r <= m
        assert isinstance(var.name, str)
    assert (variables[0].name, variables[-1].name) == ("b4'''(0)", "a0(0)")


def test_every_grid_digest_matches(monkeypatch):
    # The rendered tables of every (m, k) point that condition_grid runs,
    # through the benchmark's own digest, against its expected digests; the
    # smoke run checks only m <= 2, k <= 3.
    import json

    from curveglue.glued import SpaceSpec
    from curveglue.operators import generate_conditions
    from curveglue.symbols import symbol_conditions

    monkeypatch.syspath_prepend(str(PERFBENCH))
    condition_grid = importlib.import_module("condition_grid")
    expected = json.loads((PERFBENCH / "expected_digests.json").read_text())
    grid = [(m, k) for m in range(condition_grid.M_MAX + 1) for k in range(condition_grid.K_MAX + 1)]
    assert len(grid) == 80 and sorted(expected) == sorted(f"{m},{k}" for m, k in grid)
    for m, k in grid:
        digest = condition_grid.table_digest(generate_conditions(SpaceSpec(m), k), symbol_conditions(m, k))
        assert digest == expected[f"{m},{k}"], (m, k)


def test_render_paired_takes_parsed_pairs():
    # The benchmark's DSL probe renders what parse_many_paired returns.
    from curveglue import dsl

    text = "branch x\nop order=1\ncoeff 1: x\nbranch y\nop order=1\ncoeff 1: y"
    (parsed,) = dsl.parse_many_paired(text)
    assert dsl.render_paired(parsed) == text


def test_poly_constructors():
    from curveglue.operators import BranchOp
    from curveglue.poly import Poly, Poly2

    for cls, name in ((Poly, "of"), (Poly, "monomial"), (Poly2, "of"), (BranchOp, "of")):
        assert callable(getattr(cls, name))


def test_poly_coefficients_are_fractions_that_round_trip():
    # operator_algebra._retail keeps an m-jet as Poly.of(*p.coeffs[:m + 1]),
    # and perturb adds Poly.monomial to BranchOp coefficients.
    from fractions import Fraction

    from curveglue.poly import Poly

    p = Poly.of(Fraction(-3, 4), 0, Fraction(5, 6), 2, Fraction(1, 12))
    assert type(p.coeffs) is tuple
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs == (Fraction(-3, 4), 0, Fraction(5, 6), 2, Fraction(1, 12))
    for n in range(1, len(p.coeffs) + 2):
        assert Poly.of(*p.coeffs[:n]) == p.hadamard_split(n)[0]
    assert Poly.of(*p.coeffs) == p
    assert (p + Poly.monomial(1)).coeff(1) == 1
