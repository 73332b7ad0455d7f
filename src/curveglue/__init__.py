"""Exact symbolic calculus on two curves glued with contact of order m.

Public surface: exact rational polynomials and jets, the glued function
algebra with its plane extension/restriction, differential operators on the
branches with the two admissibility checkers, the graded symbol algebra with
its Poisson bracket, and spectrum/witness utilities.

Each export resolves on first use (PEP 562): ``curveglue.X`` and
``from curveglue import X`` import only the submodule that defines X, so
``import curveglue`` and a CLI call load no module they do not use.
"""

from importlib import import_module

# Each public name, listed under the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in [
        ("errors", """AdmissibilityError ClosureBugError CurveGlueError DegreeCapExceeded
            DSLSyntaxError EmbeddingError ExactDivisionError JetMismatch OrderError
            SpaceMismatch SymbolConditionError UnsupportedSpaceError"""),
        ("glued", """GluedFunction SpaceSpec canonical_embedding extend_to_plane make_glued
            random_glued restrict_to_branches"""),
        ("operators", """AdmissibilityReport BranchOp ConditionSet PairedOp Violation
            check_admissible commutator compose default_probe_degree generate_conditions
            make_pair pair_apply pair_commutator pair_compose probe_admissible verify_order"""),
        ("poly", "Poly Poly2 degree_cap frac get_degree_cap set_degree_cap"),
        ("sampling", "random_admissible_pair random_symbol"),
        ("spectra", """Character char_eval make_character maximal_ideal_factor
            nullity_identity_check separating_witness"""),
        ("symbols", """SymbolElem bracket_via_commutator check_symbol_conditions make_symbol
            pair_symbol poisson_bracket symbol_add symbol_conditions symbol_mul symbol_scale
            take_symbol zero_symbol"""),
    ]
    for name in names.split()
}
__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
