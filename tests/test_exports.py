"""The package's public names: one table of exports, each resolved from its
own submodule on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curveglue

SRC = Path(__file__).parent.parent / "src"

# The 61 public names, under the submodule that defines each.
EXPORTS = {
    "errors": """AdmissibilityError ClosureBugError CurveGlueError DegreeCapExceeded
        DSLSyntaxError EmbeddingError ExactDivisionError JetMismatch OrderError SpaceMismatch
        SymbolConditionError UnsupportedSpaceError""",
    "glued": """GluedFunction SpaceSpec canonical_embedding extend_to_plane make_glued
        random_glued restrict_to_branches""",
    "operators": """AdmissibilityReport BranchOp ConditionSet PairedOp Violation check_admissible
        commutator compose default_probe_degree generate_conditions make_pair pair_apply
        pair_commutator pair_compose probe_admissible verify_order""",
    "poly": "Poly Poly2 degree_cap frac get_degree_cap set_degree_cap",
    "sampling": "random_admissible_pair random_symbol",
    "spectra": """Character char_eval make_character maximal_ideal_factor
        nullity_identity_check separating_witness""",
    "symbols": """SymbolElem bracket_via_commutator check_symbol_conditions make_symbol
        pair_symbol poisson_bracket symbol_add symbol_conditions symbol_mul symbol_scale
        take_symbol zero_symbol""",
}
OWNER = {name: module for module, names in EXPORTS.items() for name in names.split()}


def test_all_lists_the_exports():
    assert len(OWNER) == 61
    assert sorted(curveglue.__all__) == sorted(OWNER)
    assert curveglue.__version__ == "0.1.0"


@pytest.mark.parametrize("name", sorted(OWNER))
def test_export_is_its_submodule_attribute(name):
    module = importlib.import_module(f"curveglue.{OWNER[name]}")
    assert getattr(curveglue, name) is getattr(module, name)


def test_star_import_and_dir():
    namespace = {}
    exec("from curveglue import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(OWNER)
    assert set(OWNER) <= set(dir(curveglue))
    assert "__version__" in dir(curveglue)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'curveglue' has no attribute 'nope'$"):
        getattr(curveglue, "nope")
    assert not hasattr(curveglue, "_generate")
    with pytest.raises(ImportError):
        exec("from curveglue import nope", {})


def test_exports_resolve_on_first_use():
    """In a fresh interpreter: ``import curveglue`` loads no submodule, and an
    export loads its own submodule and what that imports, nothing else."""
    code = (
        "import sys, curveglue\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('curveglue.'))\n"
        "print(loaded())\n"
        "from curveglue import SpaceSpec\n"
        "print(loaded(), 'SpaceSpec' in vars(curveglue))\n"
        "curveglue.BranchOp\n"
        "print(loaded(), curveglue.BranchOp is sys.modules['curveglue.operators'].BranchOp)\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    glued = "['curveglue.errors', 'curveglue.glued', 'curveglue.poly']"
    operators = "['curveglue.errors', 'curveglue.glued', 'curveglue.operators', 'curveglue.poly']"
    assert done.stdout.splitlines() == ["[]", f"{glued} True", f"{operators} True"]
