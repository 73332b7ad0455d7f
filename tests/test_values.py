"""Value semantics shared by the package's immutable record types."""

from fractions import Fraction

import pytest

from curveglue.glued import GluedFunction, SpaceSpec
from curveglue.operators import (
    AdmissibilityReport,
    BranchOp,
    ConditionSet,
    JetVar,
    PairedOp,
    Violation,
)
from curveglue.poly import ZERO, Poly, Poly2
from curveglue.spectra import Character, IdentityCheck
from curveglue.symbols import SymbolElem

K0 = SpaceSpec(0)
X = Poly.of(0, 1)
D = BranchOp((ZERO, Poly.of(1)))

# Each entry builds fresh field values, in field order, so two instances
# share no mutable field.
RECORDS = [
    (Poly, lambda: {"nums": (1, 2), "den": 3}),
    (Poly2, lambda: {"slices": (Poly.of(1), X)}),
    (SpaceSpec, lambda: {"m": 1}),
    (GluedFunction, lambda: {"f": Poly.of(1, 1), "g": Poly.of(1, 2), "space": K0}),
    (BranchOp, lambda: {"coeffs": (ZERO, X)}),
    (Violation, lambda: {"constraint": "a1(0) = 0", "lhs": Fraction(1)}),
    (
        ConditionSet,
        lambda: {
            "space": K0,
            "order": 0,
            "variables": (JetVar("b", 0, 0), JetVar("a", 0, 0)),
            "sparse_rows": ({0: 1, 1: -1},),
        },
    ),
    (
        AdmissibilityReport,
        lambda: {"space": K0, "order": 1, "violations": (Violation("a1(0) = 0", Fraction(1)),)},
    ),
    (PairedOp, lambda: {"d1": D, "d2": D, "space": K0, "order": 1}),
    (SymbolElem, lambda: {"degree": 1, "a": X, "b": -X, "space": K0}),
    (Character, lambda: {"branch": 1, "base_point": Fraction(1, 2)}),
    (IdentityCheck, lambda: {"name": "square", "passed": True, "detail": "x*x"}),
]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_is_an_immutable_value(cls, fields):
    value, twin = cls(**fields()), cls(**fields())
    assert value == twin
    if cls is not ConditionSet:  # it holds dicts, so it is not hashed
        assert hash(value) == hash(tuple(fields().values()))
    name, first = next(iter(fields().items()))
    with pytest.raises(AttributeError):
        setattr(value, name, first)
    if cls is Poly:
        assert repr(value) == "Poly(2/3*x + 1/3)"
    else:
        shown = ", ".join(f"{k}={v!r}" for k, v in fields().items())
        assert repr(value) == f"{cls.__name__}({shown})"


def test_negative_contact_order_is_rejected():
    with pytest.raises(ValueError, match="^contact order must be nonnegative$"):
        SpaceSpec(-1)


@pytest.mark.parametrize(
    "build",
    [lambda: SpaceSpec(2)._replace(m=-1), lambda: SpaceSpec._make([-1])],
    ids=["replace", "make"],
)
def test_negative_contact_order_is_rejected_on_every_path(build):
    with pytest.raises(ValueError, match="^contact order must be nonnegative$"):
        build()


@pytest.mark.parametrize("m", [True, 1.5], ids=["bool", "float"])
def test_non_int_contact_order_is_rejected(m):
    with pytest.raises(TypeError, match="contact order must be an int"):
        SpaceSpec(m)
