"""Exception types shared across the package."""


class CurveGlueError(Exception):
    """Base class for all errors raised by this package."""


class DegreeCapExceeded(CurveGlueError):
    """A polynomial operation produced a degree above the configured cap."""

    def __init__(self, degree, cap):
        super().__init__(f"result degree {degree} exceeds the degree cap {cap}")
        self.degree = degree
        self.cap = cap


class ExactDivisionError(CurveGlueError):
    """Polynomial division left a nonzero remainder."""

    def __init__(self, remainder):
        super().__init__(f"division is not exact, remainder {remainder}")
        self.remainder = remainder


class JetMismatch(CurveGlueError):
    """The two branch functions disagree at some jet coefficient at 0."""

    def __init__(self, index, left, right):
        from .poly import rational_str  # poly imports this module

        try:
            values = " != ".join(rational_str(*v.as_integer_ratio()) for v in (left, right))
        except CurveGlueError as exc:  # a value too long to print
            values = str(exc)
        super().__init__(f"jet coefficient {index} differs between branches: {values}")
        self.index = index
        self.left = left
        self.right = right


class SpaceMismatch(CurveGlueError):
    """Two values living on spaces with different contact order were combined."""


class EmbeddingError(CurveGlueError):
    """The embedding profile h fails its order-of-zero requirement."""


class OrderError(CurveGlueError):
    """An operator or symbol was used at an incompatible order/degree."""


class _ReportError(CurveGlueError):
    """A report's violated constraints after the subclass's ``prefix``.  The
    subclasses stay siblings: the CLI exits 1 on an inadmissible pair but 2
    on an invalid symbol, which is malformed input."""

    def __init__(self, report):
        super().__init__(self.prefix + "; ".join(v.constraint for v in report.violations))
        self.report = report


class AdmissibilityError(_ReportError):
    """An operator pair fails the glued-space admissibility conditions."""

    prefix = "operator pair is not admissible: "


class SymbolConditionError(_ReportError):
    """A coefficient pair fails the symbol membership conditions at its degree."""

    prefix = "invalid symbol: "


class ClosureBugError(CurveGlueError):
    """Internal inconsistency: a composition/commutator of admissible pairs
    failed the admissibility check, which closure theorems rule out."""


class UnsupportedSpaceError(CurveGlueError):
    """The requested check is only implemented for specific contact orders."""


class DSLSyntaxError(CurveGlueError):
    """Input text does not conform to the DSL grammar."""

    def __init__(self, message, line=None, column=None):
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)
        self.line = line
        self.column = column
