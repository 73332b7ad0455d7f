"""Exact symbolic calculus on two curves glued with contact of order m.

Public surface: exact rational polynomials and jets, the glued function
algebra with its plane extension/restriction, differential operators on the
branches with the two admissibility checkers, the graded symbol algebra with
its Poisson bracket, and spectrum/witness utilities.
"""

from .errors import (
    AdmissibilityError,
    ClosureBugError,
    CurveGlueError,
    DegreeCapExceeded,
    DSLSyntaxError,
    EmbeddingError,
    ExactDivisionError,
    JetMismatch,
    OrderError,
    SpaceMismatch,
    SymbolConditionError,
    UnsupportedSpaceError,
)
from .glued import (
    GluedFunction,
    SpaceSpec,
    canonical_embedding,
    extend_to_plane,
    make_glued,
    random_glued,
    restrict_to_branches,
)
from .operators import (
    AdmissibilityReport,
    BranchOp,
    ConditionSet,
    PairedOp,
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
    verify_order,
)
from .poly import (
    Poly,
    Poly2,
    degree_cap,
    frac,
    get_degree_cap,
    set_degree_cap,
)
from .sampling import random_admissible_pair, random_symbol
from .spectra import (
    Character,
    char_eval,
    make_character,
    maximal_ideal_factor,
    nullity_identity_check,
    separating_witness,
)
from .symbols import (
    SymbolElem,
    bracket_via_commutator,
    check_symbol_conditions,
    make_symbol,
    pair_symbol,
    poisson_bracket,
    symbol_add,
    symbol_conditions,
    symbol_mul,
    symbol_scale,
    take_symbol,
    zero_symbol,
)

__version__ = "0.1.0"
