"""Evidence fusion on constrained pre-Boolean algebras.

Builds hyperpower-set style algebras from atoms and logical constraints,
represents basic belief assignments over them, and fuses evidence sources
with classical rules (conjunctive, TBM, Dempster-Shafer) or with the
conflict-free entropy-maximizing rule and its quadratic approximation.
"""

from .algebra import (
    AlgebraError,
    LatticeExplosionError,
    MixedAlgebraError,
    ParseError,
    PreBooleanAlgebra,
    Proposition,
    build_algebra,
    canonical_label,
    is_sub,
    join,
    meet,
    parse_expression,
    powerset_algebra,
)
from .belief import (
    Bba,
    BbaError,
    belief,
    enhancement_bound_check,
    smets_belief,
    total_ignorance,
    validate,
)
from .emr import (
    CellCapError,
    Diagnostics,
    EmrError,
    FusionOutcome,
    IpfReport,
    JointAssignment,
    Rejection,
    emr_check,
    emr_feasible,
    emr_fuse,
    emr_fuse_approx,
    emr_fuse_n,
    ipf_oracle,
    zadeh_family_bbas,
    zadeh_family_oracle,
)
from .optim import SolverConfig
from .rules import (
    ConjunctiveImage,
    InsulationError,
    Redistribution,
    RuleError,
    TotalConflictError,
    conjunctive,
    dempster_fuse,
    free_dsmt_fuse,
    redistribute,
    tbm_fuse,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
