"""Exact equivariant characteristic-class calculator for quadrics, their
degenerations, and the affine cones over them.

Everything is computed by localization at torus fixed points with exact
rational arithmetic: classes are rational expressions with factored
denominators, identities are checked by cross-multiplied polynomial
equality, positivity is certified coefficient by coefficient, and the
CSM/multidegree specializations go through exact truncated series.
"""

from .algebra import (
    ArityMismatch,
    Character,
    DenominatorVanishes,
    DivisionByZero,
    Monomial,
    NotDivisible,
    RatExpr,
    SparsePoly,
)
from .hirzebruch import (
    AFFINE_KINDS,
    PROJECTIVE_KINDS,
    LocalClass,
    affine_class,
    cone_pushforward,
    projective_class,
)
from .identities import (
    FORMULAS,
    ResidualTDependence,
    VerificationReport,
    chi_y,
    integrate_projective,
    verify,
)
from .positivity import (
    Certificate,
    SPolynomial,
    StructuralRewriteFailed,
    certify,
    check_nonnegative,
    to_positive_form,
)
from .specialize import (
    BiSeries,
    NonvanishingNegativeUPart,
    TruncationTooLow,
    ZeroClass,
    csm,
    csm_both,
    csm_closed_family,
    diagonalize,
    multidegree,
)
from .suite import CriterionResult, property_suite, run_all
from .torus import GeometryConfig, ambient_weights

__version__ = "0.1.0"

__all__ = [
    "AFFINE_KINDS",
    "ArityMismatch",
    "BiSeries",
    "Certificate",
    "Character",
    "CriterionResult",
    "DenominatorVanishes",
    "DivisionByZero",
    "FORMULAS",
    "GeometryConfig",
    "LocalClass",
    "Monomial",
    "NonvanishingNegativeUPart",
    "NotDivisible",
    "PROJECTIVE_KINDS",
    "RatExpr",
    "ResidualTDependence",
    "SPolynomial",
    "SparsePoly",
    "StructuralRewriteFailed",
    "TruncationTooLow",
    "VerificationReport",
    "ZeroClass",
    "affine_class",
    "ambient_weights",
    "certify",
    "check_nonnegative",
    "chi_y",
    "cone_pushforward",
    "csm",
    "csm_both",
    "csm_closed_family",
    "diagonalize",
    "integrate_projective",
    "multidegree",
    "projective_class",
    "property_suite",
    "run_all",
    "to_positive_form",
    "verify",
]
