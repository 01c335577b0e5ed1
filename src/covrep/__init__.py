"""Finite-dimensional covariant representations of C*-correspondences.

Builds Gram-quotient models of interior tensor products, the canonical
operator calculus of covariant representations (T-tilde, left inverses,
Cauchy duals, wandering subspaces), Wold-type decompositions, and the
doubly-commuting theory of product-system representation tuples, together
with numerical certificates for each theorem on concrete instances.
"""

__version__ = "0.1.0"

from ._linalg import ANGLE_TOL, DEFAULT_TOL, RANK_TOL
from .algebra import (
    MatrixBlocksAlgebra,
    StarRepresentation,
    validate_representation,
)
from .correspondence import (
    ChainTower,
    Correspondence,
    FockHilbert,
    HilbertTower,
    InteriorTensorSpace,
    algebra_correspondence,
    interior_tensor_with_rep,
    internal_tensor,
    validate_correspondence,
)
from .covrep import (
    CheckResult,
    CovariantRep,
    UOperator,
)
from .errors import (
    AlgebraMismatch,
    AmbientMismatch,
    BimoduleViolation,
    CommutationViolation,
    CovrepError,
    IllDefinedTilde,
    KindMismatch,
    NotConcave,
    NotInvariant,
    NotIsometric,
    NotLeftInvertible,
    NotSigmaInvariant,
    NotStarRepresentation,
    ParseError,
    PositivityFailure,
    ProfileUnreachable,
    ShapeMismatch,
)
from .product import (
    ProductRep,
    ProductSystem,
    check_T24_condition_b,
    invariant_closure_alpha,
    script_L_alpha,
    validate_product_system,
    verify_P21,
    verify_P21_all,
    verify_T22,
    verify_T24_equivalence,
    wandering_alpha,
)
from .reporting import CheckItem, TheoremReport, ValidationReport
from .wold import (
    Subspace,
    WoldDecomposition,
    check_dual_reducing_implication,
    check_invariant,
    check_reducing,
    check_wandering,
    h_infinity,
    image,
    invariant_closure,
    kernel,
    script_L_n,
    verify_cauchy_dual_props,
    verify_ker_Ln,
    verify_muhly_solel,
    verify_richter,
    wandering_subspace,
    wold_decompose,
)
