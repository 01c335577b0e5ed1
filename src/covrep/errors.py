"""Exception hierarchy shared by all covrep modules."""


class CovrepError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(CovrepError):
    """Matrix or tensor dimensions are inconsistent."""


class AlgebraMismatch(CovrepError):
    """Objects were built over different coefficient algebras."""


class AmbientMismatch(CovrepError):
    """Subspaces live in ambient spaces of different dimension."""


class PositivityFailure(CovrepError):
    """A semi-inner-product Gram matrix has a significantly negative eigenvalue."""


class NotStarRepresentation(CovrepError):
    """The coefficient representation is not unitarily a sum of id (x) I_m blocks."""


class BimoduleViolation(CovrepError):
    """T(a xi b) != sigma(a) T(xi) sigma(b) beyond tolerance."""


class IllDefinedTilde(CovrepError):
    """The map xi (x) h -> T(xi) h does not annihilate the Gram kernel."""


class NotLeftInvertible(CovrepError):
    """The canonical operator is not bounded below."""


class NotConcave(CovrepError):
    """The representation does not satisfy the concavity inequality."""


class NotIsometric(CovrepError):
    """The representation is not isometric."""


class NotSigmaInvariant(CovrepError):
    """The subspace is not invariant under the coefficient representation."""


class NotInvariant(CovrepError):
    """The subspace is not invariant for the covariant representation."""


class KindMismatch(CovrepError):
    """The instance kind does not match the requested operation."""


class CommutationViolation(CovrepError):
    """A tuple fails the product-system commutation relation."""


class ProfileUnreachable(CovrepError):
    """Random instance generation exhausted its retry budget."""


class ParseError(CovrepError):
    """An instance file could not be parsed into a known schema."""
