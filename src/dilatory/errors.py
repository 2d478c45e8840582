"""Exception hierarchy shared by all dilatory modules."""


class DilatoryError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(DilatoryError):
    """Operands have incompatible dimensions."""


class NotHermitian(DilatoryError):
    """Symmetry residual of a would-be Hermitian matrix exceeds tolerance."""


class ConvergenceFailure(DilatoryError):
    """An iterative decomposition (eig/svd) did not converge."""


class NotCompletelyPositive(DilatoryError):
    """A map failed the Choi positivity gate.

    Carries ``min_eigenvalues``, the smallest Choi eigenvalue per block.
    """

    def __init__(self, message, min_eigenvalues=None):
        super().__init__(message)
        self.min_eigenvalues = list(min_eigenvalues) if min_eigenvalues else []


class NotIsometry(DilatoryError):
    """A matrix required to be an isometry is not one at tolerance."""


class NotMorphism(DilatoryError):
    """A candidate morphism fails its defining commuting squares."""


class InvalidHom(DilatoryError):
    """A star-homomorphism gate (unital/multiplicative/star) failed."""


class NotMinimal(DilatoryError):
    """A representation required to be minimal is not."""


class DegenerateDimension(DilatoryError):
    """A Hilbert-space dimension of zero was requested or produced."""


class NotPartialIsometry(DilatoryError):
    """Operand fails the L = L L* L test at tolerance."""


class NotExtension(DilatoryError):
    """Second operand does not extend the first on its initial space."""


class NotTensorForm(DilatoryError):
    """Operator is not of the form identity-tensor-factor at tolerance."""


class NotRepresentation(DilatoryError):
    """Images do not define a unital *-representation at tolerance."""


class NotEquivalent(DilatoryError):
    """Two representations have different multiplicity vectors."""


class RestrictionMismatch(DilatoryError):
    """Two anchored representations do not restrict to the same map."""


class MalformedInput(DilatoryError):
    """A JSON document does not match the dilatory/v1 schema."""
