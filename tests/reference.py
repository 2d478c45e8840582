"""Test references: the definitions the program's constructions are checked
against, written out directly.  No program path uses them."""

import numpy as np

from dilatory import numerics
from dilatory.algebra import AlgebraElement, FdCStarAlgebra, StarHom, element_from_coefficients
from dilatory.cpmap import OcpMap, apply
from dilatory.dilation import AnchoredRep
from dilatory.errors import ShapeMismatch
from dilatory.numerics import DEFAULT_TOL, Tolerance, dagger, max_abs


def matrix_units(algebra: FdCStarAlgebra) -> list[AlgebraElement]:
    """Matrix-unit basis E^{(j)}_{ab}, block-major then row-major."""
    return [element_from_coefficients(algebra, e) for e in numerics.eye(algebra.dim)]


def representation_hom(algebra: FdCStarAlgebra, images: np.ndarray) -> StarHom:
    """The map A -> M_h with the given (dim, h, h) basis images."""
    h = images.shape[-1]
    return StarHom(algebra, FdCStarAlgebra((h,)), images.reshape(algebra.dim, h * h).T)


def ampliation_apply(phi: OcpMap, n: int, block_matrix) -> np.ndarray:
    """Apply the n-ampliation to an n-by-n grid of algebra elements: the
    definition of complete positivity the Choi gate is cross-checked with."""
    if n < 1:
        raise ShapeMismatch("ampliation order must be positive")
    rows = list(block_matrix)
    if len(rows) != n or any(len(list(r)) != n for r in rows):
        raise ShapeMismatch(f"expected an {n}x{n} grid of elements")
    return np.block([[apply(phi, a) for a in row] for row in rows])


def pi_apply(rep: AnchoredRep, a: AlgebraElement) -> np.ndarray:
    """pi(a) by linear extension of the basis images."""
    if a.algebra.blocks != rep.algebra.blocks:
        raise ShapeMismatch("element not in the represented algebra")
    return numerics.linear_extension(a.coefficients(), rep.pi_images)


def is_preserving(rep: AnchoredRep, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the anchor V is an isometry, at scale 1 (s V is not one)."""
    return tol.within(max_abs(dagger(rep.V) @ rep.V - numerics.eye(rep.k)))
