"""Finite-dimensional C*-algebras as direct sums of matrix blocks.

An algebra is an ordered list of block sizes (n_1, ..., n_t) standing for
M_{n_1} + ... + M_{n_t}.  Elements are stored blockwise, unital
*-homomorphisms are stored by their images on the matrix-unit basis, and the
commutant of a generating set is computed as the joint null space of
commutator superoperators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import ShapeMismatch
from .numerics import DEFAULT_TOL, Tolerance, as_matrix, dagger, kron, max_abs


@dataclass(frozen=True)
class FdCStarAlgebra:
    """Block structure (n_1, ..., n_t) of a finite-dimensional C*-algebra."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(n) for n in self.blocks)
        if len(blocks) < 1 or any(n < 1 for n in blocks):
            raise ValueError(f"invalid block sizes {self.blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        """Linear dimension, sum of n_j squared."""
        return sum(n * n for n in self.blocks)

    @property
    def ambient_dim(self) -> int:
        """Size of the block-diagonal embedding, sum of n_j."""
        return sum(self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def basis_labels(self):
        """(block, row, col) triples in block-major, then row-major order."""
        labels = []
        for j, n in enumerate(self.blocks):
            for a in range(n):
                for b in range(n):
                    labels.append((j, a, b))
        return labels

    def basis_index(self, j: int, a: int, b: int) -> int:
        offset = sum(n * n for n in self.blocks[:j])
        return offset + a * self.blocks[j] + b

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, tuple(numerics.zeros(n, n) for n in self.blocks))

    def unit(self) -> "AlgebraElement":
        return AlgebraElement(self, tuple(numerics.eye(n) for n in self.blocks))


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One element, stored as one dense matrix per block."""

    algebra: FdCStarAlgebra
    block_data: tuple[np.ndarray, ...]

    def __post_init__(self):
        data = tuple(as_matrix(b) for b in self.block_data)
        if len(data) != self.algebra.num_blocks:
            raise ShapeMismatch("block count does not match the algebra")
        for mat, n in zip(data, self.algebra.blocks):
            if mat.shape != (n, n):
                raise ShapeMismatch(f"block shape {mat.shape} != ({n}, {n})")
        object.__setattr__(self, "block_data", data)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_algebra(other)
        return AlgebraElement(
            self.algebra, tuple(a + b for a, b in zip(self.block_data, other.block_data))
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_algebra(other)
        return AlgebraElement(
            self.algebra, tuple(a - b for a, b in zip(self.block_data, other.block_data))
        )

    def __mul__(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(complex(scalar) * a for a in self.block_data))

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_algebra(other)
        return AlgebraElement(
            self.algebra, tuple(a @ b for a, b in zip(self.block_data, other.block_data))
        )

    def star(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(dagger(a) for a in self.block_data))

    def coefficients(self) -> np.ndarray:
        """Coordinates on the matrix-unit basis, block-major row-major."""
        return np.concatenate([b.reshape(-1) for b in self.block_data])

    def trace(self) -> complex:
        return complex(sum(np.trace(b) for b in self.block_data))

    def norm(self) -> float:
        """C*-norm: largest operator norm over the blocks."""
        return max(numerics.op_norm(b) for b in self.block_data)

    def _same_algebra(self, other: "AlgebraElement"):
        if self.algebra.blocks != other.algebra.blocks:
            raise ShapeMismatch("elements live in different algebras")


def element_from_coefficients(algebra: FdCStarAlgebra, coeffs) -> AlgebraElement:
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if c.size != algebra.dim:
        raise ShapeMismatch(f"expected {algebra.dim} coefficients, got {c.size}")
    data = []
    pos = 0
    for n in algebra.blocks:
        data.append(c[pos : pos + n * n].reshape(n, n))
        pos += n * n
    return AlgebraElement(algebra, tuple(data))


def matrix_units(algebra: FdCStarAlgebra) -> list[AlgebraElement]:
    """Matrix-unit basis E^{(j)}_{ab}, block-major then row-major."""
    units = []
    for j, a, b in algebra.basis_labels():
        data = [numerics.zeros(n, n) for n in algebra.blocks]
        data[j][a, b] = 1.0
        units.append(AlgebraElement(algebra, tuple(data)))
    return units


def unit_product_index(algebra: FdCStarAlgebra, alpha: int, beta: int):
    """Index of b_alpha @ b_beta in the basis, or None when the product is 0.

    Matrix units multiply by the delta rule: E_ab E_cd = [b == c] E_ad inside
    one block and vanish across blocks.
    """
    labels = algebra.basis_labels()
    j1, a, b = labels[alpha]
    j2, c, d = labels[beta]
    if j1 != j2 or b != c:
        return None
    return algebra.basis_index(j1, a, d)


def unit_star_index(algebra: FdCStarAlgebra, alpha: int) -> int:
    j, a, b = algebra.basis_labels()[alpha]
    return algebra.basis_index(j, b, a)


def embed_element(a: AlgebraElement) -> np.ndarray:
    """Block-diagonal embedding into M_N, N the ambient dimension."""
    return numerics.block_diag(a.block_data)


@dataclass(frozen=True, eq=False)
class StarHom:
    """A linear map between algebras stored on the matrix-unit basis.

    Nothing beyond linearity is assumed at construction; unitality,
    multiplicativity, and *-preservation are verified by check_star_hom, so
    invalid maps are first-class values that fail the gate.
    """

    source: FdCStarAlgebra
    target: FdCStarAlgebra
    basis_images: tuple[AlgebraElement, ...]

    def __post_init__(self):
        images = tuple(self.basis_images)
        if len(images) != self.source.dim:
            raise ShapeMismatch("need one image per matrix unit of the source")
        for img in images:
            if img.algebra.blocks != self.target.blocks:
                raise ShapeMismatch("image lives in the wrong algebra")
        object.__setattr__(self, "basis_images", images)

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        if a.algebra.blocks != self.source.blocks:
            raise ShapeMismatch("element not in the source algebra")
        coeffs = a.coefficients()
        out = self.target.zero()
        for c, img in zip(coeffs, self.basis_images):
            if c != 0:
                out = out + c * img
        return out


def identity_hom(algebra: FdCStarAlgebra) -> StarHom:
    return StarHom(algebra, algebra, tuple(matrix_units(algebra)))


def compose_homs(f: StarHom, g: StarHom) -> StarHom:
    """The composite f o g (apply g first)."""
    if g.target.blocks != f.source.blocks:
        raise ShapeMismatch("homomorphisms are not composable")
    return StarHom(g.source, f.target, tuple(f.apply(img) for img in g.basis_images))


@dataclass(frozen=True)
class StarHomReport:
    unital: bool
    multiplicative: bool
    star_preserving: bool
    residuals: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.unital and self.multiplicative and self.star_preserving


def check_star_hom(f: StarHom, tol: Tolerance = DEFAULT_TOL) -> StarHomReport:
    """Verify unitality, multiplicativity, and *-preservation on the basis.

    Multiplicativity is tested on all basis pairs via the delta product rule,
    unitality on the unit, and the star condition on every basis element;
    linearity holds structurally.
    """
    src = f.source
    unit_res = max_abs(
        embed_element(f.apply(src.unit())) - embed_element(f.target.unit())
    )

    images = [embed_element(img) for img in f.basis_images]
    mult_res = 0.0
    dim = src.dim
    for alpha in range(dim):
        for beta in range(dim):
            gamma = unit_product_index(src, alpha, beta)
            expected = images[gamma] if gamma is not None else 0.0
            mult_res = max(mult_res, max_abs(images[alpha] @ images[beta] - expected))

    star_res = 0.0
    for alpha in range(dim):
        star_res = max(
            star_res, max_abs(dagger(images[alpha]) - images[unit_star_index(src, alpha)])
        )
    return StarHomReport(
        unital=unit_res <= tol.eps_eq,
        multiplicative=mult_res <= tol.eps_eq,
        star_preserving=star_res <= tol.eps_eq,
        residuals={"unital": unit_res, "multiplicative": mult_res, "star": star_res},
    )


def commutant(generators, ambient_dim: int, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Hilbert-Schmidt-orthonormal basis of the commutant of a generating set.

    Solves X S = S X for every generator S and its adjoint by stacking the
    commutator superoperators (column-stacking convention) and extracting
    their joint null space at the eps_rank cutoff.
    """
    n = int(ambient_dim)
    gens = [as_matrix(g) for g in generators]
    for g in gens:
        if g.shape != (n, n):
            raise ShapeMismatch(f"generator shape {g.shape} != ({n}, {n})")
    if not gens:
        gens = [numerics.zeros(n, n)]
    ident = numerics.eye(n)
    n2 = n * n
    stacked = np.empty((2 * len(gens) * n2, n2), dtype=np.complex128)
    for i, s in enumerate(m for g in gens for m in (g, dagger(g))):
        # vec(SX - XS) = (I (x) S - S^T (x) I) vec(X), columns stacked
        block = stacked[i * n2 : (i + 1) * n2]
        block[:] = kron(ident, s)
        block -= kron(s.T, ident)
    sing, v = numerics.right_singular(stacked)
    smax = float(sing[0]) if sing.size else 0.0
    if smax <= tol.eps_rank:
        null_cols = range(n2)
    else:
        rank = int(np.count_nonzero(sing > tol.eps_rank * smax))
        null_cols = range(rank, n2)
    basis = []
    for j in null_cols:
        basis.append(np.asarray(v[:, j]).reshape((n, n), order="F"))
    return basis
