"""Finite-dimensional C*-algebras as direct sums of matrix blocks.

An algebra is an ordered list of block sizes (n_1, ..., n_t) standing for
M_{n_1} + ... + M_{n_t}.  Elements are stored blockwise.  A linear map out
of an algebra is stored by its values on the matrix-unit basis as one array:
a unital *-homomorphism by its (target.dim, source.dim) coefficient matrix,
and the CP maps and representations of the other modules by one
(dim, m, m) stack.  Caller data is checked once, where it enters: the
constructors (``AlgebraElement``, ``StarHom`` and those of the other
modules) and the entry points that take a caller's matrix coerce it with
``numerics.as_matrix``/``as_stack``, and the CLI reads documents through
the ``serialize`` decoders.  Arrays the package built, or that a
constructor has checked, are never re-checked.  The *-hom gate checks the
matrix-unit presentation of each block, 2 n^2 products per block M_n
instead of all dim^2 products of basis images, and one unit check covers
all blocks; ``dilation.validate_rep`` runs it on a representation's images
as the representation holds them, with no copy.  The commutant of a
generating set and its adjoints is H + iH, H its Hermitian part, so it is
solved as a real system over Hermitian unknowns, block by block in the
eigenbasis of one generic element, from the generators' own equations
alone; the returned basis is Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, combinations_with_replacement

import numpy as np

from . import numerics
from .errors import ShapeMismatch
from .numerics import DEFAULT_TOL, Tolerance, as_matrix, as_stack, dagger, linear_extension, max_abs

# spectral gap of the generic element, relative to its largest eigenvalue,
# at which commutant splits the search space (see its docstring)
_CLUSTER_GAP = 1e-2
# bytes of commutator rows folded into commutant's running R at a time
_CHUNK_BYTES = 4 << 20
# unknowns per stretch in which commutant gathers clusters into one group
_GROUP_UNKNOWNS = 16


@dataclass(frozen=True)
class FdCStarAlgebra:
    """Block structure (n_1, ..., n_t) of a finite-dimensional C*-algebra."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(n) for n in self.blocks)
        if len(blocks) < 1 or any(n < 1 for n in blocks):
            raise ValueError(f"invalid block sizes {self.blocks}")
        object.__setattr__(self, "blocks", blocks)
        # label and offset tables, built once: not fields, so eq/hash/repr
        # still see only the block sizes
        labels = tuple(
            (j, a, b) for j, n in enumerate(blocks) for a in range(n) for b in range(n)
        )
        offsets = tuple(accumulate((n * n for n in blocks[:-1]), initial=0))
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_offsets", offsets)

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
        return list(self._labels)

    def basis_index(self, j: int, a: int, b: int) -> int:
        return self._offsets[j] + a * self.blocks[j] + b

    @cached_property
    def _embedding(self):
        """Row and column of each matrix unit in the block-diagonal embedding."""
        j, a, b = np.array(self._labels).T
        start = np.cumsum((0,) + self.blocks[:-1])[j]
        return start + a, start + b

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
    pieces = zip(algebra._offsets, algebra.blocks)
    return AlgebraElement(algebra, tuple(c[o : o + n * n].reshape(n, n) for o, n in pieces))


def diagonal_units(algebra: FdCStarAlgebra) -> np.ndarray:
    """Basis indices of the diagonal units E^{(j)}_{aa}, which sum to 1."""
    return np.array([i for i, (_, a, b) in enumerate(algebra._labels) if a == b])


def unit_product_index(algebra: FdCStarAlgebra, alpha: int, beta: int):
    """Index of b_alpha @ b_beta in the basis, or None when the product is 0.

    Matrix units multiply by the delta rule: E_ab E_cd = [b == c] E_ad inside
    one block and vanish across blocks.
    """
    j1, a, b = algebra._labels[alpha]
    j2, c, d = algebra._labels[beta]
    if j1 != j2 or b != c:
        return None
    return algebra.basis_index(j1, a, d)


def boxplus_rep_images(algebra: FdCStarAlgebra, mults) -> np.ndarray:
    """Basis images of the representation a -> boxplus_j (a_j (x) 1_{c_j}).

    Returned as one fresh (dim, h, h) array, h = sum_j n_j c_j; E^{(j)}_{ab}
    sends carrier row (j, b, rho) to (j, a, rho).  Blocks with c_j = 0 take
    no room.  The positions of the ones are built once per shape.
    """
    h, ones = _boxplus_ones(algebra.blocks, tuple(int(c) for c in mults))
    out = np.zeros((algebra.dim, h, h), dtype=np.complex128)
    out[ones] = 1.0
    return out


@lru_cache
def _boxplus_ones(blocks: tuple[int, ...], mults: tuple[int, ...]):
    """(h, (basis, row, col)) for boxplus_rep_images, as read-only index arrays."""
    h = sum(n * c for n, c in zip(blocks, mults))
    parts, offset, row = [], 0, 0
    for n, c in zip(blocks, mults):
        a, b, rho = np.ix_(range(n), range(n), range(c))
        parts.append((offset + a * n + b, row + a * c + rho, row + b * c + rho))
        offset += n * n
        row += n * c
    return h, numerics.frozen_index(parts)


@dataclass(frozen=True, eq=False)
class StarHom:
    """A linear map between algebras stored on the matrix-unit basis.

    ``matrix`` is its (target.dim, source.dim) coefficient matrix: column
    alpha holds the coordinates of f(E_alpha) on the target's matrix units.
    The images f(E_alpha) may be passed instead, as elements of the target.
    Nothing beyond linearity is assumed; unitality, multiplicativity, and
    *-preservation are verified by check_star_hom, so invalid maps are
    first-class values that fail the gate.
    """

    source: FdCStarAlgebra
    target: FdCStarAlgebra
    matrix: np.ndarray

    def __post_init__(self):
        mat = self.matrix
        if not isinstance(mat, np.ndarray):
            images = tuple(mat)
            if any(img.algebra.blocks != self.target.blocks for img in images):
                raise ShapeMismatch("image lives in the wrong algebra")
            mat = np.array([img.coefficients() for img in images]).T
        mat = as_matrix(mat)
        if mat.shape != (self.target.dim, self.source.dim):
            raise ShapeMismatch("need one image per matrix unit of the source")
        object.__setattr__(self, "matrix", mat)

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        if a.algebra.blocks != self.source.blocks:
            raise ShapeMismatch("element not in the source algebra")
        coeffs = linear_extension(a.coefficients(), self.matrix.T)
        return element_from_coefficients(self.target, coeffs)

    def embedded_images(self) -> np.ndarray:
        """The images f(E_alpha) embedded block-diagonally, one (dim, N, N) array."""
        n = self.target.ambient_dim
        out = np.zeros((self.source.dim, n, n), dtype=np.complex128)
        rows, cols = self.target._embedding
        out[:, rows, cols] = self.matrix.T
        return out


def identity_hom(algebra: FdCStarAlgebra) -> StarHom:
    return StarHom(algebra, algebra, numerics.eye(algebra.dim))


def compose_homs(f: StarHom, g: StarHom) -> StarHom:
    """The composite f o g (apply g first)."""
    if g.target.blocks != f.source.blocks:
        raise ShapeMismatch("homomorphisms are not composable")
    return StarHom(g.source, f.target, linear_extension(g.matrix, f.matrix.T).T)


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
    """Verify unitality, multiplicativity, and *-preservation on the presentation.

    Write P^j_ab for the embedded image of E^{(j)}_ab, an N x N matrix.  M_n
    is presented by its matrix units (Davidson, C*-Algebras by Example,
    III.2), so per block the gate checks P_ab = P_a0 P_0b and P_0a P_b0 =
    delta_ab P_00 (two broadcast products, 2 n^2 in all; r is the largest
    residual) and P_ab* = P_ba (s); e1 = max|sum_j sum_a P^j_aa - 1| covers
    all blocks.  Linearity holds structurally.  Scale 1: no multiple of a
    *-homomorphism is one.

    The checked products are a subset of all dim^2 pairs, so r is at most
    the pairwise residual max|P_alpha P_beta - P_(alpha beta)|, and the
    unital and star residuals are the pairwise check's own.  Conversely,
    with mu = max ||P_alpha||_2 (1 for a *-homomorphism), d = sum_j n_j,
    rho = N r, sigma = N s, eps = N e1 (||X||_2 <= N max|X|) and c = 1 + 2 mu
    + 2 mu^2, every product within a block is off by at most c rho.  The
    Hermitian parts H_i of the d diagonal units obey ||H_i^2 - H_i|| <= eta
    = c rho + sigma (mu + 1/2 + sigma / 4) and sum to 1 within eps, so for
    i != k, ||H_i H_k|| <= delta0 = sqrt(mu^2 eps + mu (1 + (d - 1) mu) eta),
    and when (d - 2) delta0 < 1 also <= (mu^2 eps + 2 mu eta) / (1 - (d - 2)
    delta0); let delta be the smaller.  A product across blocks is then off
    by at most mu^2 (delta + mu sigma + sigma^2 / 4) + 2 mu^2 c rho + c^2
    rho^2.  The pairwise residual is at most the larger of the two bounds.
    """
    return _check_presentation(f.source, f.embedded_images(), tol)


def _check_presentation(src: FdCStarAlgebra, images: np.ndarray, tol: Tolerance):
    """check_star_hom's test on the (src.dim, N, N) images P_alpha as given:
    dilation.validate_rep passes a representation's images as it holds them."""
    unit = np.zeros(src.dim)
    unit[diagonal_units(src)] = 1.0
    unit_res = max_abs(linear_extension(unit, images) - numerics.eye(images.shape[1]))

    mult_res = star_res = 0.0
    for n, offset in zip(src.blocks, src._offsets):
        # p[a, b] is P_ab of this block
        p = images[offset : offset + n * n].reshape((n, n) + images.shape[1:])
        through = p[:, :1] @ p[:1]
        through -= p
        back = p[0][:, None] @ p[:, 0][None]
        # the diagonal (a, a) of the fresh (n, n, N, N) product, as a view
        back.reshape((n * n,) + images.shape[1:])[:: n + 1] -= p[0, 0]
        mult_res = max(mult_res, max_abs(through), max_abs(back))
        star_res = max(star_res, max_abs(np.conj(p).transpose(1, 0, 3, 2) - p))
    return StarHomReport(
        unital=tol.within(unit_res),
        multiplicative=tol.within(mult_res),
        star_preserving=tol.within(star_res),
        residuals={"unital": unit_res, "multiplicative": mult_res, "star": star_res},
    )


def commutant(generators, ambient_dim: int, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Hilbert-Schmidt-orthonormal Hermitian basis of the commutant of a
    generating set together with its adjoints.

    That commutant is closed under adjoints, so it is H + iH for the real
    space H = {X = X* : [S_i, X] = 0}, and a basis of H over the reals is a
    basis of the commutant.  For Hermitian X, [S_i*, X] = -[S_i, X]*, so
    only the generators' own equations are needed, in real arithmetic.

    Every such X commutes with G = sum_i w_i Re S_i + w'_i Im S_i, so it is
    block diagonal over G's eigenspaces: the first step of the
    block-diagonalisation of Murota, Kanno, Kojima and Kojima (Japan J.
    Indust. Appl. Math. 27, 2010).  The weights are golden-ratio fractional
    parts in [0.5, 1.5), with no RNG.  One eigensolve of G, with its sorted
    spectrum cut wherever consecutive eigenvalues differ by more than 1e-2
    max|lambda|, gives clusters, and X = u blockdiag(Y_c) u* is solved for
    the sum_c m_c^2 real unknowns of the Hermitian Y_c, not h^2: the m_c
    diagonal entries and the real and imaginary parts of the upper ones.
    Each unknown is the coefficient of an element of the Hilbert-Schmidt-
    orthonormal Hermitian basis E_pp, (E_pq + E_qp) / sqrt 2 and
    i (E_pq - E_qp) / sqrt 2, so an orthonormal null space gives an
    orthonormal basis.

    Merging eigenspaces only enlarges the search space: a coarse gap costs
    time, never correctness.  A fine gap costs accuracy, since across a gap
    g the computed eigenvectors mix by about eps ||G|| / g and that mixing
    enters the commutation residual directly.  At 1e-2 the residual stays
    near the dense null space's: 5e-15 against 2.5e-15 on inflated
    dilations, where a gap of sqrt(eps_rank) gave 1.8e-13.

    Column k of the reduced system A_H is [S', B_k] for S' = u* S u and the
    basis element B_k, scattered by index and split into its real and
    imaginary parts.  Write A for the complex system over all the entries of
    the Y_c and the equations of the S_i and S_i*.  For X = P + iQ with P, Q
    Hermitian, ||A X||^2 = 2 (||A_H P||^2 + ||A_H Q||^2), so A has the
    singular values of A_H times sqrt 2, with the same multiplicities, and
    ||A||_F^2 = 2 ||A_H||_F^2.  Every decision below is taken on
    s = sqrt 2 sigma(A_H), so each is the one the complex system would take.

    The two rows (i, j) are the real and imaginary parts of entry (i, j) of
    S' X - X S', so they involve only the unknowns of the clusters of i and
    of j.  The clusters whose first unknowns lie in one stretch of 16
    unknowns form a group, and the rows of each pair of groups are folded,
    a few generators at a time, into a running triangular factor over the
    unknowns of that pair alone.  Stacked, each in its unknowns' columns,
    the pairs' factors form an R with A_H's singular values and null space,
    so A_H is never held, and the null space is read off the SVD of R.  On
    three clusters of 25 unknowns that takes 2.6 times fewer flops than
    folding every row over all 75 unknowns; a single group is folded as a
    whole.  The index layout of the unknowns, rows and groups is built once
    per tuple of cluster sizes.

    The cut is eps_rank times a stand-in for A's top singular value: the
    larger of s_1 and |A|_F / h.  Both are at most A's, and the second is
    within a factor h of it, so unknowns whose own equations are all small
    (commuting generators, a cluster of nearly equal eigenvalues) are still
    weighed against the whole stack.  A stand-in at or below eps_rank *
    max ||S||_F is rounding (scalar generators), and every block-diagonal Y
    commutes.  The cut itself never falls below 10 h eps max ||S||_F, the
    rounding with which the reduced system is formed (||S||_2 <= ||S||_F):
    when the stack's top singular value is under about 1e-7 of the
    generators' norm, eps_rank times it would count rounding as rank (a
    conjugated diag(1, 1 + 1.8e-8) gave one element instead of two).  All
    three tests are invariant under rescaling the generators.
    """
    n = int(ambient_dim)
    stack = as_stack(list(generators) or [numerics.zeros(n, n)], side=n)
    flat = stack.reshape(len(stack), n * n)

    t = (_weights(len(stack)) @ flat).reshape(n, n)
    lam, u = numerics.hermitian_eig(t + dagger(t))
    # lam descends, so max|lam| = max(lam_0, -lam_last)
    edges = np.flatnonzero(lam[:-1] - lam[1:] > _CLUSTER_GAP * max(lam[0], -lam[-1])) + 1
    bounds = [0, *edges.tolist(), n]
    unknowns, terms, pairs = _hermitian_layout(tuple(b - a for a, b in zip(bounds, bounds[1:])))

    primed = dagger(u) @ stack @ u
    parts = [None] * len(pairs)
    per_chunk = max(1, _CHUNK_BYTES // (16 * n * n * unknowns))
    for lo in range(0, len(primed), per_chunk):
        block = _hermitian_columns(primed[lo : lo + per_chunk], terms, unknowns)
        for k, (own, cell) in enumerate(pairs):
            sub = block if own is None else block[own[:, None], :, cell]
            # the real and imaginary parts of every row, as rows of A_H
            sub = sub.reshape(len(sub), -1).view(np.float64).T
            if parts[k] is not None:
                sub = np.concatenate([parts[k], sub])
            parts[k] = np.linalg.qr(sub, mode="r")
    if pairs[0][0] is None:
        r = parts[0]
    else:
        r = np.zeros((sum(len(part) for part in parts), unknowns))
        for end, part, (own, _) in zip(accumulate(len(part) for part in parts), parts, pairs):
            r[end - len(part) : end, own] = part

    # |A|_F^2 = 4 h sum_i |S_i - tr(S_i) / h|_F^2 for the complex system A
    centred = flat.copy()
    centred[:, :: n + 1] -= flat[:, :: n + 1].sum(axis=1, keepdims=True) / n
    sing, v = numerics.right_singular(r)
    # the singular values of the complex system A (see the docstring)
    sing *= np.sqrt(2.0)
    top = max(float(sing[0]), 2.0 * np.sqrt(np.vdot(centred, centred).real / n))
    norm = float(np.sqrt(np.square(flat.view(np.float64)).sum(axis=1).max()))
    # a top not above the cut of the norm is rounding (see the docstring)
    floor = 10.0 * n * np.finfo(np.float64).eps * norm
    cut = tol.cut(top, floor) if top > tol.cut(norm) else np.inf
    rank = int(np.count_nonzero(sing > cut))
    # Y = sum_k v_k B_k; an off-diagonal entry takes one term from each of
    # its two unknowns
    unknown, row, col, coef = terms
    y = np.zeros((unknowns - rank, n * n), dtype=np.complex128)
    np.add.at(y, (slice(None), row * n + col), coef * v[unknown, rank:].T)
    return list(u @ y.reshape(-1, n, n) @ dagger(u))


@lru_cache
def _weights(count: int) -> np.ndarray:
    """commutant's z_i = (w_i - i w'_i) / 2, from golden-ratio fractional
    parts w, w' in [0.5, 1.5), so that G = T + T* for T = sum_i z_i S_i."""
    weights = 0.5 + np.modf(np.arange(1, 2 * count + 1) * (1.0 + 5.0**0.5) / 2.0)[0]
    z = 0.5 * (weights[0::2] - 1j * weights[1::2])
    z.setflags(write=False)
    return z


def _hermitian_columns(primed: np.ndarray, terms, unknowns: int) -> np.ndarray:
    """[S', B_k] for each S' of a (count, n, n) stack and each unknown k of
    commutant's layout, as a complex (unknowns, count, n^2) array: its real
    view holds, row by row, the columns of A_H."""
    unknown, row, col, coef = terms
    count, n = len(primed), primed.shape[-1]
    block = np.zeros((unknowns, count, n, n), dtype=np.complex128)
    # S' a E_rc puts a times column r of S' in column c, and
    # a E_rc S' puts a times row c of S' in row r
    block[unknown, :, :, col] = coef[:, None, None] * primed.transpose(2, 0, 1)[row]
    block[unknown, :, row, :] -= coef[:, None, None] * primed.transpose(1, 0, 2)[col]
    return block.reshape(unknowns, count, n * n)


@lru_cache
def _hermitian_layout(sizes: tuple[int, ...]):
    """commutant's index layout for clusters of these sizes, read-only.

    Returns (unknowns, (unknown, row, col, coef), pairs).  Unknown k is the
    coefficient of B_k = sum over its terms of coef E_(row, col) in the
    eigenbasis: one term for a diagonal unknown, two for an off-diagonal
    one.  Each pair of groups is (own, cell), its unknowns and the flat
    positions i n + j of its rows, or (None, None) when there is a single
    group.
    """
    half = 0.5**0.5
    terms = []
    for start, m in zip(accumulate(sizes, initial=0), sizes):
        for p in range(start, start + m):
            terms.append([(p, p, 1.0)])
            for q in range(p + 1, start + m):
                terms.append([(p, q, half), (q, p, half)])
                terms.append([(p, q, 1j * half), (q, p, -1j * half)])
    flat = [(k, *term) for k, ts in enumerate(terms) for term in ts]
    unknown, row, col, coef = map(np.array, zip(*flat))

    # the group of each cluster, then per pair of groups a <= b the
    # unknowns of a and b and the rows (i, j) whose groups are {a, b}
    sizes = np.array(sizes)
    cluster_group = (np.cumsum(sizes**2) - sizes**2) // _GROUP_UNKNOWNS
    if cluster_group[-1] == 0:
        pairs = [(None, None)]
    else:
        group, owner = np.repeat(cluster_group, sizes), np.repeat(cluster_group, sizes**2)
        low = np.minimum.outer(group, group).ravel()
        high = np.maximum.outer(group, group).ravel()
        pairs = [
            (np.flatnonzero(np.isin(owner, (a, b))), np.flatnonzero((low == a) & (high == b)))
            for a, b in combinations_with_replacement(np.unique(cluster_group), 2)
        ]
    for a in [unknown, row, col, coef] + [x for pair in pairs for x in pair if x is not None]:
        a.setflags(write=False)
    return len(terms), (unknown, row, col, coef), pairs
