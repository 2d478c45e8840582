"""Seeded random instances: CP maps, homomorphisms, and dilation pairs.

Stream splitting: instance i of a run seeded with s draws from
``numpy.random.default_rng(SeedSequence(entropy=s, spawn_key=(i,)))``, so
parallel generation is reproducible and independent of evaluation order.
CP maps are generated through Kraus families, which guarantees complete
positivity by construction.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import numerics
from .algebra import FdCStarAlgebra, StarHom, boxplus_rep_images
from .cpmap import OcpMap, kraus_map
from .dilation import AnchoredRep, DilationCertificate, stinespring_dilate
from .errors import ShapeMismatch
from .numerics import Tolerance, dagger


def rng_for(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for instance ``index`` of the stream seeded with ``seed``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    )


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from a QR decomposition with phase normalization."""
    return unitary_factor(complex_gaussian(rng, n, n))


def unitary_factor(gaussians: np.ndarray) -> np.ndarray:
    """Q of g = QR with column j rotated by the phase of R_jj, for one complex
    Gaussian matrix g or for each matrix of a stack of them.  A stacked call
    runs the same LAPACK routine per matrix and equals the one-at-a-time
    calls bit for bit."""
    q, r = np.linalg.qr(gaussians)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_cp_map(
    rng: np.random.Generator,
    blocks,
    k: int,
    kraus_rank: int = 2,
    unital: bool = False,
) -> OcpMap:
    """Random CP map on the given algebra via Kraus families per block.

    With ``unital`` the family is renormalized by phi(1)^{-1/2} on both
    sides, which keeps complete positivity and enforces phi(1) = 1 whenever
    phi(1) is invertible.
    """
    algebra = FdCStarAlgebra(tuple(blocks))
    if kraus_rank < 1:
        raise ShapeMismatch("kraus_rank must be at least 1")
    families = [
        [complex_gaussian(rng, k, n) for _ in range(kraus_rank)] for n in algebra.blocks
    ]
    if unital:
        total = numerics.zeros(k, k)
        for family in families:
            for t in family:
                total += t @ dagger(t)
        w, u = np.linalg.eigh(total)
        if w[0] <= 1e-12 * max(float(w[-1]), 1.0):
            raise ShapeMismatch(
                "phi(1) is singular; raise kraus_rank to renormalize to a unital map"
            )
        inv_root = (u / np.sqrt(w)[None, :]) @ dagger(u)
        families = [[inv_root @ t for t in family] for family in families]
    return kraus_map(families, algebra, k)


def random_multiplicities(rng: np.random.Generator, source: FdCStarAlgebra, max_mult: int = 2):
    """A multiplicity row per target block, each with at least one copy."""
    t = int(rng.integers(1, 3))
    rows = []
    for _ in range(t):
        while True:
            row = [int(rng.integers(0, max_mult + 1)) for _ in source.blocks]
            if sum(row) > 0:
                rows.append(row)
                break
    return rows


def hom_from_multiplicities(
    source: FdCStarAlgebra, mult_rows, unitaries=None
) -> StarHom:
    """Unital *-homomorphism determined by copy counts per target block.

    Target block i carries mult_rows[i][j] copies of source block j, arranged
    as 1_mult (x) a_j and conjugated by the given (or identity) unitary.
    """
    rows = [list(r) for r in mult_rows]
    target_blocks = []
    for row in rows:
        if len(row) != source.num_blocks or sum(row) == 0:
            raise ShapeMismatch("each target block needs at least one source copy")
        target_blocks.append(sum(m * n for m, n in zip(row, source.blocks)))
    target = FdCStarAlgebra(tuple(target_blocks))
    if unitaries is None:
        unitaries = [numerics.eye(m) for m in target_blocks]

    # column alpha of the coefficient matrix is f(E_alpha), block after block
    columns = []
    for row, size, u in zip(rows, target_blocks, unitaries):
        units = np.zeros((source.dim, size, size), dtype=np.complex128)
        units[_copies_ones(source.blocks, tuple(row))] = 1.0
        columns.append((u @ units @ dagger(u)).reshape(source.dim, -1))
    return StarHom(source, target, np.concatenate(columns, axis=1).T)


@lru_cache
def _copies_ones(blocks: tuple[int, ...], row: tuple[int, ...]):
    """(basis, row, col) of the ones of E_ab -> 1_m (x) E_ab, as read-only
    index arrays: source block j's copies sit at carrier rows (j, copy, a)."""
    parts, offset, start = [], 0, 0
    for n, m in zip(blocks, row):
        rho, a, b = np.ix_(range(m), range(n), range(n))
        parts.append((offset + a * n + b, start + rho * n + a, start + rho * n + b))
        offset += n * n
        start += n * m
    return numerics.frozen_index(parts)


def random_hom(rng: np.random.Generator, source: FdCStarAlgebra, max_mult: int = 2) -> StarHom:
    rows = random_multiplicities(rng, source, max_mult)
    target_blocks = [sum(m * n for m, n in zip(row, source.blocks)) for row in rows]
    unitaries = [random_unitary(rng, m) for m in target_blocks]
    return hom_from_multiplicities(source, rows, unitaries)


def inflate_rep(
    rng: np.random.Generator,
    cert: DilationCertificate,
    extra_mults,
    conjugate: bool = True,
) -> AnchoredRep:
    """Dilation plus a junk summand the anchor never reaches.

    The junk representation carries the requested extra multiplicities; the
    whole thing is optionally conjugated by a random unitary.  The
    restriction is unchanged, so the result is a non-minimal Stinespring
    representation of the same map whenever the extra multiplicities are
    nonzero.
    """
    rep = cert.rep
    algebra = rep.algebra
    extra = list(extra_mults)
    if len(extra) != algebra.num_blocks:
        raise ShapeMismatch("one extra multiplicity per block required")
    junk = boxplus_rep_images(algebra, extra)
    h = rep.h + junk.shape[1]
    images = np.zeros((algebra.dim, h, h), dtype=np.complex128)
    images[:, : rep.h, : rep.h] = rep.pi_images
    images[:, rep.h :, rep.h :] = junk
    v = np.vstack([rep.V, numerics.zeros(h - rep.h, rep.k)])
    if conjugate:
        x = random_unitary(rng, h)
        images = x @ images @ dagger(x)
        v = x @ v
    return AnchoredRep(algebra, rep.k, h, images, v)


def random_dilation_pair(
    rng: np.random.Generator,
    blocks,
    k: int,
    tol: Tolerance,
    extra1=None,
    extra2=None,
    kraus_rank: int = 2,
):
    """Two Stinespring representations of one random CP map.

    ``extra1``/``extra2`` are the junk multiplicities added to each side; equal
    vectors give unitarily equivalent representations, different ones give the
    inequivalent pairs used to exercise the partial purification.
    """
    algebra = FdCStarAlgebra(tuple(blocks))
    phi = random_cp_map(rng, blocks, k, kraus_rank=kraus_rank)
    cert = stinespring_dilate(phi, tol)
    zero = [0] * algebra.num_blocks
    rep1 = inflate_rep(rng, cert, extra1 if extra1 is not None else zero)
    rep2 = inflate_rep(rng, cert, extra2 if extra2 is not None else zero)
    return phi, cert, rep1, rep2
