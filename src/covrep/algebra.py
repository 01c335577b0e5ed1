"""Finite-dimensional C*-algebras as direct sums of full matrix blocks.

An algebra is determined by its block dimensions (d_1, ..., d_B).  The
linear basis is the family of matrix units, flattened block by block in
row-major order, and "coords" always means the coefficient vector in that
basis; an element is its coords.  A product of two matrix units is a unit
or zero (e^b_pq e^b_qs = e^b_ps) and the adjoint of a unit is a unit, so a
cached 0/1 product table and a cached adjoint permutation are the whole
algebra structure: products, adjoints and the validators are contractions
with them.  The tables, and sigma's multiplicity decomposition, are cached
per instance by ``_linalg._cached``; only ``_layout``'s index tables are
shared, by shape, across instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._linalg import (
    DEFAULT_TOL,
    _cached,
    _freeze,
    as_complex,
    dagger,
    eye_like,
    frozen,
    max_op_norm,
    op_norm,
    orth_cols,
    scale_of,
    screened_op_norm,
)
from .errors import NotStarRepresentation, ShapeMismatch
from .reporting import CheckItem, ValidationReport


@dataclass(frozen=True)
class MatrixBlocksAlgebra:
    """Direct sum of full matrix algebras Mat(d_1) + ... + Mat(d_B)."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.block_dims)
        if not dims:
            raise ShapeMismatch("algebra needs at least one block")
        if any(d < 1 for d in dims):
            raise ShapeMismatch(f"block dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "block_dims", dims)
        object.__setattr__(self, "_cache", {})

    @property
    def dim(self) -> int:
        """Complex linear dimension, sum of d_b^2."""
        return sum(d * d for d in self.block_dims)

    @property
    def faithful_dim(self) -> int:
        """Hilbert dimension of the defining block-diagonal representation."""
        return sum(self.block_dims)

    @property
    @_cached
    def _block_offsets(self) -> tuple[int, ...]:
        offs = [0]
        for d in self.block_dims:
            offs.append(offs[-1] + d * d)
        return tuple(offs)

    # -- coordinate conversions -------------------------------------------

    def _coords(self, x) -> np.ndarray:
        """``x`` as a complex coordinate vector, or ShapeMismatch."""
        x = as_complex(x)
        if x.shape != (self.dim,):
            raise ShapeMismatch(f"expected coords of length {self.dim}, got {x.shape}")
        return x

    def blocks_from_coords(self, coords) -> list[np.ndarray]:
        """The blocks of an element, or of each element of a stack
        (..., dim) of coords, as (..., d, d) arrays."""
        coords = as_complex(coords)
        if coords.shape[-1:] != (self.dim,):
            raise ShapeMismatch(f"expected coords of length {self.dim}, got {coords.shape}")
        lead = coords.shape[:-1]
        return [coords[..., o : o + d * d].reshape(lead + (d, d)) for o, d in zip(self._block_offsets, self.block_dims)]

    def coords_from_blocks(self, blocks) -> np.ndarray:
        """Inverse of ``blocks_from_coords``: (..., d, d) blocks to (..., dim) coords."""
        blocks = [as_complex(b) for b in blocks]
        if len(blocks) != len(self.block_dims):
            raise ShapeMismatch(
                f"expected {len(self.block_dims)} blocks, got {len(blocks)}"
            )
        lead = blocks[0].shape[:-2]
        for d, blk in zip(self.block_dims, blocks):
            if blk.shape != lead + (d, d):
                raise ShapeMismatch(f"block of shape {blk.shape} does not match dim {d}")
        return np.concatenate([b.reshape(lead + (-1,)) for b in blocks], axis=-1)

    # -- algebra operations on coords -------------------------------------

    @property
    @_cached
    def products(self) -> np.ndarray:
        """The product table: products[k, l] = coords(b_k b_l), a read-only
        0/1 tensor of shape (dim, dim, dim)."""
        out = np.zeros((self.dim,) * 3)
        for o, d in zip(self._block_offsets, self.block_dims):
            units = o + np.arange(d * d).reshape(d, d)
            # e_pq e_qs = e_ps
            out[units[:, :, None], units[None, :, :], units[:, None, :]] = 1.0
        return out

    @property
    @_cached
    def size_groups(self) -> tuple[tuple[int, tuple[int, ...], np.ndarray], ...]:
        """``(d, blocks, units)`` for each block size d: the blocks of that
        size and their matrix units, block by block in row-major order."""
        out = []
        for d in sorted(set(self.block_dims)):
            blocks = tuple(b for b, db in enumerate(self.block_dims) if db == d)
            units = np.concatenate([self._block_offsets[b] + np.arange(d * d) for b in blocks])
            out.append((d, blocks, units))
        return tuple(out)

    @property
    @_cached
    def star_index(self) -> np.ndarray:
        """The adjoint permutation: b_k* = b_{star_index[k]}."""
        return np.concatenate([
            o + np.arange(d * d).reshape(d, d).T.ravel()
            for o, d in zip(self._block_offsets, self.block_dims)
        ])

    def star(self, x) -> np.ndarray:
        return np.conj(self._coords(x)[self.star_index])

    @property
    @_cached
    def one(self) -> np.ndarray:
        """The coords of the unit, read-only."""
        return self.coords_from_blocks([np.eye(d, dtype=complex) for d in self.block_dims])

    def faithful(self, coords) -> np.ndarray:
        """Block-diagonal matrix of the defining representation."""
        blocks = self.blocks_from_coords(coords)
        n = self.faithful_dim
        out = np.zeros((n, n), dtype=complex)
        o = 0
        for d, blk in zip(self.block_dims, blocks):
            out[o : o + d, o : o + d] = blk
            o += d
        return out


@dataclass(frozen=True, eq=False)
class StarRepresentation:
    """A *-representation of a MatrixBlocksAlgebra on C^n.

    ``images[k]`` is the n x n image of the k-th matrix unit; applying the
    representation to an element is the corresponding linear combination.
    ``images`` is read-only, copied from the caller's array when it is one.
    """

    algebra: MatrixBlocksAlgebra
    hilbert_dim: int
    images: np.ndarray  # (algebra.dim, n, n)
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        images = as_complex(self.images)
        n = int(self.hilbert_dim)
        if images.shape != (self.algebra.dim, n, n):
            raise ShapeMismatch(
                f"images must have shape {(self.algebra.dim, n, n)}, got {images.shape}"
            )
        object.__setattr__(self, "images", frozen(images, self.images))
        object.__setattr__(self, "hilbert_dim", n)
        object.__setattr__(self, "_cache", {})

    @classmethod
    def identity(cls, algebra: MatrixBlocksAlgebra, tol: float = DEFAULT_TOL) -> "StarRepresentation":
        """The defining block-diagonal representation (faithful)."""
        images = np.stack([algebra.faithful(unit) for unit in np.eye(algebra.dim)])
        return cls(algebra, algebra.faithful_dim, images, tol)

    def apply_coords(self, coords) -> np.ndarray:
        return np.tensordot(self.algebra._coords(coords), self.images, axes=(0, 0))

    @property
    @_cached
    def scale(self) -> float:
        """scale_of(*images), the relative-tolerance scale of this
        representation, from one batched SVD of the images."""
        return 1.0 + max_op_norm(self.images)

    @property
    @_cached
    def multiplicity(self) -> "Multiplicity":
        """sigma in its own basis, built once: U* sigma(e^b_pq) U = e_pq (x) I_{m_b}.

        Column (p, j) of block b is sigma(e^b_p1) v_j, for an orthonormal
        basis v_1..v_{m_b} of the range of sigma(e^b_11).  The ranges of the
        projections sigma(e^b_11) are orthogonal, so one decomposition of
        sum_b (b + 1) sigma(e^b_11) gives them all: the eigenvectors with
        eigenvalue within 0.5 of b + 1 (0.5 is the cut of every projector
        range).  A basis of the complement of sigma(1)H closes U.  Raises
        NotStarRepresentation when |U*U - I| or some
        |sigma(b_k) U - U (e_k (x) I (+) 0)| (which is
        |U* sigma(b_k) U - e_k (x) I (+) 0| for a unitary U) exceeds
        tol * scale.
        """
        alg, images, n = self.algebra, self.images, self.hilbert_dim
        count = len(alg.block_dims)
        # eigh reads one triangle; a sigma that is not a *-representation
        # fails the residual check below
        heads = np.arange(1.0, count + 1.0) @ images[list(alg._block_offsets[:-1])].reshape(count, n * n)
        vals, vecs = np.linalg.eigh(heads.reshape(n, n))
        # eigenvalues ascend, so block b's vectors, those at level b + 1,
        # sit between bounds[b] and bounds[b + 1]
        bounds = np.searchsorted(np.rint(vals), np.arange(0.5, count + 1.0))
        lay = _layout(alg, tuple((bounds[1:] - bounds[:-1]).tolist()), n)
        ranges = vecs[:, bounds[0] + lay.picks] * lay.have
        # cols[:, b, p, j] = sigma(e^b_p1) v_j, zero where p >= d_b or j >= m_b
        cols = (images[lay.units] @ ranges.transpose(1, 0, 2)[:, None]) * lay.rows[:, :, None, None]
        cols = cols.transpose(2, 0, 1, 3)
        basis = cols.reshape(n, math.prod(cols.shape[1:]))[:, lay.select]
        if lay.span < n:
            basis = np.concatenate((basis, orth_cols(eye_like(n) - basis @ dagger(basis), 0.5)), axis=1)
        if basis.shape[1] != n:
            raise NotStarRepresentation(f"sigma's block ranges give {basis.shape[1]} basis vectors in dimension {n}")
        # U (e_k (x) I (+) 0) = [U 0][:, moves of b_k*], as a stack of transposes;
        # scale >= 1: a residual within tol passes without the scale's SVDs
        closed = np.concatenate((basis, np.zeros((n, 1), dtype=complex)), axis=1)
        residual = screened_op_norm(
            np.concatenate((
                (dagger(basis) @ basis - eye_like(n))[None],
                (images @ basis).transpose(0, 2, 1) - closed.T[lay.moves[alg.star_index]],
            )),
            self.tol,
        )
        if residual > self.tol and residual > self.tol * self.scale:
            raise NotStarRepresentation(
                f"sigma is not unitarily a sum of id (x) I_m blocks (residual {residual:.3e})"
            )
        groups = tuple(
            LiveBlocks(d, units, cols[:, seen, :d, :top].transpose(2, 0, 1, 3), present)
            for d, units, seen, top, present in lay.groups
        )
        return Multiplicity(basis, lay.mults, lay.moves, lay.reads, lay.span, groups)


class _Layout(NamedTuple):
    """Index tables of ``StarRepresentation.multiplicity`` that depend only on
    the algebra, the multiplicities and dim H (see ``_layout``)."""

    mults: tuple[int, ...]
    picks: np.ndarray
    have: np.ndarray
    rows: np.ndarray
    units: np.ndarray
    select: np.ndarray
    span: int
    moves: np.ndarray
    reads: np.ndarray
    groups: tuple


@lru_cache(maxsize=256)
def _layout(alg: MatrixBlocksAlgebra, mults: tuple[int, ...], n: int) -> _Layout:
    """The index tables of sigma's own basis for multiplicities ``mults``.

    Representations of one shape recur (every restriction, every rebuilt
    instance), so the tables are built once per shape.  With depth = max m_b
    and width = max d_b: ``picks[b, j]`` is the eigenvector of block b's
    j-th range vector, counted from the first range vector, where
    ``have[b, j]`` (j < m_b); ``rows[b, p]`` is p < d_b and ``units[b, p]``
    the index of e^b_p1 (of e^b_11 where p >= d_b); ``select`` picks the
    columns (b, p, j) with p < d_b, j < m_b from the (blocks, width, depth)
    grid, ``span`` of them; ``moves`` and ``reads`` are ``Multiplicity``'s; ``groups`` holds ``(d, units, blocks, top, present)``
    of each size with m_b > 0, top the largest m_b there.
    """
    dims, m = np.array(alg.block_dims), np.array(mults)
    j, p = np.arange(m.max()), np.arange(dims.max())
    have = j < m[:, None]
    picks = np.where(have, (np.cumsum(m) - m)[:, None] + j, 0)
    rows = p < dims[:, None]
    units = np.array(alg._block_offsets[:-1])[:, None] + np.where(rows, p * dims[:, None], 0)
    valid = rows[:, :, None] & have[:, None, :]
    select = np.flatnonzero(valid)
    span = len(select)
    # column c of U is (block_of, p_of, j_of)[c], and index[b, p, j] is its
    # column; b_k = e^b_pq moves row (b, p, j) from (b, q, j)
    block_of, p_of, j_of = np.nonzero(valid)
    index = np.full(valid.shape, n)
    index[valid] = np.arange(span)
    unit_block = np.repeat(np.arange(len(dims)), dims * dims)[:, None]
    unit_p = np.concatenate([np.repeat(np.arange(d), d) for d in alg.block_dims])[:, None]
    unit_q = np.concatenate([np.tile(np.arange(d), d) for d in alg.block_dims])[:, None]
    # span > n only for a sigma that multiplicity refuses
    moves = np.full((alg.dim, max(n, span)), n)
    moves[:, :span] = np.where((block_of == unit_block) & (p_of == unit_p), index[unit_block, unit_q, j_of], n)
    moves = moves[:, :n]
    reads = np.zeros((alg.dim, n))
    unit, row = np.nonzero(moves < n)
    reads[unit, moves[unit, row]] = 1.0
    groups = []
    for d, blocks, block_units in alg.size_groups:
        live = [i for i, blk in enumerate(blocks) if mults[blk]]
        if live:
            seen = [blocks[i] for i in live]
            top = max(mults[blk] for blk in seen)
            groups.append((d, block_units.reshape(len(blocks), d * d)[live].ravel(), seen, top, have[seen, :top]))
    # the tables are shared by every representation of this shape
    return _freeze(_Layout(mults, picks, have, rows, units, select, span, moves, reads, tuple(groups)))


class LiveBlocks(NamedTuple):
    """The algebra blocks of one size d that sigma does not kill (m_b > 0).

    ``units`` are their matrix units, d * d per block in row-major order;
    ``columns[p, h, i, j]`` is U[h, (p, j)] of the i-th of them, zero where
    j >= m_b, and ``present[i, j]`` is j < m_b.
    """

    d: int
    units: np.ndarray
    columns: np.ndarray
    present: np.ndarray


@dataclass(frozen=True, eq=False)
class Multiplicity:
    """The multiplicity decomposition H = (+)_b C^{d_b} (x) C^{m_b} (+) ker sigma(1).

    ``basis`` is the unitary U: the blocks follow each other, block b
    owning d_b * m_b columns ordered (p, j) with p < d_b, j < m_b, and the
    columns after the last block span the complement of sigma(1)H.
    ``moves[k]`` applies U* sigma(b_k) U = e_k (x) I (+) 0 as a gather:
    row r of (U* sigma(b_k) U) X is row ``moves[k, r]`` of X, and zero
    where ``moves[k, r]`` is n.
    ``reads[k]`` is 1.0 at the rows ``moves[k]`` reads, each once (b_k =
    e^b_pq reads row (b, q, j) into row (b, p, j)), and 0.0 elsewhere.
    ``span`` counts the block columns, the first ``span`` of U: U* sigma(1) U
    keeps them and kills the rest.
    ``groups`` holds the blocks with m_b > 0, by size (``LiveBlocks``).
    """

    basis: np.ndarray
    mults: tuple[int, ...]
    moves: np.ndarray
    reads: np.ndarray
    span: int
    groups: tuple[LiveBlocks, ...]


def validate_representation(sigma: StarRepresentation) -> ValidationReport:
    """Check multiplicativity, *-preservation, and nondegeneracy of sigma.

    Nondegeneracy of a representation of a unital algebra amounts to
    sigma(1) = I, which is exactly the projection onto span sigma(M)H.
    """
    alg = sigma.algebra
    images = sigma.images
    bound = sigma.tol * scale_of(images.reshape(alg.dim, -1))
    # sigma(b_k b_l) - sigma(b_k) sigma(b_l) and sigma(b_k*) - sigma(b_k)*
    mult = max_op_norm(
        np.tensordot(alg.products, images, axes=(2, 0)) - images[:, None] @ images[None, :]
    )
    star = max_op_norm(images[alg.star_index] - np.conj(images.transpose(0, 2, 1)))
    nondeg = op_norm(sigma.apply_coords(alg.one) - np.eye(sigma.hilbert_dim))

    items = (
        CheckItem("multiplicativity", mult <= bound, mult),
        CheckItem("star_preservation", star <= bound, star),
        CheckItem("nondegeneracy", nondeg <= bound, nondeg),
    )
    return ValidationReport("star_representation", items)
