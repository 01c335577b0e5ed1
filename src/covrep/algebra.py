"""Finite-dimensional C*-algebras as direct sums of full matrix blocks.

An algebra is determined by its block dimensions (d_1, ..., d_B).  The
linear basis is the family of matrix units, flattened block by block in
row-major order, and "coords" always means the coefficient vector in that
basis; an element is its coords.  A product of two matrix units is a unit
or zero (e^b_pq e^b_qs = e^b_ps) and the adjoint of a unit is a unit, so a
cached 0/1 product table and a cached adjoint permutation are the whole
algebra structure: products, adjoints and the validators are contractions
with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import DEFAULT_TOL, as_complex, max_op_norm, op_norm, scale_of
from .errors import ShapeMismatch
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

    @property
    def dim(self) -> int:
        """Complex linear dimension, sum of d_b^2."""
        return sum(d * d for d in self.block_dims)

    @property
    def faithful_dim(self) -> int:
        """Hilbert dimension of the defining block-diagonal representation."""
        return sum(self.block_dims)

    @cached_property
    def _block_offsets(self) -> tuple[int, ...]:
        offs = [0]
        for d in self.block_dims:
            offs.append(offs[-1] + d * d)
        return tuple(offs)

    def unit_index(self, block: int, p: int, q: int) -> int:
        d = self.block_dims[block]
        return self._block_offsets[block] + p * d + q

    # -- coordinate conversions -------------------------------------------

    def _coords(self, x) -> np.ndarray:
        """``x`` as a complex coordinate vector, or ShapeMismatch."""
        x = as_complex(x)
        if x.shape != (self.dim,):
            raise ShapeMismatch(f"expected coords of length {self.dim}, got {x.shape}")
        return x

    def blocks_from_coords(self, coords) -> list[np.ndarray]:
        coords = self._coords(coords)
        return [coords[o : o + d * d].reshape(d, d) for o, d in zip(self._block_offsets, self.block_dims)]

    def coords_from_blocks(self, blocks) -> np.ndarray:
        blocks = list(blocks)
        if len(blocks) != len(self.block_dims):
            raise ShapeMismatch(
                f"expected {len(self.block_dims)} blocks, got {len(blocks)}"
            )
        pieces = []
        for d, blk in zip(self.block_dims, blocks):
            blk = as_complex(blk)
            if blk.shape != (d, d):
                raise ShapeMismatch(f"block of shape {blk.shape} does not match dim {d}")
            pieces.append(blk.reshape(-1))
        return np.concatenate(pieces)

    # -- algebra operations on coords -------------------------------------

    @cached_property
    def products(self) -> np.ndarray:
        """The product table: products[k, l] = coords(b_k b_l), a read-only
        0/1 tensor of shape (dim, dim, dim)."""
        out = np.zeros((self.dim,) * 3)
        for o, d in zip(self._block_offsets, self.block_dims):
            units = o + np.arange(d * d).reshape(d, d)
            # e_pq e_qs = e_ps
            out[units[:, :, None], units[None, :, :], units[:, None, :]] = 1.0
        out.flags.writeable = False
        return out

    @cached_property
    def star_index(self) -> np.ndarray:
        """The adjoint permutation: b_k* = b_{star_index[k]}."""
        out = np.concatenate([
            o + np.arange(d * d).reshape(d, d).T.ravel()
            for o, d in zip(self._block_offsets, self.block_dims)
        ])
        out.flags.writeable = False
        return out

    def mul(self, x, y) -> np.ndarray:
        return np.einsum("k,l,klm->m", self._coords(x), self._coords(y), self.products)

    def star(self, x) -> np.ndarray:
        return np.conj(self._coords(x)[self.star_index])

    @cached_property
    def one(self) -> np.ndarray:
        return self.coords_from_blocks([np.eye(d, dtype=complex) for d in self.block_dims])

    def unit_coords(self, k: int) -> np.ndarray:
        e = np.zeros(self.dim, dtype=complex)
        e[k] = 1.0
        return e

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
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "hilbert_dim", n)

    @classmethod
    def identity(cls, algebra: MatrixBlocksAlgebra, tol: float = DEFAULT_TOL) -> "StarRepresentation":
        """The defining block-diagonal representation (faithful)."""
        images = np.stack([algebra.faithful(unit) for unit in np.eye(algebra.dim)])
        return cls(algebra, algebra.faithful_dim, images, tol)

    def apply_coords(self, coords) -> np.ndarray:
        return np.tensordot(self.algebra._coords(coords), self.images, axes=(0, 0))

    @cached_property
    def scale(self) -> float:
        """scale_of(*images), the relative-tolerance scale of this representation."""
        return scale_of(*self.images)


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
