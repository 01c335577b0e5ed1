"""Finite-dimensional C*-algebras as direct sums of full matrix blocks.

An algebra is determined by its block dimensions (d_1, ..., d_B); an
element is one complex d_b x d_b matrix per block.  The linear basis is
the family of matrix units, flattened block by block in row-major order,
and "coords" always means the coefficient vector in that basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import DEFAULT_TOL, as_complex, dagger, op_norm, scale_of
from .errors import AlgebraMismatch, ShapeMismatch
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

    def blocks_from_coords(self, coords) -> list[np.ndarray]:
        coords = as_complex(coords)
        if coords.shape != (self.dim,):
            raise ShapeMismatch(f"expected coords of length {self.dim}, got {coords.shape}")
        out = []
        for b, d in enumerate(self.block_dims):
            o = self._block_offsets[b]
            out.append(coords[o : o + d * d].reshape(d, d))
        return out

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

    def mul(self, x, y) -> np.ndarray:
        xs = self.blocks_from_coords(x)
        ys = self.blocks_from_coords(y)
        return self.coords_from_blocks([a @ b for a, b in zip(xs, ys)])

    def star(self, x) -> np.ndarray:
        return self.coords_from_blocks([dagger(b) for b in self.blocks_from_coords(x)])

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

    @cached_property
    def trace_vec(self) -> np.ndarray:
        """tr of the faithful image per basis unit (1 on diagonal units)."""
        t = np.zeros(self.dim, dtype=complex)
        for b, d in enumerate(self.block_dims):
            for p in range(d):
                t[self.unit_index(b, p, p)] = 1.0
        return t

    def norm(self, coords) -> float:
        return op_norm(self.faithful(coords))

    def element(self, blocks) -> "AlgebraElement":
        return AlgebraElement(self, tuple(as_complex(b) for b in blocks))

    def from_coords(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, tuple(self.blocks_from_coords(coords)))


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One matrix per block of a MatrixBlocksAlgebra."""

    algebra: MatrixBlocksAlgebra
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        # validates shapes as a side effect
        object.__setattr__(self, "_coords", self.algebra.coords_from_blocks(self.blocks))

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    def star(self) -> "AlgebraElement":
        return self.algebra.from_coords(self.algebra.star(self.coords))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        if other.algebra != self.algebra:
            raise AlgebraMismatch("elements belong to different algebras")
        return self.algebra.from_coords(self.algebra.mul(self.coords, other.coords))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if other.algebra != self.algebra:
            raise AlgebraMismatch("elements belong to different algebras")
        return self.algebra.from_coords(self.coords + other.coords)

    def norm(self) -> float:
        return self.algebra.norm(self.coords)


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
        images = np.stack(
            [algebra.faithful(algebra.unit_coords(k)) for k in range(algebra.dim)]
        )
        return cls(algebra, algebra.faithful_dim, images, tol)

    def apply_coords(self, coords) -> np.ndarray:
        coords = as_complex(coords)
        if coords.shape != (self.algebra.dim,):
            raise ShapeMismatch(f"expected coords of length {self.algebra.dim}")
        return np.tensordot(coords, self.images, axes=(0, 0))

    def apply(self, a: AlgebraElement) -> np.ndarray:
        if a.algebra != self.algebra:
            raise AlgebraMismatch("element does not belong to this representation's algebra")
        return self.apply_coords(a.coords)

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
    scale = scale_of(sigma.images.reshape(alg.dim, -1))
    bound = sigma.tol * scale

    mult = 0.0
    for k in range(alg.dim):
        for l in range(alg.dim):
            prod = alg.mul(alg.unit_coords(k), alg.unit_coords(l))
            lhs = sigma.apply_coords(prod)
            rhs = sigma.images[k] @ sigma.images[l]
            mult = max(mult, op_norm(lhs - rhs))

    star = 0.0
    for k in range(alg.dim):
        lhs = sigma.apply_coords(alg.star(alg.unit_coords(k)))
        star = max(star, op_norm(lhs - dagger(sigma.images[k])))

    eye = np.eye(sigma.hilbert_dim, dtype=complex)
    nondeg = op_norm(sigma.apply_coords(alg.one) - eye)

    items = (
        CheckItem("multiplicativity", mult <= bound, mult),
        CheckItem("star_preservation", star <= bound, star),
        CheckItem("nondegeneracy", nondeg <= bound, nondeg),
    )
    return ValidationReport("star_representation", items)
