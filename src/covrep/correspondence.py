"""C*-correspondences over matrix-block algebras and their tensor calculus.

A correspondence of dimension e is stored through three structure tensors
on the canonical bases: right action and left action as one e x e matrix
per algebra basis unit, and the algebra-valued inner product as one
coordinate vector per basis pair.  All tensor-product constructions are
Gram-kernel quotients: the scalar semi-inner product (trace form through
the faithful block representation, or the sigma-twisted form for Hilbert
spaces) is diagonalized, its kernel dropped, and every derived operator is
a matrix in the resulting orthonormal quotient basis, so adjoints are
literal conjugate transposes.  Identity tensor factors (I (x) X,
X (x) I_H) are applied by reshaping and are never materialised.

A Hilbert-space quotient E (x)_sigma H is taken in sigma's own basis
(``StarRepresentation.multiplicity``): there sigma is (+)_b id_{d_b} (x)
I_{m_b}, so the twisted Gram is (+)_b G_b (x) I_{m_b}, and only the
(dim E * d_b)-square blocks G_b are decomposed, never the (dim E * dim H)-
square Gram.  The quotient basis is carried back to the canonical basis
of E (x) H, where every operator of this module acts.

The positivity of an internal tensor E (x) F is read the same way on F's
right blocks (``Correspondence.right_blocks``): block b of its faithful
matrix is d_b S_b (+) 0 with S_b of width dim E * m_b, where m_b =
dim F.e^b_11, so the (dim E * dim F * d_b)-square blocks are never
decomposed.  Correspondences and towers are immutable, and what they
derive (actions, levels, flip products) is cached by ``_linalg._cached``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
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
    gram_quotient,
    id_tensor_matmul,
    matmul_id_tensor,
    max_op_norm,
    min_eig_herm,
    op_norm,
    require_hermitian,
    scale_of,
)
from .algebra import MatrixBlocksAlgebra, StarRepresentation
from .errors import AlgebraMismatch, PositivityFailure, ShapeMismatch
from .reporting import CheckItem, ValidationReport

Word = tuple[int, ...]


class LiveRows(NamedTuple):
    """The nonzero rows of one half of ``Correspondence.one_sided``.

    ``action`` holds them; row r is the pair (``units[r]``, ``vectors[r]``)
    of a moving unit and a basis vector f_i (``Correspondence.live_rows``).
    ``dead[k, i]`` is 1.0 where the pair (moving unit b_k, f_i) has a zero
    row and 0.0 elsewhere, or None when no row is zero.
    """

    action: np.ndarray
    units: np.ndarray
    vectors: np.ndarray
    dead: np.ndarray | None


@dataclass(frozen=True, eq=False)
class Correspondence:
    """A C*-correspondence E over a MatrixBlocksAlgebra.

    right_action[k] and left_action[k] are the matrices of xi -> xi.b_k and
    of phi(b_k) on E-coordinates; gram[i, j] holds the algebra coordinates
    of <f_i, f_j>, conjugate-linear in the first slot.  The three arrays are
    read-only, copied from the caller's arrays when they share memory, so
    the cached ``one_sided``, ``live_rows`` and ``right_blocks`` stay true.
    """

    algebra: MatrixBlocksAlgebra
    dim: int
    right_action: np.ndarray  # (alg.dim, e, e)
    left_action: np.ndarray  # (alg.dim, e, e)
    gram: np.ndarray  # (e, e, alg.dim)
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        e, d = int(self.dim), self.algebra.dim
        object.__setattr__(self, "dim", e)
        for name, shape in (("right_action", (d, e, e)), ("left_action", (d, e, e)), ("gram", (e, e, d))):
            given = getattr(self, name)
            object.__setattr__(self, name, frozen(as_complex(given).reshape(shape), given))
        object.__setattr__(self, "_cache", {})

    def phi(self, a_coords) -> np.ndarray:
        """Matrix of the left action of the element with the given coords."""
        return np.tensordot(as_complex(a_coords), self.left_action, axes=(0, 0))

    @property
    @_cached
    def one_sided(self) -> np.ndarray:
        """The one-sided actions, read-only: ``one_sided[0]`` is xi ->
        b_k xi 1 for each unit b_k and ``one_sided[1]`` is xi -> 1 xi b_k;
        row k * dim + i of each holds the coordinates of the k-th action
        applied to f_i."""
        d, e, one = self.algebra.dim, self.dim, self.algebra.one
        out = np.empty((2, d, e, e), dtype=complex)
        np.matmul(self.left_action, (one @ self.right_action.reshape(d, e * e)).reshape(e, e), out=out[0])
        np.matmul((one @ self.left_action.reshape(d, e * e)).reshape(e, e), self.right_action, out=out[1])
        return out.transpose(0, 1, 3, 2).reshape(2, d * e, e)

    @property
    @_cached
    def live_rows(self) -> tuple[LiveRows, LiveRows]:
        """The pairs (b_k, f_i) that each half of ``one_sided`` does not
        kill, read-only, for ``covrep._bimodule_residual``.

        Each pair is named by the unit whose sigma-image moves the gathered
        side of sigma(a) T(xi) sigma(b): b_k in the left half, b_k* in the
        right, as sigma(1) X sigma(b_k) is (sigma(b_k*) X^* sigma(1))^*.
        Where no row of a half is zero (over C with phi(1) = I, for one),
        its ``dead`` is None.
        """
        d, e = self.algebra.dim, self.dim
        out = []
        for half, kept, moving in zip(self.one_sided, self.one_sided.any(axis=2), (np.arange(d), self.algebra.star_index)):
            rows = kept.nonzero()[0]
            units, vectors = np.divmod(rows, e)
            dead = 1.0 - kept.reshape(d, e)[moving] if len(rows) < d * e else None
            out.append(LiveRows(half[rows], moving[units], vectors, dead))
        return tuple(out)

    @property
    @_cached
    def right_blocks(self) -> tuple[RightBlocks, ...] | None:
        """The ranges of the right action's blocks, built once, for the
        positivity of internal tensors E' (x) E (``_tensor_positivity``).

        For block b, Q_b = (1/d_b) sum_q R(e^b_q1) R(e^b_q1)* is R(e^b_11)
        when the right action is a *-anti-representation on C^dim; one
        batched ``eigh`` per block size gives each Q_b's eigenvectors, and
        those with eigenvalue above 0.5 (the cut of every projector range)
        are an orthonormal basis V_b of E.e^b_11, m_b of them.  Also
        measured are the identities the positivity compression rests on,

            (I1) G_pq = R(e^b_p1)* G_11 R(e^b_q1), G_pq the matrix of the
                 coordinates e^b_pq of the Gram (right linearity with star
                 symmetry),
            (I2) phi(b_c) R(e^b_q1) = R(e^b_q1) phi(b_c) (commuting actions),

        and where either, or |Q_b - V_b V_b*| (the largest distance of an
        eigenvalue of Q_b from 0 or 1), exceeds tol the result is None and
        positivity is checked on the dense blocks.  Over C (one unit) the
        dense block is already the smallest, and nothing is built.
        """
        alg, f, tol = self.algebra, self.dim, self.tol
        if alg.dim == 1 or not f:
            return None
        R, L = self.right_action, self.left_action[:, None]
        G = self.gram.transpose(2, 0, 1)
        worst, out = 0.0, []
        for d, _, units in alg.size_groups:
            grid = units.reshape(-1, d, d)
            # cols[b, p] = R(e^b_p1) and heads[b] = G_11, block by block
            cols, heads = R[grid[:, :, 0]], G[grid[:, 0, 0]]
            adj = np.conj(cols.swapaxes(-1, -2))
            split = adj[:, :, None] @ heads[:, None, None] @ cols[:, None]
            flat = cols.reshape(-1, f, f)
            w, v = np.linalg.eigh((cols @ adj).sum(axis=1) / d)
            keep = w > 0.5
            # Frobenius norms bound the spectral ones: within tol, the
            # identities hold
            gaps = G[units].reshape(split.shape) - split, L @ flat - flat @ L
            worst = max(worst, *(np.vdot(x, x).real ** 0.5 for x in gaps), np.abs(w - keep).max())
            # eigenvalues ascend: the kept ones are the last m_b of each block,
            # and V_b is padded with zero columns to the largest m_b
            live = keep[:, -1]
            top = int(keep.sum(axis=1).max())
            if top:
                ranges = v[live, :, f - top :] * keep[live, None, f - top :]
                out.append(RightBlocks(d, np.conj(ranges.swapaxes(1, 2)) @ heads[live] @ L @ ranges))
        return None if worst > tol else tuple(out)


class RightBlocks(NamedTuple):
    """The right-action blocks of one size d with m_b > 0: ``forms[k, i]``
    is V_b* G_11 phi(b_k) V_b for the i-th of them (``right_blocks``), the
    form <u, phi(b_k) v>_{e^b_11} on E.e^b_11, zero where V_b is padded."""

    d: int
    forms: np.ndarray


def _faithful_positivity(
    gm: np.ndarray, alg: MatrixBlocksAlgebra, tol: float
) -> tuple[float, float, float]:
    """Smallest eigenvalue, drift and norm of the faithful positivity matrix.

    ``gm`` holds algebra coordinates per index pair, shape (n, n, alg.dim).
    The matrix sum_k gm[:, :, k] (x) pi(b_k) is a direct sum over the
    algebra's blocks: block b is gm[:, :, units of b] with index pairs
    (x, p) x (y, q), of size n * d_b.  Each block is decomposed on its own;
    the minimum eigenvalue, the drift |M - M*| and the norm of the
    Hermitian part of the whole are the extremes over the blocks.  Raises
    ShapeMismatch when the drift exceeds the bound of the whole.
    """
    lo, drift, norm = np.inf, 0.0, 0.0
    for d, _, units in alg.size_groups:
        b_lo, b_drift, b_norm = min_eig_herm(_faithful_blocks(gm, d, units))
        lo, drift, norm = min(lo, b_lo), max(drift, b_drift), max(norm, b_norm)
    require_hermitian(drift, norm, tol)
    return lo, drift, norm


def _faithful_blocks(gm: np.ndarray, d: int, units: np.ndarray) -> np.ndarray:
    """The algebra blocks of size d of sum_k gm[:, :, k] (x) pi(b_k), pi
    faithful, stacked: the blocks whose matrix units are ``units``, d * d
    per block in row-major order.

    A block has rows (p, x) and columns (q, y), p, q < d and x, y < n: the
    entry is gm[x, y, e_pq].
    """
    n = gm.shape[0]
    count = len(units) // (d * d)
    return gm[:, :, units].reshape(n, n, count, d, d).transpose(2, 3, 0, 4, 1).reshape(count, d * n, d * n)


def _max_coord_norm(x) -> float:
    """Largest 2-norm of algebra coordinates over a stack (last axis)."""
    return float(np.linalg.norm(x, axis=-1).max(initial=0.0))


def validate_correspondence(E: Correspondence) -> ValidationReport:
    """Check the Hilbert-module and left-action axioms of a correspondence.

    Every identity is evaluated for all units b_k, b_l and basis pairs
    (f_i, f_j) at once through the algebra's product table.  Right
    linearity, adjointability and star symmetry are measured in the
    coordinate 2-norm, the operator identities in the spectral norm.
    Positivity is judged on the Hermitian part of the Gram, so a Gram that
    breaks star symmetry is reported, not raised.
    """
    alg = E.algebra
    d, e = alg.dim, E.dim
    R, L, G, table = E.right_action, E.left_action, E.gram, alg.products
    bound = E.tol * scale_of(G.reshape(e * e, d), L.reshape(d * e, e), R.reshape(d * e, e))

    # <f_i, f_j . b_k> = <f_i, f_j> b_k
    right_lin = _max_coord_norm(
        np.einsum("kmj,imc->kijc", R, G) - np.einsum("ijc,ckz->kijz", G, table)
    )
    # <phi(b_k) f_i, f_j> = <f_i, phi(b_k*) f_j>
    adj = _max_coord_norm(
        np.einsum("kmi,mjc->kijc", np.conj(L), G) - np.einsum("kmj,imc->kijc", L[alg.star_index], G)
    )
    # star_g[i, j] = <f_j, f_i>*, the adjoint taken unit by unit
    star_g = np.conj(G[..., alg.star_index]).transpose(1, 0, 2)
    star_sym = _max_coord_norm(star_g - G)
    hom = max_op_norm(np.tensordot(table, L, axes=(2, 0)) - L[:, None] @ L[None, :])
    # (xi . b_l) . b_k = xi . (b_l b_k)
    module = max_op_norm(
        R[:, None] @ R[None, :] - np.tensordot(table.transpose(1, 0, 2), R, axes=(2, 0))
    )
    commute = max_op_norm(L[:, None] @ R[None, :] - R[None, :] @ L[:, None])

    # the Hermitian part is exactly Hermitian, so this never raises
    positivity = max(0.0, -_faithful_positivity((G + star_g) / 2.0, alg, E.tol)[0]) if e else 0.0

    essential = op_norm(E.phi(alg.one) - eye_like(e))
    unit_right = op_norm(np.tensordot(alg.one, R, axes=(0, 0)) - eye_like(e))
    nonzero = 0.0 if (e > 0 and op_norm(L.reshape(d * e, e)) > bound) else 1.0

    items = (
        CheckItem("right_linearity", right_lin <= bound, right_lin),
        CheckItem("star_symmetry", star_sym <= bound, star_sym),
        CheckItem("positivity", positivity <= bound, positivity),
        CheckItem("phi_adjointable", adj <= bound, adj),
        CheckItem("phi_homomorphism", hom <= bound, hom),
        CheckItem("phi_nonzero_essential", essential <= bound and nonzero == 0.0, max(essential, nonzero)),
        CheckItem("right_module", max(module, unit_right) <= bound, max(module, unit_right)),
        CheckItem("bimodule_commutation", commute <= bound, commute),
    )
    return ValidationReport("correspondence", items)


@dataclass(frozen=True, eq=False)
class InteriorTensorSpace:
    """Gram-kernel quotient of an algebraic tensor product.

    ``push`` maps the algebraic space onto the quotient C^r and has
    orthonormal rows for the semi-inner product; ``lift`` is the isometric
    section with ``push @ lift = I``, so ``I - lift @ push`` is the
    orthogonal projector onto the Gram kernel.
    """

    source_dims: tuple[int, ...]
    quotient_dim: int
    push: np.ndarray
    lift: np.ndarray

    @property
    def gram_kernel_dim(self) -> int:
        return self.algebraic_dim - self.quotient_dim

    @property
    def algebraic_dim(self) -> int:
        return math.prod(self.source_dims)


def algebra_correspondence(alg: MatrixBlocksAlgebra, tol: float = DEFAULT_TOL) -> Correspondence:
    """The algebra viewed as the standard correspondence over itself."""
    table = alg.products
    # right[k][:, l] = b_l b_k, left[k][:, l] = b_k b_l, gram[i, j] = b_i* b_j
    right = table.transpose(1, 2, 0)
    left = table.transpose(0, 2, 1)
    gram = table[alg.star_index]
    return Correspondence(alg, alg.dim, right, left, gram, tol)


def _module_gram(E: Correspondence, F: Correspondence) -> np.ndarray:
    """Algebra-valued semi-Gram of the algebraic tensor E (x) F.

    Index (i, p) is flattened as i * dim(F) + p; the value at
    ((i,p),(j,q)) is <g_p, phi_F(<f_i, f_j>_E) g_q>_F, formed by two
    matrix products.  The (n, n, dim A) result is a view of a units-first
    array, so ``gm.transpose(2, 0, 1)`` is contiguous.
    """
    e, f, d = E.dim, F.dim, E.algebra.dim
    # phi_g[m, (i, j), q] = phi_F(<f_i, f_j>_E)[m, q], and <g_p, phi_g g_q>
    # at unit k sums <g_p, g_m>_k phi_g[m, (i, j), q] over m
    phi_g = E.gram.reshape(e * e, d) @ F.left_action.transpose(1, 0, 2)
    gm = F.gram.transpose(2, 0, 1).reshape(d * f, f) @ phi_g.reshape(f, e * e * f)
    return gm.reshape(d, f, e, e, f).transpose(0, 2, 1, 3, 4).reshape(d, e * f, e * f).transpose(1, 2, 0)


def _tensor_positivity(gm: np.ndarray, E: Correspondence, F: Correspondence, tol: float) -> tuple[float, float, float]:
    """``_faithful_positivity`` of the module semi-Gram ``gm`` of E (x) F,
    on F's right blocks (``Correspondence.right_blocks``).

    Block b of the faithful matrix, M_b[(p, x), (q, y)] = gm[x, y, e^b_pq],
    sees only E (x) F.e^b_11.  By (I1) and (I2) of ``right_blocks``,
    gm[:, :, e^b_pq] = (I (x) R(e^b_p1))* K (I (x) R(e^b_q1)) with
    K = gm[:, :, e^b_11], so M_b = C* K C, where the columns (q, y) of C
    are (I (x) R(e^b_q1)) e_y.  Then C C* = d_b (I (x) Q_b) =
    d_b (I (x) V V*), V = V_b, so C = (I (x) V) Z with Z Z* = d_b I, and

        M_b = d_b J S_b J*,   S_b = (I (x) V)* K (I (x) V),   J* J = I,

    where S_b, (dim E m_b)-square, is sum_k <f_i, f_j>_k (x) V* G_11
    phi(b_k) V: E's Gram against F's ``forms``, never the dense block.
    M_b is unitarily d_b S_b (+) 0, of width d_b dim E dim F; the zero
    summand is never empty (dim E m_b < d_b dim E dim F unless the
    algebra is C, which ``right_blocks`` leaves to the dense blocks), and a
    block with m_b = 0 is zero.  The minimum eigenvalue, drift and norm of
    the whole are therefore the extremes of d_b S_b over the live blocks
    and 0: the dense numbers, and the dense decision, in exact arithmetic.
    In floating point the identities hold to within tol, so d_b J S_b J*
    is within tol times the norms of E's Gram and F's actions of M_b, and
    by Weyl's inequality a decision can differ from the dense one only
    within that band of the cutoff.  Without right blocks, the dense
    blocks are decomposed.
    """
    blocks = F.right_blocks
    if blocks is None:
        return _faithful_positivity(gm, F.algebra, tol)
    e, dim = E.dim, E.algebra.dim
    lo, drift, norm = 0.0, 0.0, 0.0
    for d, forms in blocks:
        _, count, top, _ = forms.shape
        s = E.gram.reshape(e * e, dim) @ forms.reshape(dim, count * top * top)
        s = s.reshape(e, e, count, top, top).transpose(2, 0, 3, 1, 4).reshape(count, e * top, e * top)
        b_lo, b_drift, b_norm = min_eig_herm(s)
        lo, drift, norm = min(lo, d * b_lo), max(drift, d * b_drift), max(norm, d * b_norm)
    require_hermitian(drift, norm, tol)
    return lo, drift, norm


def internal_tensor(
    E: Correspondence, F: Correspondence
) -> tuple[Correspondence, InteriorTensorSpace]:
    """Internal tensor product E (x) F as a quotient correspondence.

    The balancing relation (zeta.a) (x) xi = zeta (x) phi(a) xi holds in the
    quotient because both sides differ by a Gram-kernel vector.
    """
    if E.algebra != F.algebra:
        raise AlgebraMismatch("correspondences are defined over different algebras")
    alg = E.algebra
    tol = min(E.tol, F.tol)
    gm = _module_gram(E, F)

    # positivity of the algebra-valued form, through the faithful rep; the
    # trace form below has the same kernel only when this holds
    if E.dim * F.dim:
        eig, _, norm = _tensor_positivity(gm, E, F, tol)
        if eig < -tol * (1.0 + norm):
            raise PositivityFailure(f"module semi-Gram has eigenvalue {eig:.3e}")

    # tr pi(b_k) is 1 on the diagonal units and 0 elsewhere: the coords of 1
    units = gm.transpose(2, 0, 1)
    n = units.shape[1]
    scalar = (alg.one @ units.reshape(alg.dim, n * n)).reshape(n, n)
    [(w, v, keep)] = gram_quotient([scalar[None]], tol)
    push, lift = _push_lift(w[0, keep[0]], v[0][:, keep[0]])
    r = push.shape[0]

    left = push @ id_tensor_matmul(1, E.left_action, F.dim, lift)
    right = push @ id_tensor_matmul(E.dim, F.right_action, 1, lift)
    gram_q = (dagger(lift) @ units @ lift).transpose(1, 2, 0)

    quotient = Correspondence(alg, r, right, left, gram_q, tol)
    space = InteriorTensorSpace((E.dim, F.dim), r, push, lift)
    return quotient, space


def interior_tensor_with_rep(E: Correspondence, sigma: StarRepresentation) -> InteriorTensorSpace:
    """Hilbert-space quotient of E (x) H under the sigma-twisted inner product.

    In sigma's own basis U (``StarRepresentation.multiplicity``) the Gram
    <xi (x) h, eta (x) k> = <h, sigma(<xi, eta>) k> is (+)_b G_b (x) I_{m_b},
    and 0 on E (x) ker sigma(1); G_b is block b of E's Gram through the
    faithful representation (``_faithful_blocks``).  The blocks with
    m_b > 0, stacked by size, are quotiented by one ``gram_quotient`` call,
    which judges drift, positivity and the rank cutoff on their direct
    sum, and push and lift are carried back to the canonical basis by one
    gathered contraction with the columns of U per block size.
    Quotient coordinates run by block size, then block by block, each
    block by kept eigenvector (largest first), then by the multiplicity
    index j < m_b.
    """
    if E.algebra != sigma.algebra:
        raise AlgebraMismatch("correspondence and representation algebras differ")
    e, n = E.dim, sigma.hilbert_dim
    mult = sigma.multiplicity if e * n else None
    if mult is None or not mult.groups:
        z = np.zeros((0, e * n), dtype=complex)
        return InteriorTensorSpace((e, n), 0, z, z.T)
    groups = mult.groups
    decomps = gram_quotient([_faithful_blocks(E.gram, g.d, g.units) for g in groups], min(E.tol, sigma.tol))
    # the kept eigenvectors of every block, carried to E (x) H as columns,
    # and their eigenvalues
    parts = [_carry(w, v, keep, g) for g, (w, v, keep) in zip(groups, decomps)]
    if len(parts) == 1:
        vals, vecs = parts[0]
    else:
        vals, vecs = np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts], axis=1)
    push, lift = _push_lift(vals, vecs)
    return InteriorTensorSpace((e, n), lift.shape[1], push, lift)


def _push_lift(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Push and lift of a Gram quotient from its kept eigenvalues and
    eigenvectors: push has orthonormal rows for the semi-inner product, and
    lift is its isometric section, push @ lift = I."""
    return np.multiply(np.conj(vecs.T), np.sqrt(vals)[:, None], order="C"), vecs * vals ** -0.5


def _carry(w: np.ndarray, v: np.ndarray, mask: np.ndarray, g) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvectors ``v`` (one stack per block of ``g``, rows (p, x))
    where ``mask``, as columns in the canonical basis of E (x) H: column t
    of block i becomes the vectors sum_p v[i][(p, x), t] U[h, (p, j)] at
    row (x, h), one for each j < m_b, in the order (i, t, j).  Returns
    their eigenvalues ``w[i, t]`` and the vectors, contiguous, as the towers
    reshape them.
    """
    count, rows, top = v.shape
    e, n = rows // g.d, g.columns.shape[1]
    i, t, j = np.nonzero(mask[:, :, None] & g.present[:, None, :])
    parts = v.reshape(count, g.d, e, top).transpose(1, 2, 0, 3)[:, :, i, t]
    basis = g.columns[:, :, i, j]
    out = parts[0][:, None, :] * basis[0][None, :, :]
    for p in range(1, g.d):
        out += parts[p][:, None, :] * basis[p][None, :, :]
    return w[i, t], out.reshape(e * n, len(i))


class ChainTower:
    """Left-associated internal-tensor chains over a fixed correspondence family.

    Words are tuples of family indices; ``corr(word)`` is the quotient
    correspondence E_{w0} (x) ... (x) E_{w-1} built stepwise, ``corr(())``
    is the algebra itself.  The tower caches every chain once, with the
    quotient data of its last step (``_level``), so flips and prepend maps
    produced by different callers act in identical bases.  Instances are
    immutable and can be shared across threads.
    """

    def __init__(self, family, tol: float = DEFAULT_TOL):
        family = tuple(family)
        if not family:
            raise ShapeMismatch("tower needs at least one correspondence")
        alg = family[0].algebra
        if any(c.algebra != alg for c in family):
            raise AlgebraMismatch("tower correspondences must share one algebra")
        self.family = family
        self.algebra = alg
        self.tol = tol
        self._cache: dict = {}

    def edim(self, letter: int) -> int:
        return self.family[letter].dim

    @_cached
    def _level(self, word: Word) -> tuple[Correspondence, InteriorTensorSpace | None]:
        """corr(word) with the quotient data of its last step (None below
        length 2), one entry, so racing threads keep one pair."""
        if len(word) < 2:
            return self.family[word[0]] if word else algebra_correspondence(self.algebra, self.tol), None
        return internal_tensor(self.corr(word[:-1]), self.family[word[-1]])

    def corr(self, word: Word) -> Correspondence:
        """The chain of a word (a tuple)."""
        return self._level(word)[0]

    def step(self, word: Word) -> InteriorTensorSpace:
        """Quotient data of corr(word[:-1]) (x) family[word[-1]]; len(word) >= 2."""
        if len(word) < 2:
            raise ShapeMismatch("step data exists only for words of length >= 2")
        return self._level(word)[1]

    # -- canonical re-bracketing -------------------------------------------

    def unfold_tail(self, word: Word, p: int) -> np.ndarray:
        """Matrix expanding corr(word) into corr(word[:max(p,1)]) (x) algebraic tail."""
        word = tuple(word)
        m = len(word)
        if not 0 <= p < m:
            raise ShapeMismatch(f"position {p} out of range for word of length {m}")
        mat = eye_like(self.corr(word).dim)
        tail = 1
        for q in range(m, max(p, 1), -1):
            mat = id_tensor_matmul(1, self.step(word[:q]).lift, tail, mat)
            tail *= self.edim(word[q - 1])
        return mat

    def fold_tail(self, word: Word, p: int, mat=None) -> np.ndarray:
        """Right inverse of unfold_tail, contracting the expanded tail back,
        applied to ``mat`` (the matrix of the contraction when None)."""
        word = tuple(word)
        m = len(word)
        if not 0 <= p < m:
            raise ShapeMismatch(f"position {p} out of range for word of length {m}")
        if mat is None:
            tail = int(np.prod([self.edim(c) for c in word[max(p, 1):]], dtype=int))
            mat = eye_like(self.corr(word[: max(p, 1)]).dim * tail)
        for q in range(max(p, 1) + 1, m + 1):
            rest = int(np.prod([self.edim(c) for c in word[q:]], dtype=int))
            mat = id_tensor_matmul(1, self.step(word[:q]).push, rest, mat)
        return mat

    # -- structural maps -----------------------------------------------------

    def prepend(self, word: Word, letter: int, xi) -> np.ndarray:
        """Matrix of eta -> xi (x) eta from corr(word) to corr((letter,) + word),
        or the stack of them for a stack (..., e) of vectors.

        For the empty word this is the creation map out of the algebra,
        a (x) -> xi . a through the right action.
        """
        word = tuple(word)
        xi = as_complex(xi)
        E = self.family[letter]
        if xi.ndim == 0 or xi.shape[-1] != E.dim:
            raise ShapeMismatch(f"vector of shape {xi.shape} is not in a {E.dim}-dim fiber")
        if word == ():
            return np.swapaxes(np.tensordot(xi, E.right_action, axes=(-1, 2)), -1, -2)
        target = (letter,) + word
        push = self.step(target).push
        if len(word) == 1:
            return matmul_id_tensor(push, 1, xi[..., None], self.edim(word[0]))
        inner = self.prepend(word[:-1], letter, xi)
        return matmul_id_tensor(push, 1, inner, self.edim(word[-1])) @ self.step(word).lift

    def flip_at(self, word: Word, p: int, tmat) -> tuple[Word, np.ndarray]:
        """Apply a two-letter flip at positions (p, p+1) of the chain.

        ``tmat`` must map corr((word[p], word[p+1])) to the reversed
        two-letter quotient in this tower's bases.
        """
        word = tuple(word)
        m = len(word)
        if not 0 <= p < m - 1:
            raise ShapeMismatch(f"cannot flip positions ({p},{p+1}) in word of length {m}")
        i, j = word[p], word[p + 1]
        new_word = word[:p] + (j, i) + word[p + 2:]
        head = self.corr(word[:p]).dim if p >= 1 else 1
        tail = int(np.prod([self.edim(c) for c in word[p + 2:]], dtype=int))
        two_alg = self.step((j, i)).lift @ as_complex(tmat) @ self.step((i, j)).push
        mid = id_tensor_matmul(head, two_alg, tail, self.unfold_tail(word, p))
        return new_word, self.fold_tail(new_word, p, mid)


class HilbertTower:
    """Word-indexed Hilbert spaces corr(word) (x)_sigma H with pushed operators.

    space(()) is H itself.  All returned matrices are expressed in the
    orthonormal quotient bases, so operator adjoints are conjugate
    transposes of the matrices.
    """

    def __init__(self, chain: ChainTower, sigma: StarRepresentation):
        if sigma.algebra != chain.algebra:
            raise AlgebraMismatch("representation algebra differs from tower algebra")
        self.chain = chain
        self.sigma = sigma
        self._cache: dict = {}

    @property
    def hdim(self) -> int:
        return self.sigma.hilbert_dim

    @_cached
    def space(self, word: Word) -> InteriorTensorSpace:
        """corr(word) (x)_sigma H for a word (a tuple), built once."""
        if not word:
            return InteriorTensorSpace((self.hdim,), self.hdim, eye_like(self.hdim), eye_like(self.hdim))
        return interior_tensor_with_rep(self.chain.corr(word), self.sigma)

    def dim(self, word: Word) -> int:
        return self.space(word).quotient_dim

    def factor(self, word: Word, theta) -> np.ndarray:
        """Quotient matrix of I (x) T-tilde : space(word) -> space(word[:-1]).

        ``theta`` is the algebraic map C^{e_last * n} -> C^n of the
        covariant representation attached to the last letter.
        """
        word = tuple(word)
        if not word:
            raise ShapeMismatch("factor needs a nonempty word")
        theta = as_complex(theta)
        n = self.hdim
        if len(word) == 1:
            return theta @ self.space(word).lift
        prefix = word[:-1]
        r_prefix = self.chain.corr(prefix).dim
        expanded = id_tensor_matmul(1, self.chain.step(word).lift, n, self.space(word).lift)
        return self.space(prefix).push @ id_tensor_matmul(r_prefix, theta, 1, expanded)

    def tensor_op(self, word: Word, X) -> np.ndarray:
        """Quotient matrix of I_{corr(word)} (x) X for X on H commuting with sigma(M)."""
        word = tuple(word)
        X = as_complex(X)
        if not word:
            return X
        r = self.chain.corr(word).dim
        sp = self.space(word)
        return sp.push @ id_tensor_matmul(r, X, 1, sp.lift)

    def mid_op_at(self, word: Word, letter: int, X) -> np.ndarray:
        """I_{corr(word)} (x) X on space(word + (letter,)), for X acting on
        the single-letter space((letter,)) and commuting with its left
        algebra action."""
        word = tuple(word)
        X = as_complex(X)
        one = self.space((letter,))
        if X.shape != (one.quotient_dim, one.quotient_dim):
            raise ShapeMismatch("operator does not act on the single-letter space")
        if not word:
            return X
        ext = word + (letter,)
        n = self.hdim
        alg_rep = one.lift @ X @ one.push
        r = self.chain.corr(word).dim
        sp = self.space(ext)
        step = self.chain.step(ext)
        mat = id_tensor_matmul(1, step.lift, n, sp.lift)
        mat = id_tensor_matmul(r, alg_rep, 1, mat)
        return sp.push @ id_tensor_matmul(1, step.push, n, mat)

    def flip_op(self, word: Word, p: int, tmat) -> tuple[Word, np.ndarray]:
        """Quotient matrix of (flip at p) (x) I_H : space(word) -> space(flipped)."""
        new_word, mat = self.chain.flip_at(word, p, tmat)
        src = self.space(word)
        dst = self.space(new_word)
        return new_word, dst.push @ id_tensor_matmul(1, mat, self.hdim, src.lift)


class FockHilbert:
    """The Fock Hilbert space F_N(E) (x)_sigma H of a product system over
    N_0^k with its creation operators; rank 1 is the case of one letter.

    ``depths`` maps each letter of the tower in use to its truncation depth.
    The levels are the multi-indices n with n[c] <= depth of the c-th
    letter, ordered by total degree; level n is the word that repeats each
    letter n[c] times, letters in increasing order, and occupies the
    coordinate block that starts at offsets[n].  Level 0 is
    M (x)_sigma H rather than H itself.  ``flip(i, j)`` maps corr((i, j))
    to corr((j, i)); it is needed with more than one letter, to carry a
    created letter past the lower letters of a word.  ``exact`` records
    whether the sigma-quotient of every word one step past the top has
    dimension 0, i.e. whether creation out of the top levels vanishes and
    the truncation is the honest Fock space over sigma.
    """

    def __init__(self, chain: ChainTower, sigma: StarRepresentation, depths, flip=None):
        self.chain = chain
        self.sigma = sigma
        self.hilb = HilbertTower(chain, sigma)
        self.letters = tuple(sorted(depths))
        self.depths = tuple(int(depths[c]) for c in self.letters)
        if any(d < 0 for d in self.depths):
            raise ShapeMismatch("Fock depth must be >= 0")
        if len(self.letters) > 1 and flip is None:
            raise ShapeMismatch("a Fock space over several letters needs the product system's flips")
        self.flip = flip
        self.indices = sorted(
            iter_product(*(range(d + 1) for d in self.depths)), key=lambda n: (sum(n), n)
        )
        self.words = {n: self._word(n) for n in self.indices}
        self._cache: dict = {}
        # level 0, M (x)_sigma H, is not a tower level; frozen like them
        ground = _freeze(interior_tensor_with_rep(chain.corr(()), sigma))
        self.spaces = {n: self.hilb.space(w) if w else ground for n, w in self.words.items()}
        dims = [self.spaces[n].quotient_dim for n in self.indices]
        self.offsets = dict(zip(self.indices, np.concatenate([[0], np.cumsum(dims)]).astype(int)))
        self.dim = int(sum(dims))
        self.exact = all(
            self.hilb.dim(self._word(self._bump(n, c))) == 0
            for n in self.indices
            for c in range(len(self.letters))
            if n[c] == self.depths[c]
        )

    def _word(self, n) -> Word:
        word: Word = ()
        for letter, m in zip(self.letters, n):
            word += (letter,) * m
        return word

    @staticmethod
    def _bump(n, c):
        return tuple(v + 1 if i == c else v for i, v in enumerate(n))

    def representation(self) -> StarRepresentation:
        """phi_infinity (x) I: each unit's image is block-diagonal over the levels."""
        alg = self.chain.algebra
        images = np.zeros((alg.dim, self.dim, self.dim), dtype=complex)
        for n in self.indices:
            sp, o = self.spaces[n], self.offsets[n]
            phi = self.chain.corr(self.words[n]).left_action
            images[:, o : o + sp.quotient_dim, o : o + sp.quotient_dim] = (
                sp.push @ id_tensor_matmul(1, phi, self.sigma.hilbert_dim, sp.lift)
            )
        return StarRepresentation(alg, self.dim, images, self.sigma.tol)

    @_cached
    def _bubble(self, c: int, n) -> np.ndarray:
        """Product of the flips carrying a prepended c-th letter past the lower
        letters of word n.  It does not depend on the prepended vector, so
        it is built once per (c, n)."""
        cur = (self.letters[c],) + self.words[n]
        mat = eye_like(self.chain.corr(cur).dim)
        for p in range(sum(n[:c])):
            cur, f = self.chain.flip_at(cur, p, self.flip(cur[p], cur[p + 1]))
            mat = f @ mat
        assert cur == self.words[self._bump(n, c)]
        return mat

    def creation(self, letter: int, xi) -> np.ndarray:
        """Creation by xi in E_letter: prepend, then bubble past the lower
        letters; the top levels of the letter go to zero.  A stack (..., e)
        of vectors gives the stack of their creation operators."""
        c = self.letters.index(letter)
        xi = as_complex(xi)
        out = np.zeros(xi.shape[:-1] + (self.dim, self.dim), dtype=complex)
        n_h = self.sigma.hilbert_dim
        for n in self.indices:
            if n[c] == self.depths[c]:
                continue
            target = self._bump(n, c)
            mat = self.chain.prepend(self.words[n], letter, xi)
            if sum(n[:c]):
                mat = self._bubble(c, n) @ mat
            src, dst = self.spaces[n], self.spaces[target]
            block = dst.push @ id_tensor_matmul(1, mat, n_h, src.lift)
            o_s, o_d = self.offsets[n], self.offsets[target]
            out[..., o_d : o_d + dst.quotient_dim, o_s : o_s + src.quotient_dim] = block
        return out
