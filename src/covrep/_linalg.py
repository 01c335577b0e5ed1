"""Dense complex linear algebra helpers with scale-relative tolerances.

Conventions used throughout the package:

* inner products are conjugate-linear in the first argument,
* matrices act on column vectors, adjoint = conjugate transpose,
* a residual passes when it is at most ``tol * (1 + scale)`` where
  ``scale`` is the largest operator norm entering the computation;
* a Hermitian check takes its scale from the eigenvalues it already
  computes: the largest |eigenvalue| of the Hermitian part (a + a*)/2.
  That is the norm of the Hermitian part, never above the norm of ``a``,
  so no bound is looser than with ``scale_of(a)``; the drift |a - a*| is
  the largest |eigenvalue| of the Hermitian matrix i(a - a*);
* positivity through the faithful representation of a block algebra is
  checked one algebra block at a time (``min_eig_herm`` on the stack of
  the blocks of each size, compressed to the right module's blocks for an
  internal tensor); the minimum eigenvalue, drift and norm of the whole
  are the extremes over the blocks, so the decision is that of the dense
  matrix.  A block-diagonal Gram is quotiented the same way:
  ``gram_quotient`` takes its diagonal blocks, stacked by size, and judges
  drift, positivity and the rank cutoff on the whole;
* every rank decision goes through ``rank_cutoff``: a value counts as
  nonzero when it is above ``RANK_TOL * max(1, largest)``.  ``orth_cols``
  and ``null_cols`` cut singular values; ``gram_quotient``,
  ``inv_sqrt_psd`` and left invertibility (``CovariantRep``) cut
  eigenvalues, that is squared singular values.  A projector's range is
  cut at 0.5 instead (``orth_cols(p, 0.5)``), in ``build_U`` and sigma's
  multiplicity basis only: the lattice of ``wold`` cuts no projector;
* an identity tensor factor is never materialised: (I (x) X (x) I) M and
  M (I (x) X (x) I) are one reshape and one matmul (``id_tensor_matmul``,
  ``matmul_id_tensor``);
* the columns of B count as orthonormal when |B*B - I|_2 is at most
  ``ORTHONORMAL_TOL``; the Frobenius norm bounds the spectral norm from
  above, so the SVD runs only when the Frobenius norm is above the cutoff
  (``orthonormal_drift``, ``screened_op_norm``);
* every per-instance value is cached one way: ``_cached`` stores
  ``f(owner, *args)`` in ``owner._cache`` once, first writer winning, with
  every array in it read-only (``_freeze``).
"""

from __future__ import annotations

from functools import wraps
from itertools import repeat

import numpy as np

from .errors import PositivityFailure, ShapeMismatch

#: residual tolerance, scaled by (1 + data norm) at the point of use
DEFAULT_TOL = 1e-9
#: relative eigenvalue / singular value cutoff for rank decisions
RANK_TOL = 1e-8
#: maximal principal angle (radians) at which two subspaces count as equal
ANGLE_TOL = 1e-7
#: largest |B*B - I|_2 at which the columns of a basis B count as orthonormal
ORTHONORMAL_TOL = 1e-6


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def frozen(array: np.ndarray, given) -> np.ndarray:
    """``array``, read-only, copied first if it shares memory with the caller's ``given``."""
    if isinstance(given, np.ndarray) and np.may_share_memory(array, given):
        array = array.copy()
    array.setflags(write=False)
    return array


#: annotations of record fields that hold no array: ``_freeze`` skips them
_SCALAR_FIELDS = frozenset(("int", "float", "bool", "str", "float | None", "tuple[int, ...]"))
#: per type, the fields ``_freeze`` walks (``_walked``); scalars have none
_WALKED: dict = dict.fromkeys((int, float, complex, bool, str, type(None), np.float64, np.int64, np.bool_), ())


def _walked(value) -> tuple[str, ...]:
    """The fields of a record (a dataclass or a named tuple) that may hold an
    array, those not annotated as scalars; none of an owner of a store (a
    correspondence, an algebra), which froze its arrays when it was built."""
    kind = type(value)
    names = getattr(kind, "_fields", None) or getattr(kind, "__dataclass_fields__", ())
    # a named tuple keeps string annotations as forward references
    hints = {k: getattr(v, "__forward_arg__", v) for k, v in getattr(kind, "__annotations__", {}).items()}
    return () if hasattr(value, "_cache") else tuple(n for n in names if hints.get(n) not in _SCALAR_FIELDS)


def _freeze(value):
    """``value``, with every array in it read-only: an ndarray, and at any
    depth the arrays in tuples and in the fields of records (a subspace's
    basis, a tensor space's push and lift, ``Multiplicity``'s tables).  One
    call per container; its arrays and scalars are handled inline."""
    kind = type(value)
    if kind is np.ndarray:
        value.setflags(write=False)
        return value
    if kind is tuple:
        parts = value
    else:
        names = _WALKED.get(kind)
        if names is None:
            names = _WALKED.setdefault(kind, _walked(value))
        parts = map(getattr, repeat(value), names)
    for part in parts:
        kind = type(part)
        if kind is np.ndarray:
            part.setflags(write=False)
        elif _WALKED.get(kind) != ():
            _freeze(part)
    return value


#: what a read of a store gets for a key it does not hold, so None is a value
_MISSING = object()


def _memo(store: dict, key, build, *args):
    """``build(*args)``, frozen (``_freeze``) and stored under ``key`` unless
    a racing thread stored a value first (``setdefault``), and the stored
    value: every caller gets one object.  A build that raises stores nothing."""
    value = build(*args)
    if _WALKED.get(type(value)) != ():
        _freeze(value)
    return store.setdefault(key, value)


#: Every function ``_cached`` wraps; their qualified names differ.
_CACHED: list = []


def _cached(f):
    """``f(owner, *args)``, stored once per instance in ``owner._cache`` under
    ``(f.__qualname__, *args)`` by ``_memo``.  The arguments are hashable
    constants (a word, an index, a coordinate subset), never a subspace.  A
    read is one dict lookup, without ``*args`` for the one- and two-argument
    functions: the properties and the tower levels read most."""
    name = f.__qualname__
    _CACHED.append(f)
    arity = f.__code__.co_argcount
    if arity == 1:
        key = (name,)

        def read(owner):
            value = owner._cache.get(key, _MISSING)
            return _memo(owner._cache, key, f, owner) if value is _MISSING else value

    elif arity == 2:

        def read(owner, arg):
            value = owner._cache.get((name, arg), _MISSING)
            return _memo(owner._cache, (name, arg), f, owner, arg) if value is _MISSING else value

    else:

        def read(owner, *args):
            value = owner._cache.get((name, *args), _MISSING)
            return _memo(owner._cache, (name, *args), f, owner, *args) if value is _MISSING else value

    return wraps(f)(read)


def op_norm(a) -> float:
    """Spectral norm; zero for matrices with an empty axis."""
    a = as_complex(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def max_op_norm(stack) -> float:
    """Largest spectral norm over a stack of matrices (last two axes).

    Matrices that are exactly zero have norm 0 and skip the batched SVD.
    """
    stack = as_complex(stack)
    if stack.size == 0:
        return 0.0
    mats = stack.reshape((-1,) + stack.shape[-2:])
    mats = mats[mats.any(axis=(1, 2))]
    if not len(mats):
        return 0.0
    return float(np.linalg.norm(mats, 2, axis=(1, 2)).max())


def invariance_residual(basis, *stacks) -> float:
    """Largest |(I - P_K) M B_K| over the n x n matrices M of every stack.

    ``basis`` holds orthonormal columns B_K spanning K and P_K = B_K B_K*;
    the residual is 0 exactly when every M leaves K invariant.  When
    I - P_K is exactly zero, as for the identity basis of all of C^n, the
    residual is 0.0 without the products.
    """
    basis = as_complex(basis)
    comp = eye_like(basis.shape[0]) - basis @ dagger(basis)
    if not comp.any():
        return 0.0
    # M B_K first: d n^2 dim K flops instead of d n^3 for (I - P_K) M
    return max(max_op_norm(comp @ (as_complex(stack) @ basis)) for stack in stacks)


def screened_op_norm(stack, bound: float) -> float:
    """Largest spectral norm over a stack (last two axes), or an upper bound
    on it that is at most ``bound``.

    The Frobenius norm of the whole stack bounds every spectral norm in it
    from above, so a Frobenius norm at or below ``bound`` decides the test
    without an SVD; only above it are the spectral norms computed.
    ``result <= bound`` is therefore exactly the spectral decision.
    """
    fro = float(np.linalg.norm(as_complex(stack).ravel()))
    return fro if fro <= bound else max_op_norm(stack)


def orthonormal_drift(basis) -> float:
    """|B*B - I|_2, or an upper bound on it that is at most ``ORTHONORMAL_TOL``
    (``screened_op_norm``)."""
    basis = as_complex(basis)
    return screened_op_norm(dagger(basis) @ basis - eye_like(basis.shape[1]), ORTHONORMAL_TOL)


def scale_of(*mats) -> float:
    """1 + max operator norm of the arguments, for relative tolerances."""
    return 1.0 + max((op_norm(m) for m in mats), default=0.0)


def eye_like(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def dagger(a) -> np.ndarray:
    return as_complex(a).conj().T


def herm_residual(a) -> float:
    """Spectral norm of a - a*, as the largest |eigenvalue| of i(a - a*);
    the largest over a stack (last two axes).

    Exactly Hermitian matrices give 0 without a decomposition.
    """
    a = as_complex(a)
    skew = a - np.conj(np.swapaxes(a, -1, -2))
    if not skew.any():
        return 0.0
    w = np.linalg.eigvalsh(1j * skew)
    return float(max(-w[..., 0].min(), w[..., -1].max()))


def min_eig_herm(a):
    """``(min_eig, drift, norm)`` of the Hermitian part of ``a``, or their
    extremes over a stack (last two axes).

    ``norm`` is the norm of the Hermitian part and ``drift`` is |a - a*|;
    the caller judges the drift (``require_hermitian``), which lets a
    block-diagonal matrix be checked one block at a time against the bound
    of the whole.  Empty matrices give ``(inf, 0, 0)`` (vacuously positive).
    """
    a = as_complex(a)
    if a.shape[-2] != a.shape[-1]:
        raise ShapeMismatch(f"expected square matrix, got {a.shape}")
    if a.size == 0:
        return np.inf, 0.0, 0.0
    drift = herm_residual(a)
    w = np.linalg.eigvalsh((a + np.conj(np.swapaxes(a, -1, -2))) / 2.0)
    lo, hi = float(w[..., 0].min()), float(w[..., -1].max())
    return lo, drift, max(-lo, hi)


def require_hermitian(drift: float, norm: float, tol: float) -> None:
    """Raise ShapeMismatch when the drift |a - a*| exceeds tol * (1 + norm)."""
    if drift > tol * (1.0 + norm):
        raise ShapeMismatch(f"matrix is not Hermitian (drift {drift:.3e})")


def rank_cutoff(largest: float, rank_tol: float = RANK_TOL) -> float:
    """The cutoff of every rank decision, relative to the largest value: a
    singular value or eigenvalue counts as nonzero exactly when it is above
    the returned value."""
    return rank_tol * max(1.0, largest)


def orth_cols(a, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of ``a``: the left singular
    vectors whose singular values are above ``rank_cutoff``."""
    a = as_complex(a)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, : int(np.sum(s > rank_cutoff(s[0], rank_tol)))]


def null_cols(a) -> np.ndarray:
    """Orthonormal basis of the null space of ``a``: the right singular
    vectors past the singular values above ``rank_cutoff``."""
    a = as_complex(a)
    m, n = a.shape
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    if m == 0:
        return eye_like(n)
    _, s, vh = np.linalg.svd(a)
    r = int(np.sum(s > rank_cutoff(s[0])))
    return vh[r:, :].conj().T


def solve_hermitian(a, b) -> np.ndarray:
    """Solve ``a x = b`` for Hermitian positive definite ``a``."""
    a = as_complex(a)
    b = as_complex(b)
    if a.shape[0] == 0:
        return np.zeros((0, b.shape[1]) if b.ndim == 2 else (0,), dtype=complex)
    return np.linalg.solve(a, b)


def inv_sqrt_psd(a) -> np.ndarray:
    """Inverse square root of a Hermitian positive definite matrix; raises
    when the smallest eigenvalue is not above ``rank_cutoff``."""
    a = as_complex(a)
    if a.shape[0] == 0:
        return a.copy()
    w, v = np.linalg.eigh((a + dagger(a)) / 2.0)
    if w[0] <= rank_cutoff(w[-1]):
        raise PositivityFailure(f"matrix not positive definite (min eig {w[0]:.3e})")
    return (v * (w ** -0.5)) @ dagger(v)


def sqrt_psd(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Square root of a Hermitian PSD matrix; small negatives are clipped."""
    a = as_complex(a)
    if a.shape[0] == 0:
        return a.copy()
    w, v = np.linalg.eigh((a + dagger(a)) / 2.0)
    if w[0] < -tol * (1.0 + max(-w[0], w[-1])):
        raise PositivityFailure(f"matrix not PSD (min eig {w[0]:.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)


def gram_quotient(stacks, tol: float = DEFAULT_TOL) -> list:
    """Decompose a block-diagonal Gram matrix for its quotient by the kernel.

    ``stacks`` holds the diagonal blocks of the Gram as a list of stacks
    (3-D arrays), each stack holding blocks of one size; one matrix is the
    list ``[gram[None]]``.  The whole matrix is never assembled: each stack
    is decomposed in one batched ``eigh``, and drift, positivity and the
    rank cutoff are those of the whole matrix, the extremes over its
    blocks.  The result is, per stack, ``(w, v, keep)``: the eigenvalues of
    each block, largest first, its eigenvectors as columns in the same
    order, and ``keep = w > rank_cutoff``.  The kept pairs of a block give
    the push (orthonormal rows for the semi-inner product, ``push* push =
    gram`` modulo kernel) and its isometric section ``lift`` with ``push @
    lift = I``; the others span the Gram kernel orthonormally.  The caller
    carries them to the basis it works in.

    Raises ShapeMismatch when the drift |G - G*| exceeds ``tol * scale``
    and PositivityFailure when an eigenvalue is below ``-tol * scale``,
    with ``scale = 1 + |(G + G*)/2|``.
    """
    stacks = [as_complex(s) for s in stacks]
    if any(s.ndim != 3 or s.shape[1] != s.shape[2] for s in stacks):
        raise ShapeMismatch(f"Gram blocks must be square, got {[s.shape[1:] for s in stacks]}")
    drift, lo, hi = 0.0, np.inf, -np.inf
    decomps = []
    for stack in stacks:
        skew = herm_residual(stack)
        # an exactly Hermitian stack is its own Hermitian part
        w, v = np.linalg.eigh(stack if skew == 0.0 else (stack + np.conj(stack.transpose(0, 2, 1))) / 2.0)
        drift = max(drift, skew)
        if w.size:
            lo, hi = min(lo, float(w[:, 0].min())), max(hi, float(w[:, -1].max()))
        # largest eigenvalue first, for a deterministic well-conditioned basis
        decomps.append((w[:, ::-1], v[:, :, ::-1]))
    scale = 1.0 + max(-lo, hi, 0.0)
    if drift > tol * scale:
        raise ShapeMismatch(f"Gram matrix is not Hermitian (drift {drift:.3e})")
    if lo < -tol * scale:
        raise PositivityFailure(f"semi-Gram has negative eigenvalue {lo:.3e}")
    cut = rank_cutoff(hi)
    return [(w, v, w > cut) for w, v in decomps]


def kron(*mats) -> np.ndarray:
    out = as_complex(mats[0])
    for m in mats[1:]:
        out = np.kron(out, as_complex(m))
    return out


def id_tensor_matmul(left: int, x, right: int, m) -> np.ndarray:
    """(I_left (x) X (x) I_right) @ M without forming the Kronecker product.

    ``x`` is p x q, or a stack (..., p, q) giving a stack of products;
    ``m`` has left * q * right rows.  The rows of M are read as a
    (left, q, right) array, and X contracts the middle axis.
    """
    x, m = as_complex(x), as_complex(m)
    p, q = x.shape[-2:]
    cols = m.shape[1]
    out = x[..., None, :, :] @ m.reshape(left, q, right * cols)
    return out.reshape(x.shape[:-2] + (left * p * right, cols))


def matmul_id_tensor(m, left: int, x, right: int) -> np.ndarray:
    """M @ (I_left (x) X (x) I_right) without forming the Kronecker product.

    ``x`` is p x q, or a stack (..., p, q); ``m`` has left * p * right
    columns, read as a (left, p, right) array whose middle axis X contracts
    in one (rows * left * right) x p by p x q product.
    """
    x, m = as_complex(x), as_complex(m)
    p, q = x.shape[-2:]
    rows = m.shape[0]
    flat = m.reshape(rows, left, p, right).swapaxes(-1, -2).reshape(rows * left * right, p)
    out = (flat @ x).reshape(x.shape[:-2] + (rows, left, right, q))
    return out.swapaxes(-1, -2).reshape(x.shape[:-2] + (rows, left * q * right))


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))
