"""Covariant representations (sigma, T) and their canonical operator calculus.

Everything spectral about a pair (sigma, T) is carried by the operator
T-tilde : E (x)_sigma H -> H, xi (x) h -> T(xi) h.  This module builds
T-tilde on the Gram quotient, the composed operators T-tilde_n, the left
inverse L with its chain L^n, the Cauchy dual, the defect operator, the
wandering-sum operator U, and the operator-inequality checks (isometric,
fully co-isometric, concave, expansive, growth, and the three equivalent
forms of the Shimorin condition).

All instances are immutable after construction: ``theta``, ``T`` and the
images of sigma are read-only, so representations can be shared across
threads.  Every derived value of an instance, an operator, a check, a
subspace or a certificate, is cached by ``_linalg._cached`` as the
algebra's and the towers' are: one entry per (cached function, hashable
arguments), never under a subspace a caller passes, and never an
exception.  Racing threads get one object, with read-only arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import (
    ORTHONORMAL_TOL,
    _cached,
    as_complex,
    dagger,
    eye_like,
    frozen,
    inv_sqrt_psd,
    invariance_residual,
    max_op_norm,
    min_eig_herm,
    null_cols,
    op_norm,
    orth_cols,
    orthonormal_drift,
    rank_cutoff,
    require_hermitian,
    scale_of,
    screened_op_norm,
    solve_hermitian,
    sqrt_psd,
)
from .algebra import StarRepresentation
from .correspondence import ChainTower, Correspondence, HilbertTower, InteriorTensorSpace
from .errors import (
    AlgebraMismatch,
    BimoduleViolation,
    IllDefinedTilde,
    NotConcave,
    NotInvariant,
    NotLeftInvertible,
    ShapeMismatch,
)
from .reporting import CheckItem


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single operator inequality or identity check."""

    name: str
    passed: bool
    residual: float
    min_eig: float | None = None
    vacuous: bool = False
    reason: str = ""

    def __bool__(self) -> bool:
        return self.passed

    def as_item(self) -> CheckItem:
        detail = self.reason
        if not detail and self.min_eig is not None:
            detail = f"min_eig={self.min_eig:.3e}"
        return CheckItem(self.name, self.passed, self.residual, self.vacuous, detail)


#: The largest stack of differences (d * e * n^2 entries, 128 KiB) that
#: ``_bimodule_residual`` forms whole.  Up to it the dense stack costs less
#: than building ``Correspondence.live_rows`` and the dead pairs' terms
#: (measured between dag-4, 5,400 entries, and path-6, 13,230); above it
#: only the live pairs are stacked.
_DENSE_ENTRIES = 8192


def _bimodule_residual(sigma: StarRepresentation, E: Correspondence, T: np.ndarray, tol: float) -> float:
    """How far the stack T (one n x n matrix per basis vector f_i of E) is
    from T(a xi b) = sigma(a) T(xi) sigma(b), or an upper bound on it that
    is at most ``tol`` (``screened_op_norm``).

    The relation is measured in two one-sided halves,
    (L) T(a xi 1) = sigma(a) T(xi) sigma(1) for every unit a and
    (R) T(1 xi b) = sigma(1) T(xi) sigma(b) for every unit b, on the basis
    vectors: 2d batches of n x n products instead of the d^2 of all unit
    pairs.  With D(a, xi, b) = T(a xi b) - sigma(a) T(xi) sigma(b),
    bilinear in (a, b) and linear in xi, the relation is D = 0, (L) is
    D(a, xi, 1) = 0 and (R) is D(1, xi, b) = 0.  They are equivalent: 1 is
    the sum of the N = alg.faithful_dim diagonal units, which gives (L) and
    (R) from the relation; conversely, for a right module (xi b 1 = xi b)
    and a representation (sigma(a) sigma(1) = sigma(a)), expanding each
    term shows

        D(a, xi, b) = D(a, xi b, 1) + sigma(a) (D(1, xi, b) - D(1, xi b, 1)).

    So with r the largest |D(b_k, f_i, b_l)| (the relation over unit
    pairs), r_L and r_R the largest (L) and (R) residuals, r' = max(r_L,
    r_R), c the largest column sum sum_j |R(b_l)[j, i]| of the right action
    and |sigma(b_k)| <= 1,

        r' <= N r   and   r <= (1 + (N + 1) c) r',

    and r' is returned: judged against the bound r was judged against,
    both decisions agree outside that band, and both are exact at 0.  In
    sigma's own basis U, sigma(b_k) X sigma(1) and sigma(1) X sigma(b_l)
    are gathers of rows and columns (``Multiplicity.moves``) cut to the
    first ``span`` columns and rows (sigma(1)), and U is unitary, so the norms are those of H.  Over C (one unit) the
    halves are the same relation and only (L) is measured.

    Each half is judged as ``screened_op_norm`` judges its d x e stack of
    differences D_ki = T(b_k f_i 1) - sigma(b_k) T(f_i) sigma(1) (for (L);
    (R) likewise), but the stack is never formed where a pair is dead:
    row (k, i) of ``E.one_sided`` is zero, so b_k f_i 1 = 0 and, T being
    linear, D_ki = -sigma(b_k) X sigma(1) with X = U* T(f_i) U.  Row r of
    that gather is row moves[k, r] of X cut to its first ``span`` columns
    (those sigma(1) keeps), or zero; moves[k] reads each row it reads
    once (``Multiplicity.reads``), so the nonzero rows of D_ki are exactly
    the slice S_ki = X[reads[k], :span].  Hence

        |D_ki|_F^2 = sum_s reads[k, s] |X[s, :span]|^2,

    one entry of reads @ (row norms)^T, and |D_ki|_2 = |S_ki|_2, as zero
    rows change no singular value (the code keeps the zero columns from
    ``span`` on, which change none either).  For (R), the units are real 0/1
    matrices in U, so (sigma(1) X sigma(b_k))^T = sigma(b_k*) X^T sigma(1):
    the same with X^T and the moving unit b_k* (``Correspondence.live_rows``
    names each pair by it), and transposing changes no norm.  The pairs
    split into the live and the dead ones, so the Frobenius norm of the
    whole stack is sqrt(|live differences|_F^2 + sum of the dead |D_ki|_F^2),
    the dense value up to summation order; above ``tol`` the result is the
    largest spectral norm over the live differences and the slices S_ki
    with a nonzero share, which are the nonzero matrices of the stack, so it
    is ``max_op_norm`` of the dense stack.  Where no pair of a half is
    dead, the live differences are the whole stack.  A stack of at most
    ``_DENSE_ENTRIES`` entries is formed whole, with no live-row index.
    """
    mult, alg = sigma.multiplicity, E.algebra
    d, e, n = alg.dim, E.dim, sigma.hilbert_dim
    tu = dagger(mult.basis) @ T @ mult.basis
    flat, worst = tu.reshape(e, n * n), 0.0
    for h in range(2 if d > 1 else 1):
        # (R) is (L) on the transposes, with the moving unit b_k*
        side = tu.transpose(0, 2, 1) if h else tu
        # X sigma(1), with a zero row n for the gathers' zeros
        kept = np.zeros((e, n + 1, n), dtype=complex)
        kept[:, :n, : mult.span] = side[:, :, : mult.span]
        if d * e * n * n <= _DENSE_ENTRIES:
            # moved[i, k] holds the gather of b_k, or of b_k* in (R)
            moved = kept[:, mult.moves[alg.star_index] if h else mult.moves]
            diff = (E.one_sided[h] @ flat).reshape(d, e, n, n)
            diff -= moved.transpose(1, 0, 3, 2) if h else moved.transpose(1, 0, 2, 3)
            worst = max(worst, screened_op_norm(diff, tol))
            continue
        live = E.live_rows[h]
        moved = kept[live.vectors[:, None], mult.moves[live.units]]
        diff = (live.action @ flat).reshape(len(live.vectors), n, n)
        diff -= moved.transpose(0, 2, 1) if h else moved
        worst = max(worst, _screened_half(diff, live.dead, mult.reads, kept, tol))
    return worst


def _screened_half(diff, dead, reads, kept, tol: float) -> float:
    """``screened_op_norm`` of one half's stack of differences, from the
    stack ``diff`` of its live pairs and, for its dead pairs (the 0/1 mask
    ``dead`` by moving unit and basis vector, None when there are none),
    the rows of each X sigma(1) in ``kept`` that ``reads`` marks (see
    ``_bimodule_residual``)."""
    if dead is None:
        return screened_op_norm(diff, tol)
    parts = kept.view(float)
    # share[k, i] = |D_ki|_F^2 of each dead pair, 0 on the live ones
    share = reads @ np.einsum("isc,isc->is", parts, parts)[:, :-1].T
    share *= dead
    fro = math.sqrt(np.vdot(diff, diff).real + share.sum())
    if fro <= tol:
        return fro
    worst = max_op_norm(diff)
    for k in np.flatnonzero(share.any(axis=1)):
        worst = max(worst, max_op_norm(kept[share[k] > 0][:, np.flatnonzero(reads[k])]))
    return worst


@dataclass(frozen=True, eq=False)
class UOperator:
    """U h = sum_n (I (x) P) L^n h as a matrix into the graded space (+) E^n (x) W.

    ``build_U`` caches it, so ``matrix`` and ``kernel`` are read-only."""

    matrix: np.ndarray
    level_dims: tuple[int, ...]
    kernel: np.ndarray  # orthonormal basis of ker U in H
    isometry_residual: float
    coisometry_residual: float
    norm: float
    concave_vacuous: bool


class CovariantRep:
    """A covariant representation of a correspondence on a Hilbert space.

    ``T`` holds one n x n matrix per E-basis vector.  Construction checks
    the bimodule relation T(a xi b) = sigma(a) T(xi) sigma(b) and that the
    induced map on E (x) H annihilates the Gram kernel, then builds
    T-tilde.  Pass a shared ChainTower/HilbertTower when several
    representations must act in literally identical quotient bases (as
    the coordinates of a product-system representation do).
    """

    def __init__(
        self,
        sigma: StarRepresentation,
        E: Correspondence,
        T,
        *,
        tol: float | None = None,
        chain: ChainTower | None = None,
        hilb: HilbertTower | None = None,
        letter: int = 0,
        meta: dict | None = None,
    ):
        if sigma.algebra != E.algebra:
            raise AlgebraMismatch("representation and correspondence algebras differ")
        n = sigma.hilbert_dim
        given = T
        T = as_complex(T).reshape(E.dim, n, n) if E.dim else np.zeros((0, n, n), complex)
        self.sigma = sigma
        self.E = E
        self.tol = tol if tol is not None else min(E.tol, sigma.tol)
        self.meta = dict(meta or {})
        self.chain = chain if chain is not None else ChainTower([E], self.tol)
        if hilb is not None and (hilb.sigma is not sigma or hilb.chain is not self.chain):
            raise AlgebraMismatch("Hilbert tower is built on another sigma or chain")
        self.hilb = hilb if hilb is not None else HilbertTower(self.chain, sigma)
        self.letter = letter
        if self.chain.family[letter] is not E:
            raise AlgebraMismatch("tower letter does not carry this correspondence")
        # algebraic map theta : C^{e n} -> C^n, column (i*n + p) = T_i e_p;
        # T is a view of it, so the two share one array, read-only in both
        self.theta = frozen(T.transpose(1, 0, 2).reshape(n, E.dim * n), given)
        self.T = self.theta.reshape(n, E.dim, n).transpose(1, 0, 2)
        # every derived value, under (qualified function name, *args) (see _cached)
        self._cache: dict = {}
        self._validate_construction()

    # -- construction checks -------------------------------------------------

    def _validate_construction(self):
        """Raise BimoduleViolation unless T(a xi b) = sigma(a) T(xi) sigma(b)
        (``_bimodule_residual``), and IllDefinedTilde unless
        xi (x) h -> T(xi) h vanishes on the Gram kernel."""
        tol = self.tol

        def fails(residual):
            # the bound is tol * scale with scale >= 1: a residual within tol
            # passes without the scales' SVDs
            return residual > tol and residual > tol * max(self.scale, self.sigma.scale)

        worst = _bimodule_residual(self.sigma, self.E, self.T, tol)
        if fails(worst):
            raise BimoduleViolation(
                f"T(a xi b) deviates from sigma(a) T(xi) sigma(b) by {worst:.3e}"
            )
        space = self.space(1)
        if space.gram_kernel_dim:
            # lift push is the orthogonal projector off the Gram kernel K, so
            # theta - T~ push = theta K K*, whose norm is |theta K|
            drop = screened_op_norm(self.theta - self.tilde @ space.push, tol)
            if fails(drop):
                raise IllDefinedTilde(
                    f"xi (x) h -> T(xi) h does not annihilate the Gram kernel ({drop:.3e})"
                )

    # -- basic geometry --------------------------------------------------------

    @property
    def hdim(self) -> int:
        return self.sigma.hilbert_dim

    @property
    @_cached
    def scale(self) -> float:
        """scale_of(theta), the relative-tolerance scale of T."""
        return scale_of(self.theta)

    def word(self, k: int) -> tuple[int, ...]:
        return (self.letter,) * k

    def space(self, k: int) -> InteriorTensorSpace:
        return self.hilb.space(self.word(k))

    def sdim(self, k: int) -> int:
        return self.space(k).quotient_dim

    # -- canonical operators ----------------------------------------------------

    @property
    def tilde(self) -> np.ndarray:
        """T~ as a matrix from the E (x)_sigma H quotient to H: the factor of
        the one-letter word."""
        return self.factor(self.word(1))

    @_cached
    def factor(self, word: tuple[int, ...]) -> np.ndarray:
        """I (x) T~ : space(word) -> space(word[:-1]) in the shared tower,
        for a word (a tuple) whose last letter is this representation's."""
        if not word or word[-1] != self.letter:
            raise ShapeMismatch(f"factor needs a word ending in letter {self.letter}, got {word}")
        return self.hilb.factor(word, self.theta)

    def fac(self, k: int) -> np.ndarray:
        """I_{E^{(x)k}} (x) T~ : space(k+1) -> space(k)."""
        return self.factor(self.word(k + 1))

    @_cached
    def tilde_n(self, n: int) -> np.ndarray:
        """T~_n = T~ (I (x) T~) ... (I (x)^{n-1} T~) : space(n) -> H."""
        if n < 0:
            raise ShapeMismatch("tilde_n needs n >= 0")
        return self.tilde_n(n - 1) @ self.fac(n - 1) if n else eye_like(self.hdim)

    @property
    @_cached
    def gram_tilde(self) -> np.ndarray:
        return dagger(self.tilde) @ self.tilde

    @_cached
    def check_left_invertible(self) -> CheckResult:
        """T~ is bounded below: the smallest eigenvalue of T~* T~ is above
        ``rank_cutoff`` of the largest; the residual is how far it falls short."""
        g = self.gram_tilde
        if g.shape[0] == 0:
            return CheckResult("left_invertible", True, 0.0, None, vacuous=True)
        w = np.linalg.eigvalsh((g + dagger(g)) / 2.0)
        lo, cutoff = float(w[0]), rank_cutoff(float(w[-1]))
        return CheckResult("left_invertible", lo > cutoff, max(0.0, cutoff - lo), lo)

    def left_invertible(self) -> bool:
        return self.check_left_invertible().passed

    def _require_left_invertible(self):
        if not self.left_invertible():
            raise NotLeftInvertible("T-tilde is not bounded below")

    @property
    def L(self) -> np.ndarray:
        """The left inverse (T~* T~)^{-1} T~*: the factor of L^n at k = 0."""
        return self.lfac(0)

    @_cached
    def lfac(self, k: int) -> np.ndarray:
        """I_{E^{(x)k}} (x) L : space(k) -> space(k+1)."""
        self._require_left_invertible()
        fk = self.fac(k)
        return solve_hermitian(dagger(fk) @ fk, dagger(fk))

    @_cached
    def L_n(self, n: int) -> np.ndarray:
        """L^n = (I (x)^{n-1} L) ... (I (x) L) L : H -> space(n)."""
        if n < 0:
            raise ShapeMismatch("L_n needs n >= 0")
        return self.lfac(n - 1) @ self.L_n(n - 1) if n else eye_like(self.hdim)

    @property
    @_cached
    def P(self) -> np.ndarray:
        """Orthogonal projection onto the wandering subspace ker T~*."""
        return eye_like(self.hdim) - self.Q

    @property
    @_cached
    def Q(self) -> np.ndarray:
        """Projection T~ L onto the range of T~."""
        return self.tilde @ self.L

    # -- property checks ---------------------------------------------------------

    def _psd_check(self, name: str, mat: np.ndarray) -> CheckResult:
        if mat.shape[0] == 0:
            return CheckResult(name, True, 0.0, None, vacuous=True)
        m, drift, norm = min_eig_herm(mat)
        require_hermitian(drift, norm, self.tol)
        bound = self.tol * (1.0 + norm)
        return CheckResult(name, m >= -bound, max(0.0, -m), m)

    @_cached
    def check_isometric(self) -> CheckResult:
        g = self.gram_tilde
        res = op_norm(g - eye_like(g.shape[0]))
        return CheckResult("isometric", res <= self.tol * scale_of(g), res)

    @_cached
    def check_fully_coisometric(self) -> CheckResult:
        c = self.tilde @ dagger(self.tilde)
        res = op_norm(c - eye_like(self.hdim))
        return CheckResult("fully_coisometric", res <= self.tol * scale_of(c), res)

    @_cached
    def check_concave(self) -> CheckResult:
        """Operator form: T~_2* T~_2 - I <= 2 (I_E (x) T~* T~ - I), the growth
        bound at n = 2."""
        return replace(self.check_growth_bound(2), name="concave")

    @_cached
    def check_expansive(self) -> CheckResult:
        """T~* T~ >= I, the conclusion of the concavity lemma."""
        g = self.gram_tilde
        mat = g - eye_like(g.shape[0])
        return self._psd_check("expansive", mat)

    @_cached
    def check_growth_bound(self, n: int) -> CheckResult:
        """T~_n* T~_n - I <= n (I (x) T~* T~ - I) on the n-th tensor level."""
        if n < 1:
            raise ShapeMismatch("growth bound needs n >= 1")
        name = f"growth_bound_{n}"
        if self.sdim(n) == 0:
            return CheckResult(name, True, 0.0, None, vacuous=True)
        fn = self.fac(n - 1)
        tn = self.tilde_n(n)
        mat = float(n) * dagger(fn) @ fn - float(n - 1) * eye_like(self.sdim(n)) - dagger(tn) @ tn
        return self._psd_check(name, mat)

    def _not_left_invertible(self, name: str) -> CheckResult:
        return CheckResult(name, False, 1.0, None, reason="NotLeftInvertible")

    @_cached
    def check_shimorin(self) -> CheckResult:
        """Operator form (14): I_E (x) T~ T~* + (T~* T~)^{-1} <= 2 I."""
        if self.sdim(1) == 0:
            return CheckResult("shimorin", True, 0.0, None, vacuous=True)
        if not self.left_invertible():
            return self._not_left_invertible("shimorin")
        s1 = self.sdim(1)
        f1 = self.fac(1)
        inv = solve_hermitian(self.gram_tilde, eye_like(s1))
        mat = 2.0 * eye_like(s1) - f1 @ dagger(f1) - inv
        return self._psd_check("shimorin", mat)

    @_cached
    def check_eq13(self) -> CheckResult:
        """Vector form: |T~ xi|^2 + |T~_2* T~ xi|^2 <= 2 |T~* T~ xi|^2."""
        if self.sdim(1) == 0:
            return CheckResult("eq13", True, 0.0, None, vacuous=True)
        if not self.left_invertible():
            return self._not_left_invertible("eq13")
        g = self.gram_tilde
        b = dagger(self.tilde_n(2)) @ self.tilde
        mat = 2.0 * g @ g - g - dagger(b) @ b
        return self._psd_check("eq13", mat)

    @_cached
    def check_eq12(self) -> CheckResult:
        """X-operator form: X = [I (x) T~, (T~* T~)^{-1/2}] with X X* <= 2 I."""
        if self.sdim(1) == 0:
            return CheckResult("eq12", True, 0.0, None, vacuous=True)
        if not self.left_invertible():
            return self._not_left_invertible("eq12")
        s1 = self.sdim(1)
        f1 = self.fac(1)
        isq = inv_sqrt_psd(self.gram_tilde)
        xxs = f1 @ dagger(f1) + isq @ dagger(isq)
        mat = 2.0 * eye_like(s1) - xxs
        return self._psd_check("eq12", mat)

    @_cached
    def check_analytic(self) -> CheckResult:
        # deferred import: subspace machinery lives in wold
        from .wold import h_infinity

        dim = h_infinity(self).dim
        return CheckResult("analytic", dim == 0, float(dim))

    # -- derived representations ----------------------------------------------

    @_cached
    def cauchy_dual(self) -> "CovariantRep":
        """The representation with T~' = T~ (T~* T~)^{-1}, built once."""
        self._require_left_invertible()
        theta_dual = dagger(self.L) @ self.space(1).push
        n = self.hdim
        T_dual = theta_dual.reshape(n, self.E.dim, n).transpose(1, 0, 2)
        return CovariantRep(
            self.sigma,
            self.E,
            T_dual,
            tol=self.tol,
            chain=self.chain,
            hilb=self.hilb,
            letter=self.letter,
            meta={"cauchy_dual": True, **self.meta},
        )

    def defect_operator(self) -> np.ndarray:
        """D = (T~* T~ - I)^{1/2}; requires an expansive representation."""
        g = self.gram_tilde
        mat = g - eye_like(g.shape[0])
        if mat.shape[0]:
            # the Hermitian part of g - I has the eigenvalues of that of g
            # shifted by -1, so its norm is max(1 - lo, norm - 1)
            lo, drift, norm = min_eig_herm(g)
            require_hermitian(drift, max(1.0 - lo, norm - 1.0), self.tol)
            if lo - 1.0 < -self.tol * (1.0 + norm):
                raise NotConcave("T~* T~ - I is not positive; defect operator undefined")
        return sqrt_psd(mat, self.tol)

    def restrict(self, basis) -> "CovariantRep":
        """Restriction to the invariant subspace spanned by the orthonormal columns."""
        basis = as_complex(basis)
        if basis.ndim != 2 or basis.shape[0] != self.hdim:
            raise ShapeMismatch("restriction basis must be n x d with orthonormal columns")
        drift = orthonormal_drift(basis)
        if drift > ORTHONORMAL_TOL:
            raise ShapeMismatch(f"restriction basis columns are not orthonormal (drift {drift:.3e})")
        bound = self.tol * max(scale_of(basis), self.scale, self.sigma.scale)
        worst = invariance_residual(basis, self.sigma.images, self.T)
        if worst > bound:
            raise NotInvariant(f"subspace is not (sigma, T)-invariant (residual {worst:.3e})")
        images = np.stack([dagger(basis) @ img @ basis for img in self.sigma.images])
        sigma_k = StarRepresentation(self.sigma.algebra, basis.shape[1], images, self.sigma.tol)
        T_k = np.stack([dagger(basis) @ self.T[i] @ basis for i in range(self.E.dim)]) if self.E.dim else np.zeros((0, basis.shape[1], basis.shape[1]), complex)
        return CovariantRep(
            sigma_k, self.E, T_k, tol=self.tol, chain=self.chain, letter=self.letter
        )

    # -- the wandering-sum operator U --------------------------------------------

    @_cached
    def build_U(self) -> UOperator:
        """U h = sum_n (I (x) P) L^n h into (+)_{n<=dim H} E^{(x)n} (x) W.

        ``level_dims`` has dim H + 1 entries; a level whose tensor space is
        zero contributes no rows and is not built."""
        self._require_left_invertible()
        conc = self.check_concave()
        if not conc.passed:
            raise NotConcave("U is defined for concave representations")
        n = self.hdim
        P = self.P
        blocks = []
        dims = []
        for k in range(n + 1):
            if not self.sdim(k):
                dims.append(0)
                continue
            pk = self.hilb.tensor_op(self.word(k), P)
            bk = orth_cols(pk, 0.5)
            dims.append(bk.shape[1])
            blocks.append(dagger(bk) @ pk @ self.L_n(k))
        U = np.vstack(blocks) if blocks else np.zeros((0, n), complex)
        kernel = null_cols(U)
        gram = dagger(U) @ U
        iso = op_norm(gram - eye_like(n))
        coiso = op_norm(U @ dagger(U) - eye_like(U.shape[0]))
        return UOperator(
            U,
            tuple(dims),
            kernel,
            iso,
            coiso,
            op_norm(U),
            conc.vacuous,
        )
