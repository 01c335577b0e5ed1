"""Subspace lattice machinery and the decomposition / theorem verifiers.

Subspaces are stored through orthonormal column bases.  Equality between
subspaces is decided by dimension first, then by the maximal principal
angle, measured through the well-conditioned sine residual
|(I - P_U) V|_2.  Every verifier returns a TheoremReport that evaluates
the conclusions even when hypotheses fail, flagging them as not asserted,
so failing instances act as counterexample explorers rather than raising.

Every lattice subspace is built by steps L_1(K) = span T(xi_i) K (``_step``),
so each rank decision is that of one L_1, never of a composite T~_n.

The lattice constants, which depend only on the representation, are
cached by ``_linalg._cached``: the subspaces (W with H_inf, [W]_T with the
translates of W that grew it, and on a product each W_alpha), with
read-only bases, and the certificates measured on them.  The rule is
``_cached``'s: one entry per (cached function, hashable arguments), never
under a subspace a caller passes (Richter's K = H is a function of the
representation alone), and never an exception.  No report is cached, nor
``wold_decompose``, ``verify_ker_Ln`` or Muhly-Solel's Fock model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    ANGLE_TOL,
    ORTHONORMAL_TOL,
    _cached,
    as_complex,
    dagger,
    eye_like,
    id_tensor_matmul,
    invariance_residual,
    max_op_norm,
    null_cols,
    op_norm,
    orth_cols,
    orthonormal_drift,
)
from .algebra import StarRepresentation
from .correspondence import FockHilbert
from .covrep import CheckResult, CovariantRep
from .errors import (
    AmbientMismatch,
    NotInvariant,
    NotIsometric,
    NotSigmaInvariant,
    ShapeMismatch,
)
from .reporting import CheckItem, TheoremReport


@dataclass(frozen=True, eq=False)
class Subspace:
    """A closed subspace of C^n given by an orthonormal column basis."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = as_complex(self.basis)
        if basis.ndim != 2 or basis.shape[0] != self.ambient_dim:
            raise ShapeMismatch(
                f"basis must be {self.ambient_dim} x d, got {basis.shape}"
            )
        drift = orthonormal_drift(basis)
        if drift > ORTHONORMAL_TOL:
            raise ShapeMismatch(f"basis columns are not orthonormal (drift {drift:.3e})")
        object.__setattr__(self, "basis", basis)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, basis: np.ndarray) -> "Subspace":
        """The subspace of an ``orth_cols``/``null_cols`` basis, which is
        orthonormal by construction, without the screen of ``__init__``."""
        space = object.__new__(cls)
        object.__setattr__(space, "ambient_dim", basis.shape[0])
        object.__setattr__(space, "basis", basis)
        return space

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, np.zeros((n, 0), dtype=complex))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, eye_like(n))

    # -- basic data --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ dagger(self.basis)

    def _check_ambient(self, other: "Subspace"):
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch(
                f"ambient dims differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    # -- lattice operations --------------------------------------------------

    def orthocomplement(self) -> "Subspace":
        return Subspace._trusted(null_cols(dagger(self.basis)))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel of (I - P_1) + (I - P_2)."""
        self._check_ambient(other)
        gap = (eye_like(self.ambient_dim) - self.projector()) + (
            eye_like(self.ambient_dim) - other.projector()
        )
        return Subspace._trusted(null_cols(gap))

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return image(np.hstack([self.basis, other.basis]))

    # -- comparisons -----------------------------------------------------------

    def containment_gap(self, other: "Subspace") -> float:
        """sin of the largest principal angle of ``other`` out of ``self``."""
        self._check_ambient(other)
        if other.dim == 0:
            return 0.0
        res = other.basis - self.projector() @ other.basis
        return op_norm(res)

    def angle_gap(self, other: "Subspace") -> float:
        return max(self.containment_gap(other), other.containment_gap(self))

    def contains(self, other: "Subspace") -> bool:
        return self.containment_gap(other) <= ANGLE_TOL

    def equals(self, other: "Subspace") -> bool:
        """Dimension equality first (authoritative), then principal angles."""
        self._check_ambient(other)
        if self.dim != other.dim:
            return False
        return self.angle_gap(other) <= ANGLE_TOL


def image(mat) -> Subspace:
    return Subspace._trusted(orth_cols(mat))


def kernel(mat) -> Subspace:
    return Subspace._trusted(null_cols(mat))


# -- representation-driven subspaces ------------------------------------------


def _sigma_check(sigma: StarRepresentation, tol: float, K: Subspace) -> CheckResult:
    """The sigma(M)-invariance residual of K, passed when within
    tol * sigma.scale: the residual involves sigma alone."""
    if K.ambient_dim != sigma.hilbert_dim:
        raise AmbientMismatch("subspace does not live in the representation space")
    res = invariance_residual(K.basis, sigma.images)
    return CheckResult("sigma_invariant", res <= tol * sigma.scale, res)


def _require_sigma_invariant(check: CheckResult):
    """Raise unless a ``_sigma_check`` passed; checked once, at a public entry."""
    if not check.passed:
        raise NotSigmaInvariant(
            f"subspace is not sigma(M)-invariant (residual {check.residual:.3e})"
        )


def _step(rep: CovariantRep, K: Subspace) -> Subspace:
    """L_1(K) = T~(E (x) K) = span T(xi_i) K for a sigma-invariant K; exactly
    zero columns are dropped, which moves no nonzero singular value."""
    n, e = rep.hdim, rep.E.dim
    # row (p, i) of theta read as (n e) x n is row p of T(xi_i): one product, no copy
    span = (rep.theta.reshape(n * e, n) @ K.basis).reshape(n, e * K.dim)
    return image(span[:, span.any(axis=0)])


def _translate(rep: CovariantRep, n: int, K: Subspace) -> Subspace:
    """L_n(K) = L_1(L_{n-1}(K)), the closure of T~_n (E^{(x)n} (x) K) inside
    H, for a sigma-invariant K: n steps, never the composite T~_n."""
    for _ in range(n):
        K = _step(rep, K)
    return K


def _translates(rep: CovariantRep, K: Subspace):
    """L_1(K), L_2(K), ... up to L_{dim H}(K), each a step from the last, until one is zero."""
    ln = K
    for _ in range(rep.hdim):
        ln = _step(rep, ln)
        if ln.dim == 0:
            return
        yield ln


def wandering_subspace(rep: CovariantRep) -> Subspace:
    """W = ker T~* = H (-) L_1(H), from the range chain of ``h_infinity``."""
    return _range_chain(rep)[0]


@_cached
def _wandering_sweep(rep: CovariantRep) -> tuple[Subspace, tuple[Subspace, ...]]:
    """[W]_T, the invariant closure of the wandering subspace, and the
    translates L_1(W), L_2(W), ... that grew it, once per representation."""
    return _sweep(rep, wandering_subspace(rep))


def script_L_n(rep: CovariantRep, K: Subspace, n: int) -> Subspace:
    """L_n(K): closure of T~_n (E^{(x)n} (x) K) inside H."""
    _require_sigma_invariant(_sigma_check(rep.sigma, rep.tol, K))
    return _translate(rep, n, K)


def _sweep(rep: CovariantRep, K: Subspace) -> tuple[Subspace, tuple[Subspace, ...]]:
    """The running sum K + L_1(K) + L_2(K) + ... for a sigma-invariant K, and
    the translates that grew it.  A translate that adds nothing makes the sum
    invariant, so the sweep stops there."""
    _require_sigma_invariant(_sigma_check(rep.sigma, rep.tol, K))
    total, grew = K, []
    for ln in _translates(rep, K):
        step = total + ln
        if step.dim == total.dim:
            break
        total = step
        grew.append(ln)
    return total, tuple(grew)


def invariant_closure(rep: CovariantRep, K: Subspace) -> Subspace:
    """Smallest (sigma, T)-invariant subspace containing K: sum of L_n(K)."""
    return _sweep(rep, K)[0]


def h_infinity(rep: CovariantRep) -> Subspace:
    """H_infty = intersection of the ranges ran T~_n = L_n(H)."""
    return _range_chain(rep)[1]


@_cached
def _range_chain(rep: CovariantRep) -> tuple[Subspace, Subspace]:
    """(W, H_infty), once per representation: the ranges L_n(H), each one
    L_1 step from the last, never a composite T~_n, until they stop
    shrinking; W is the orthocomplement of the first, ran T~ = L_1(H)."""
    prev = Subspace.full(rep.hdim)
    cur = _step(rep, prev)
    W = cur.orthocomplement()
    for _ in range(rep.hdim + 1):
        if cur.dim == prev.dim and prev.contains(cur):
            return W, cur
        prev, cur = cur, _step(rep, cur)
    return W, prev


def check_invariant(rep: CovariantRep, K: Subspace) -> CheckResult:
    """P_K commutes with sigma(M) and every T(xi) leaves K invariant."""
    res = invariance_residual(K.basis, rep.sigma.images, rep.T)
    bound = rep.tol * max(rep.scale, rep.sigma.scale)
    return CheckResult("invariant", res <= bound, res)


def check_reducing(rep: CovariantRep, K: Subspace) -> CheckResult:
    a = check_invariant(rep, K)
    b = check_invariant(rep, K.orthocomplement())
    res = max(a.residual, b.residual)
    return CheckResult("reducing", a.passed and b.passed, res)


def check_wandering(rep: CovariantRep, K: Subspace) -> CheckResult:
    """K is sigma(M)-invariant and orthogonal to all its forward translates."""
    sigma = _sigma_check(rep.sigma, rep.tol, K)
    if not sigma.passed:
        return CheckResult("wandering", False, sigma.residual, reason="NotSigmaInvariant")
    worst = 0.0
    for ln in _translates(rep, K):
        worst = max(worst, op_norm(dagger(K.basis) @ ln.basis))
    return CheckResult("wandering", worst <= rep.tol * max(rep.scale, rep.sigma.scale), worst)


# -- Wold-type decomposition -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class WoldDecomposition:
    """The triple (W, H_u, H_inf) with its numerical certificates."""

    W: Subspace
    H_u: Subspace
    H_inf: Subspace
    hypotheses: tuple[CheckItem, ...]
    certificates: tuple[CheckItem, ...]

    @property
    def hypothesis_met(self) -> bool:
        return any(item.passed for item in self.hypotheses)

    @property
    def certified(self) -> bool:
        return all(item.passed for item in self.certificates)

    def dims(self) -> tuple[int, int, int]:
        return (self.W.dim, self.H_u.dim, self.H_inf.dim)

    def to_json(self) -> dict:
        return {
            "dims": {"W": self.W.dim, "H_u": self.H_u.dim, "H_inf": self.H_inf.dim},
            "hypotheses": [i.to_json() for i in self.hypotheses],
            "certificates": [i.to_json() for i in self.certificates],
            "hypothesis_met": self.hypothesis_met,
            "pass": self.certified,
        }


def _split_items(rep: CovariantRep, H_u: Subspace, H_inf: Subspace) -> tuple[CheckItem, CheckItem]:
    """H = H_u (+) H_inf: the orthogonality and completeness items, each
    within tol * scale."""
    n = rep.hdim
    bound = rep.tol * rep.scale
    orth = op_norm(dagger(H_u.basis) @ H_inf.basis)
    complete = op_norm(H_u.projector() + H_inf.projector() - eye_like(n))
    return (
        CheckItem("orthogonality", orth <= bound, orth),
        CheckItem("completeness", H_u.dim + H_inf.dim == n and complete <= bound, complete),
    )


@_cached
def _unitary_part(rep: CovariantRep) -> tuple[CheckResult, CheckResult]:
    """The isometric and fully co-isometric checks of the restriction to a nonzero H_inf."""
    sub = rep.restrict(h_infinity(rep).basis)
    return sub.check_isometric(), sub.check_fully_coisometric()


def _restriction_item(rep: CovariantRep, which: int, name: str) -> CheckItem:
    """Item ``which`` of ``_unitary_part`` as ``name``; vacuous when H_inf = 0."""
    if not h_infinity(rep).dim:
        return CheckItem(name, True, 0.0, vacuous=True)
    check = _unitary_part(rep)[which]
    return CheckItem(name, check.passed, check.residual)


@_cached
def _reducing_H_u(rep: CovariantRep) -> CheckResult:
    """Whether [W]_T reduces the representation, once per representation."""
    return check_reducing(rep, _wandering_sweep(rep)[0])


@_cached
def _reducing_H_inf(rep: CovariantRep) -> CheckResult:
    """Whether H_inf reduces the representation, once per representation."""
    return check_reducing(rep, h_infinity(rep))


def wold_decompose(rep: CovariantRep) -> WoldDecomposition:
    """Compute H = (sum of L_n(W)) (+) H_inf with all certificates.

    The decomposition is always computed; when neither the concavity nor
    the Shimorin hypothesis holds, the certificates simply report whether
    the conclusion happens to survive, without asserting the theorem.
    """
    concave = rep.check_concave()
    shimorin = rep.check_shimorin()
    W, H_inf = _range_chain(rep)
    H_u = _wandering_sweep(rep)[0]
    red_u = _reducing_H_u(rep)
    red_inf = _reducing_H_inf(rep)

    hypotheses = (concave.as_item(), shimorin.as_item())
    certificates = (
        *_split_items(rep, H_u, H_inf),
        CheckItem("H_u_reducing", red_u.passed, red_u.residual),
        CheckItem("H_inf_reducing", red_inf.passed, red_inf.residual),
        _restriction_item(rep, 0, "restriction_isometric"),
        _restriction_item(rep, 1, "restriction_fully_coisometric"),
    )
    return WoldDecomposition(W, H_u, H_inf, hypotheses, certificates)


# -- theorem verifiers ------------------------------------------------------------


def _angle_item(name: str, left: Subspace, right: Subspace) -> CheckItem:
    """``left.equals(right)`` as a check item, with the angle gap computed once."""
    left._check_ambient(right)
    if left.dim != right.dim:
        return CheckItem(name, False, 1.0)
    gap = left.angle_gap(right)
    return CheckItem(name, gap <= ANGLE_TOL, gap)


@_cached
def _induced_model_item(rep: CovariantRep) -> CheckItem:
    """The intertwining unitary from F(E) (x)_sigma|W W onto [W]_T, built
    level by level on the ``FockHilbert`` model of sigma restricted to W, as
    one check item within tol * scale, once per representation (the model
    is dropped once measured); vacuous when W = 0."""
    W = wandering_subspace(rep)
    if not W.dim:
        return CheckItem("H1_induced_intertwiner", True, 0.0, vacuous=True)
    n = rep.hdim
    H1, translates = _wandering_sweep(rep)
    # the translates of W under an isometric T are orthogonal, so each
    # nonzero one grows H1 and the sweep reaches every nonzero Fock level
    depth = len(translates)
    sigma_w_images = np.stack([dagger(W.basis) @ img @ W.basis for img in rep.sigma.images])
    sigma_w = StarRepresentation(rep.sigma.algebra, W.dim, sigma_w_images, rep.sigma.tol)
    model = FockHilbert(rep.chain, sigma_w, {rep.letter: depth})
    gammas = []
    for k in range(depth + 1):
        msp = model.spaces[(k,)]
        if k == 0:
            # M (x) W -> H through sigma: a (x) w -> sigma(a) w
            amap = np.einsum(
                "kpq,qw->pkw", rep.sigma.images, W.basis
            ).reshape(n, rep.sigma.algebra.dim * W.dim)
            gammas.append(amap @ msp.lift)
        else:
            rsp = rep.space(k)
            r_k = rep.chain.corr(rep.word(k)).dim
            embed = rsp.push @ id_tensor_matmul(r_k, W.basis, 1, msp.lift)
            gammas.append(rep.tilde_n(k) @ embed)
    gamma = np.hstack(gammas)
    unit = max(
        op_norm(dagger(gamma) @ gamma - eye_like(gamma.shape[1])),
        op_norm(gamma @ dagger(gamma) - H1.projector()),
    )
    rho = model.representation()
    inter = max(
        max_op_norm(gamma @ rho.images - rep.sigma.images @ gamma),
        max_op_norm(gamma @ model.creation(rep.letter, eye_like(rep.E.dim)) - rep.T @ gamma),
    )
    worst = max(unit, inter)
    return CheckItem("H1_induced_intertwiner", worst <= rep.tol * rep.scale, worst)


def verify_muhly_solel(rep: CovariantRep) -> TheoremReport:
    """Wold decomposition of an isometric representation into an induced
    part on F(E) (x) W and a fully co-isometric part."""
    iso = rep.check_isometric()
    if not iso.passed:
        raise NotIsometric(f"representation is not isometric (residual {iso.residual:.3e})")
    W, H2 = _range_chain(rep)
    H1 = _wandering_sweep(rep)[0]
    return TheoremReport(
        "muhly_solel",
        hypotheses=(iso.as_item(),),
        conclusions=(
            *_split_items(rep, H1, H2),
            _restriction_item(rep, 1, "H2_fully_coisometric"),
            _induced_model_item(rep),
        ),
        dims={"H1": H1.dim, "H2": H2.dim, "W": W.dim},
    )


def _wandering_part(rep: CovariantRep, K: Subspace) -> Subspace:
    """Richter's W_K = K (-) T~(E (x) K), measured inside H, for a
    sigma-invariant K; zero when K is."""
    return K.intersect(script_L_n(rep, K, 1).orthocomplement())


def _generates(rep: CovariantRep, K: Subspace) -> bool:
    """Whether Richter's W_K generates an invariant K: [W_K]_T = K."""
    return invariant_closure(rep, _wandering_part(rep, K)).equals(K)


def _richter_conclusions(rep: CovariantRep, K: Subspace):
    """Richter's conclusions on an invariant K, and the dims they speak of:
    W_K is wandering, generates K, and is recovered from its closure."""
    W_K = _wandering_part(rep, K)
    closure = invariant_closure(rep, W_K)
    wander = check_wandering(rep, W_K)
    regen = _angle_item("closure_recovers_K", closure, K)
    # the closure determines its wandering subspace
    uniqueness = _angle_item("wandering_uniqueness", _wandering_part(rep, closure), W_K)
    dims = (("K", K.dim), ("W_K", W_K.dim), ("closure", closure.dim))
    return (wander.as_item(), regen, uniqueness), dims


@_cached
def _richter_on_H(rep: CovariantRep):
    """``_richter_conclusions`` on K = H, once per representation."""
    return _richter_conclusions(rep, Subspace.full(rep.hdim))


def verify_richter(rep: CovariantRep, K: Subspace) -> TheoremReport:
    """Wandering subspace theorem for an invariant subspace of an analytic
    concave representation: K = closure of the translates of K (-) T~(E (x) K).

    K = H (an orthonormal basis of dim H columns, which spans H) is measured
    once per representation, on ``Subspace.full``; any smaller K is measured
    on each call and never cached."""
    inv = check_invariant(rep, K)
    if not inv.passed:
        raise NotInvariant(f"subspace is not (sigma, T)-invariant (residual {inv.residual:.3e})")
    concave = rep.check_concave()
    analytic = rep.check_analytic()
    if K.dim == rep.hdim:
        conclusions, dims = _richter_on_H(rep)
    else:
        conclusions, dims = _richter_conclusions(rep, K)
    return TheoremReport(
        "richter",
        hypotheses=(analytic.as_item(), concave.as_item()),
        conclusions=conclusions,
        dims=dict(dims),
    )


def verify_cauchy_dual_props(rep: CovariantRep) -> TheoremReport:
    """The Cauchy-dual subspace identities and the analytic/GWS biconditionals,
    measured once per representation."""
    left_inv = rep.check_left_invertible()
    conclusions, dims = _cauchy_dual_conclusions(rep)
    return TheoremReport(
        "cauchy_dual",
        hypotheses=(left_inv.as_item(),),
        conclusions=conclusions,
        dims=dict(dims),
    )


@_cached
def _cauchy_dual_conclusions(rep: CovariantRep):
    """The conclusions of ``verify_cauchy_dual_props`` and the dims they
    speak of, once per representation."""
    dual = rep.cauchy_dual()
    n = rep.hdim
    W, hinf = _range_chain(rep)
    W_dual, hinf_dual = _range_chain(dual)
    span = _wandering_sweep(rep)[0]
    span_dual = invariant_closure(dual, W)

    analytic = hinf.dim == 0
    analytic_dual = hinf_dual.dim == 0
    gws = span.equals(Subspace.full(n))
    gws_dual = span_dual.equals(Subspace.full(n))

    conclusions = (
        _angle_item("dual_wandering_equals_wandering", W_dual, W),
        _angle_item("perp_dual_Hinf_is_span", hinf_dual.orthocomplement(), span),
        _angle_item("perp_Hinf_is_dual_span", hinf.orthocomplement(), span_dual),
        _angle_item("Hinf_equals_dual_Hinf", hinf, hinf_dual),
        _angle_item("spans_coincide", span, span_dual),
        CheckItem("analytic_iff_dual_gws", analytic == gws_dual, float(analytic != gws_dual)),
        CheckItem("gws_iff_dual_analytic", gws == analytic_dual, float(gws != analytic_dual)),
    )
    dims = (
        ("W", W.dim),
        ("H_inf", hinf.dim),
        ("H_inf_dual", hinf_dual.dim),
        ("span", span.dim),
        ("span_dual", span_dual.dim),
    )
    return conclusions, dims


def check_dual_reducing_implication(rep: CovariantRep) -> TheoremReport:
    """If H'_inf is reducing for the dual, then H'_inf is contained in H_inf."""
    rep._require_left_invertible()
    dual = rep.cauchy_dual()
    hinf_dual = h_infinity(dual)
    red = _reducing_H_inf(dual)
    if red.passed:
        gap = h_infinity(rep).containment_gap(hinf_dual)
        concl = CheckItem("dual_Hinf_contained_in_Hinf", gap <= ANGLE_TOL, gap)
    else:
        concl = CheckItem("dual_Hinf_contained_in_Hinf", True, 0.0, vacuous=True,
                          detail="antecedent false")
    return TheoremReport(
        "dual_reducing_implication",
        hypotheses=(red.as_item(),),
        conclusions=(concl,),
        dims={"H_inf_dual": hinf_dual.dim},
    )


def verify_ker_Ln(rep: CovariantRep, n: int) -> TheoremReport:
    """ker L^n equals the span of the first n translates of the wandering subspace."""
    left_inv = rep.check_left_invertible()
    rep._require_left_invertible()
    kerL = kernel(rep.L_n(n))
    rhs = wandering_subspace(rep) if n else Subspace.zero(rep.hdim)
    # the sweep stops once [W]_T is reached; later translates lie in it
    for ln in _wandering_sweep(rep)[1][: max(n - 1, 0)]:
        rhs = rhs + ln
    return TheoremReport(
        "ker_Ln",
        hypotheses=(left_inv.as_item(),),
        conclusions=(_angle_item("kernel_matches_translates", kerL, rhs),),
        dims={"ker": kerL.dim, "translates": rhs.dim},
    )
