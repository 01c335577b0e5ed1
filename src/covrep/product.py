"""Product systems over N_0^k, representation tuples, and the rank-k verifiers.

A product system stores one correspondence per coordinate and, for every
pair i > j, a unitary bimodule flip identifying E_i (x) E_j with
E_j (x) E_i on the internal-tensor quotients; flips for i < j are derived
as inverses, so the stored family is the single source of truth.  All
coordinates of a representation tuple share one ChainTower/HilbertTower,
which keeps every mixed tensor word in literally identical bases.

The checks that depend on the tuple alone (the doubly-commuting and
condition-(b) reports, T22's direct hypothesis) and the alpha-indexed
constants (W_alpha, its reducing checks and its GWS items) are measured
once per tuple by ``_linalg._cached``, under the validated alpha.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ._linalg import DEFAULT_TOL, _cached, as_complex, dagger, eye_like, frozen, max_op_norm, op_norm, scale_of
from .algebra import StarRepresentation
from .correspondence import ChainTower, HilbertTower
from .covrep import CovariantRep
from .errors import CommutationViolation, ShapeMismatch
from .reporting import CheckItem, TheoremReport, ValidationReport
from .wold import (
    Subspace,
    _angle_item,
    _generates,
    _require_sigma_invariant,
    _sigma_check,
    _step,
    _translate,
    check_invariant,
    check_reducing,
    invariant_closure,
    wandering_subspace,
)


def validate_alpha(alpha, k: int) -> tuple[int, ...]:
    """Normalize a coordinate subset to a sorted tuple of 0-based indices."""
    alpha = tuple(sorted(set(int(i) for i in alpha)))
    if not alpha:
        raise ShapeMismatch("alpha must be a nonempty subset of coordinates")
    if alpha[0] < 0 or alpha[-1] >= k:
        raise ShapeMismatch(f"alpha {alpha} out of range for k={k}")
    return alpha


def multi_word(alpha, m) -> tuple[int, ...]:
    """The tensor word of the multi-index m over alpha, coordinate order
    as written: alpha_1 outermost (leftmost)."""
    if len(alpha) != len(m):
        raise ShapeMismatch("multi-index length does not match alpha")
    word: tuple[int, ...] = ()
    for i, mi in zip(alpha, m):
        if mi < 0:
            raise ShapeMismatch("multi-index entries must be >= 0")
        word += (i,) * int(mi)
    return word


class ProductSystem:
    """Correspondences E_1..E_k with unitary flips t_{i,j} (stored for i > j).

    Every flip is read-only, copied from the caller's array when it is one,
    so the checks cached on a representation of the system stay true."""

    def __init__(self, correspondences, flips, tol: float = DEFAULT_TOL, chain: ChainTower | None = None):
        self.correspondences = tuple(correspondences)
        self.k = len(self.correspondences)
        self.tol = tol
        self.chain = chain if chain is not None else ChainTower(self.correspondences, tol)
        self.flips = {}
        for (i, j), given in dict(flips).items():
            if not (0 <= j < i < self.k):
                raise ShapeMismatch(f"flips are stored for i > j only, got ({i},{j})")
            mat = as_complex(given)
            want = (self.chain.corr((j, i)).dim, self.chain.corr((i, j)).dim)
            if mat.shape != want:
                raise ShapeMismatch(f"flip ({i},{j}) must have shape {want}, got {mat.shape}")
            self.flips[(i, j)] = frozen(mat, given)
        missing = [(i, j) for i in range(self.k) for j in range(i) if (i, j) not in self.flips]
        if missing:
            raise ShapeMismatch(f"missing flips for pairs {missing}")

    @property
    def algebra(self):
        return self.chain.algebra

    def flip(self, i: int, j: int) -> np.ndarray:
        """t_{i,j} : E_i (x) E_j -> E_j (x) E_i on the quotients."""
        if i == j:
            return eye_like(self.chain.corr((i, i)).dim)
        if i > j:
            return self.flips[(i, j)]
        return np.linalg.inv(self.flips[(j, i)])


def validate_product_system(ps: ProductSystem) -> ValidationReport:
    """Unitarity, inverse pairing, and bimodule equivariance of every flip."""
    items = []
    for i in range(ps.k):
        for j in range(i):
            t = ps.flip(i, j)
            cij = ps.chain.corr((i, j))
            cji = ps.chain.corr((j, i))
            bound = ps.tol * scale_of(t, cij.gram.reshape(cij.dim * cij.dim, -1) if cij.dim else t)
            uni = max(
                op_norm(dagger(t) @ t - eye_like(cij.dim)),
                op_norm(t @ dagger(t) - eye_like(cji.dim)),
            )
            inv = op_norm(ps.flip(j, i) @ t - eye_like(cij.dim))
            pulled = np.einsum("ca,db,cdk->abk", np.conj(t), t, cji.gram)
            gram = float(np.max(np.abs(pulled - cij.gram))) if cij.dim else 0.0
            act = max(
                max_op_norm(t @ cij.left_action - cji.left_action @ t),
                max_op_norm(t @ cij.right_action - cji.right_action @ t),
            )
            tag = f"{i+1},{j+1}"
            items.append(CheckItem(f"flip_unitary_{tag}", uni <= bound, uni))
            items.append(CheckItem(f"flip_inverse_{tag}", inv <= bound, inv))
            items.append(CheckItem(f"flip_gram_{tag}", gram <= bound, gram))
            items.append(CheckItem(f"flip_bimodule_{tag}", act <= bound, act))
    return ValidationReport("product_system", tuple(items))


class ProductRep:
    """A tuple (sigma, T^(1), ..., T^(k)) satisfying the commutation relation.

    Coordinates are CovariantRep objects sharing one HilbertTower, so mixed
    words like E_i (x) E_j (x) H have a single realization for all of them.
    """

    def __init__(self, system: ProductSystem, sigma: StarRepresentation, T_list, *,
                 tol: float | None = None, meta: dict | None = None):
        if len(T_list) != system.k:
            raise ShapeMismatch(f"expected {system.k} coordinate maps, got {len(T_list)}")
        self.system = system
        self.sigma = sigma
        self.tol = tol if tol is not None else min(system.tol, sigma.tol)
        self.meta = dict(meta or {})
        self.hilb = HilbertTower(system.chain, sigma)
        # the constants of the tuple, under (qualified function name, *args) (see _cached)
        self._cache: dict = {}
        self.reps = tuple(
            CovariantRep(
                sigma,
                system.correspondences[i],
                T_list[i],
                tol=self.tol,
                chain=system.chain,
                hilb=self.hilb,
                letter=i,
            )
            for i in range(system.k)
        )
        rep_check = self.validate_commutation()
        if not rep_check.passed:
            worst = rep_check.max_violation
            raise CommutationViolation(
                f"tuple violates the product-system commutation relation ({worst:.3e})"
            )

    @property
    def k(self) -> int:
        return self.system.k

    @property
    def hdim(self) -> int:
        return self.sigma.hilbert_dim

    def rep(self, i: int) -> CovariantRep:
        return self.reps[i]

    def flip_op(self, i: int, j: int) -> np.ndarray:
        """(t_{i,j} (x) I_H) : space((i,j)) -> space((j,i))."""
        _, mat = self.hilb.flip_op((i, j), 0, self.system.flip(i, j))
        return mat

    def _factor(self, word) -> np.ndarray:
        """I (x) T~(last letter) : space(word) -> space(word[:-1]), cached by that coordinate."""
        return self.reps[word[-1]].factor(word)

    @property
    def scale(self) -> float:
        """The largest coordinate scale, the relative-tolerance scale of the tuple."""
        return max((r.scale for r in self.reps), default=1.0)

    def commutation_residual(self, i: int, j: int) -> float:
        """Residual of T~(i)(I (x) T~(j)) = T~(j)(I (x) T~(i))(t_{i,j} (x) I)."""
        lhs = self.reps[i].tilde @ self._factor((i, j))
        rhs = self.reps[j].tilde @ self._factor((j, i)) @ self.flip_op(i, j)
        return op_norm(lhs - rhs)

    def validate_commutation(self) -> ValidationReport:
        items = []
        bound = self.tol * self.scale
        for i in range(self.k):
            for j in range(i + 1, self.k):
                res = self.commutation_residual(i, j)
                items.append(CheckItem(f"commutation_{i+1},{j+1}", res <= bound, res))
        return ValidationReport("product_rep", tuple(items))

    # -- doubly commuting ---------------------------------------------------------

    def doubly_residual(self, i: int, j: int) -> float:
        """Residual of T~(j)* T~(i) = (I (x) T~(i))(t_{i,j} (x) I)(I (x) T~(j)*)."""
        lhs = dagger(self.reps[j].tilde) @ self.reps[i].tilde
        rhs = self._factor((j, i)) @ self.flip_op(i, j) @ dagger(self._factor((i, j)))
        return op_norm(lhs - rhs)

    def defect_commutator_residual(self, i: int, j: int) -> float:
        """Commutator of the co-isometry defects T~(i) T~(i)* and T~(j) T~(j)*."""
        ci = self.reps[i].tilde @ dagger(self.reps[i].tilde)
        cj = self.reps[j].tilde @ dagger(self.reps[j].tilde)
        return op_norm(ci @ cj - cj @ ci)

    @_cached
    def check_doubly_commuting(self) -> ValidationReport:
        """Pair residuals for the adjoint-commutation identity, together with
        the derived commuting-defect identity; doubly commuting instances
        must pass the derived identity as well.  Measured once per tuple."""
        items = []
        bound = self.tol * self.scale
        doubly_all = True
        for i in range(self.k):
            for j in range(self.k):
                if i == j:
                    continue
                res = self.doubly_residual(i, j)
                ok = res <= bound
                doubly_all = doubly_all and ok
                items.append(CheckItem(f"doubly_{i+1},{j+1}", ok, res))
        eqn_ok = True
        for i, j in combinations(range(self.k), 2):
            res = self.defect_commutator_residual(i, j)
            ok = res <= bound
            eqn_ok = eqn_ok and ok
            items.append(CheckItem(f"defects_commute_{i+1},{j+1}", ok, res))
        implication = (not doubly_all) or eqn_ok
        items.append(
            CheckItem("doubly_implies_defects_commute", implication, 0.0 if implication else 1.0)
        )
        return ValidationReport("doubly_commuting", tuple(items))

    def is_doubly_commuting(self) -> bool:
        return doubly_flag(self.check_doubly_commuting())


def doubly_flag(report: ValidationReport) -> bool:
    """Whether a ``check_doubly_commuting`` report certifies doubly commuting:
    every item named ``doubly_*`` passes."""
    return all(i.passed for i in report.items if i.name.startswith("doubly_"))


# -- alpha-indexed subspaces -------------------------------------------------------


def wandering_alpha(pr: ProductRep, alpha) -> Subspace:
    """W_alpha: intersection of the coordinate wandering subspaces."""
    return _joint_wandering(pr, validate_alpha(alpha, pr.k))


@_cached
def _joint_wandering(pr: ProductRep, alpha: tuple[int, ...]) -> Subspace:
    """W_alpha for a validated alpha, once per alpha."""
    out = wandering_subspace(pr.rep(alpha[0]))
    for i in alpha[1:]:
        out = out.intersect(wandering_subspace(pr.rep(i)))
    return out


def script_L_alpha(pr: ProductRep, alpha, m, K: Subspace) -> Subspace:
    """L^alpha_m(K): closure of T~^alpha_m (E(m) (x) K).

    T~ along the word of m is the composite of its coordinate factors, so
    this is L^(alpha_1)_(m_1) ... L^(alpha_last)_(m_last)(K), innermost
    (last) coordinate first."""
    alpha = validate_alpha(alpha, pr.k)
    if multi_word(alpha, m) == ():
        return K
    _require_sigma_invariant(_sigma_check(pr.sigma, pr.tol, K))
    out = K
    for i, mi in reversed(tuple(zip(alpha, m))):
        if mi:
            out = _translate(pr.rep(i), mi, out)
    return out


def invariant_closure_alpha(pr: ProductRep, alpha, K: Subspace) -> Subspace:
    """[K]_{T_alpha}: iterated single-coordinate closures, innermost last
    coordinate first; order independence is a consequence of the
    commutation relation and is asserted separately in the test suite."""
    alpha = validate_alpha(alpha, pr.k)
    out = K
    for i in reversed(alpha):
        out = invariant_closure(pr.rep(i), out)
    return out


def alpha_translates(pr: ProductRep, alpha, K: Subspace) -> Subspace:
    """Span of L^alpha_m(K) over all multi-indices m != 0: the sum over i
    in alpha of L^(i)_1([K]_{T_alpha}).

    Every m != 0 has some m_i >= 1, and for such an i the commutation
    relation (unitary flips) gives L^alpha_m(K) = L^(i)_1(L^alpha_{m - e_i}(K));
    conversely L^(i)_1(L^alpha_m(K)) = L^alpha_{m + e_i}(K).  So the span is
    the sum over i of L^(i)_1 applied to the sum of all L^alpha_m(K), which
    is [K]_{T_alpha}."""
    alpha = validate_alpha(alpha, pr.k)
    return _first_translates(pr, alpha, invariant_closure_alpha(pr, alpha, K))


def _first_translates(pr: ProductRep, alpha, closure: Subspace) -> Subspace:
    """The sum over i in alpha of L^(i)_1(closure), for a sigma-invariant closure."""
    total = Subspace.zero(pr.hdim)
    for i in alpha:
        total = total + _step(pr.rep(i), closure)
    return total


# -- section 4 verifiers --------------------------------------------------------------


def _nonempty_subsets(k: int):
    out = []
    for size in range(1, k + 1):
        out.extend(combinations(range(k), size))
    return out


def _tag(alpha) -> str:
    """The 1-based set notation of a coordinate subset, as in report names."""
    return "{" + ",".join(str(i + 1) for i in alpha) + "}"


def _doubly_item(pr: ProductRep) -> CheckItem:
    """The doubly-commuting hypothesis, from one ``check_doubly_commuting``."""
    doubly = pr.check_doubly_commuting()
    return CheckItem("doubly_commuting", doubly_flag(doubly), doubly.max_violation)


def _p21_conclusions(pr: ProductRep, alpha) -> tuple[tuple[CheckItem, ...], int]:
    """Reducing checks of W_alpha for the coordinates outside a validated
    alpha, and dim W_alpha."""
    W = _joint_wandering(pr, alpha)
    conclusions = []
    outside = [j for j in range(pr.k) if j not in alpha]
    if not outside:
        conclusions.append(CheckItem("no_outside_coordinates", True, 0.0, vacuous=True))
    for j in outside:
        red = _alpha_reducing(pr, alpha, j)
        conclusions.append(CheckItem(f"W_alpha_reducing_for_{j+1}", red.passed, red.residual))
    return tuple(conclusions), W.dim


@_cached
def _alpha_reducing(pr: ProductRep, alpha: tuple[int, ...], j: int):
    """Whether W_alpha reduces coordinate j, once per validated alpha and j."""
    return check_reducing(pr.rep(j), _joint_wandering(pr, alpha))


def verify_P21(pr: ProductRep, alpha) -> TheoremReport:
    """W_alpha is reducing for every coordinate outside alpha."""
    alpha = validate_alpha(alpha, pr.k)
    hyp = _doubly_item(pr)
    conclusions, w_dim = _p21_conclusions(pr, alpha)
    return TheoremReport("P21", hypotheses=(hyp,), conclusions=conclusions, dims={"W_alpha": w_dim})


def verify_P21_all(pr: ProductRep) -> TheoremReport:
    """verify_P21 for every nonempty alpha, conclusions tagged by alpha; the
    alpha-independent hypothesis is evaluated once."""
    hyp = (_doubly_item(pr),)
    concl: tuple = ()
    dims: dict = {}
    for alpha in _nonempty_subsets(pr.k):
        items, w_dim = _p21_conclusions(pr, alpha)
        tag = _tag(alpha)
        concl += tuple(CheckItem(f"{tag}:{i.name}", i.passed, i.residual, i.vacuous) for i in items)
        dims[f"W_{tag}"] = w_dim
    return TheoremReport("p21", hypotheses=hyp, conclusions=concl, dims=dims)


@_cached
def _gws_items(pr: ProductRep, alpha: tuple[int, ...]) -> tuple[tuple[CheckItem, ...], tuple]:
    """Wandering + generating checks for W_alpha, plus the stepwise identity,
    and the ``(name, dim)`` pair of W_alpha, measured once per validated alpha.

    [W_alpha]_{T_alpha} is built once.  Its first step, the closure of
    W_alpha under the last coordinate of alpha, is also the stepwise
    closure that drops that coordinate, and is reused for that item."""
    W = wandering_alpha(pr, alpha)
    *outer, last = alpha
    first = invariant_closure(pr.rep(last), W)
    closure = invariant_closure_alpha(pr, outer, first) if outer else first
    translates = _first_translates(pr, alpha, closure)
    tag = _tag(alpha)
    wander_res = (
        op_norm(dagger(W.basis) @ translates.basis) if W.dim and translates.dim else 0.0
    )
    bound = pr.tol * pr.scale
    items = [
        CheckItem(f"wandering_{tag}", wander_res <= bound, wander_res),
        _angle_item(f"generating_{tag}", closure, Subspace.full(pr.hdim)),
    ]
    if outer:
        for i in alpha:
            rest = tuple(a for a in alpha if a != i)
            lhs = first if i == last else invariant_closure(pr.rep(i), W)
            items.append(_angle_item(f"step_{tag}_drop_{i+1}", lhs, wandering_alpha(pr, rest)))
    return tuple(items), ((f"W_{tag}", W.dim),)


def _gws_all_alpha(pr: ProductRep) -> tuple[list[CheckItem], dict]:
    """The GWS items of every nonempty alpha, in order, and the dims of the W_alpha."""
    items: list[CheckItem] = []
    dims: dict = {}
    for alpha in _nonempty_subsets(pr.k):
        a_items, d = _gws_items(pr, alpha)
        items.extend(a_items)
        dims.update(d)
    return items, dims


def _concave_or_shimorin(pr: ProductRep, i: int) -> CheckItem:
    """Coordinate i is concave or Shimorin; vacuous when only a vacuous concavity holds."""
    r = pr.rep(i)
    concave = r.check_concave()
    shim = r.check_shimorin()
    return CheckItem(
        f"coordinate_{i+1}_concave_or_shimorin",
        concave.passed or shim.passed,
        min(concave.residual, shim.residual),
        vacuous=concave.vacuous and concave.passed and not shim.passed,
        detail=f"concave={concave.passed} shimorin={shim.passed}",
    )


def _c23_hypothesis(pr: ProductRep) -> list[CheckItem]:
    items = []
    for i in range(pr.k):
        items.append(_concave_or_shimorin(pr, i))
        analytic = pr.rep(i).check_analytic().passed
        items.append(CheckItem(f"coordinate_{i+1}_analytic", analytic, 0.0 if analytic else 1.0))
    return items


@_cached
def _direct_hypothesis(pr: ProductRep) -> tuple[CheckItem, ...]:
    """T22's direct surrogate on the reducing subspaces K that actually occur
    in the recursion, H itself and every W_beta with beta not containing the
    coordinate: K is invariant and Richter's W_K generates it.  Measured once
    per tuple."""
    items = []
    subsets = _nonempty_subsets(pr.k)
    for i in range(pr.k):
        rep = pr.rep(i)
        candidates = [("H", Subspace.full(pr.hdim))]
        candidates += [
            (f"W_{_tag(beta)}", wandering_alpha(pr, beta)) for beta in subsets if i not in beta
        ]
        for name, K in candidates:
            label = f"gws_{i+1}_on_{name}"
            if K.dim == 0:
                items.append(CheckItem(label, True, 0.0, vacuous=True))
            elif not check_invariant(rep, K).passed:
                items.append(CheckItem(label, False, 1.0, detail="subspace not invariant"))
            else:
                ok = _generates(rep, K)
                items.append(CheckItem(label, ok, 0.0 if ok else 1.0))
    return tuple(items)


def verify_T22(pr: ProductRep) -> TheoremReport:
    """Generating wandering subspace W_alpha for every nonempty alpha.

    The theorem's hypothesis quantifies over all reducing subspaces, which
    is not computable, so a decidable surrogate stands in for it: first the
    per-coordinate concave-or-Shimorin + analytic sufficient conditions
    ("c23"); when those fail, the hypothesis checked on the finitely many
    reducing subspaces K the recursion actually visits ("direct"): whether
    Richter's W_K = K (-) T~(E (x) K), measured inside H, generates K.  The
    surrogate used is the evaluated item ``hypothesis_strategy_*``.
    """
    doubly_item = _doubly_item(pr)
    gate = _c23_hypothesis(pr)
    used = "c23"
    if not all(item.passed for item in gate):
        gate = _direct_hypothesis(pr)
        used = "direct"
    hypotheses = (doubly_item, *gate)
    conclusions, dims = _gws_all_alpha(pr)
    return TheoremReport(
        "T22",
        hypotheses=hypotheses,
        conclusions=tuple(conclusions),
        dims=dims,
        evaluated=(CheckItem(f"hypothesis_strategy_{used}", True, 0.0),),
    )


@_cached
def check_T24_condition_b(pr: ProductRep) -> ValidationReport:
    """Residuals of the flip-intertwining identity (b), one per pair i < j,
    measured once per tuple."""
    items = []
    bound = pr.tol * pr.scale
    for i, j in combinations(range(pr.k), 2):
        fij = pr._factor((i, j))
        fji = pr._factor((j, i))
        flip = pr.flip_op(i, j)
        lhs = fji @ flip @ (dagger(fij) @ fij)
        rhs = pr.rep(j).gram_tilde @ fji @ flip
        res = op_norm(lhs - rhs)
        items.append(CheckItem(f"condition_b_{i+1},{j+1}", res <= bound, res))
    return ValidationReport("T24_condition_b", tuple(items))


def verify_T24_equivalence(pr: ProductRep) -> TheoremReport:
    """(doubly commuting and coordinatewise analytic) iff (GWS for all alpha
    with the stepwise identities, and condition (b)).

    All four booleans are always evaluated; the biconditional is the
    asserted conclusion, and the per-coordinate concave-or-Shimorin
    hypothesis gates only whether the theorem claims it.
    """
    hyp_items = tuple(_concave_or_shimorin(pr, i) for i in range(pr.k))
    one = pr.is_doubly_commuting()
    two = all(pr.rep(i).check_analytic().passed for i in range(pr.k))
    a_items, dims = _gws_all_alpha(pr)
    a_ok = all(item.passed for item in a_items)
    b_report = check_T24_condition_b(pr)
    b_ok = b_report.passed

    equiv = (one and two) == (a_ok and b_ok)
    evaluated = (
        CheckItem("(1)_doubly_commuting", one, 0.0 if one else 1.0),
        CheckItem("(2)_coordinates_analytic", two, 0.0 if two else 1.0),
        CheckItem("(a)_gws_all_alpha", a_ok, 0.0 if a_ok else 1.0),
        CheckItem("(b)_flip_intertwining", b_ok, b_report.max_violation),
    )
    return TheoremReport(
        "T24",
        hypotheses=hyp_items,
        conclusions=(CheckItem("equivalence", equiv, 0.0 if equiv else 1.0),),
        dims=dims,
        evaluated=evaluated,
    )
