"""Independent brute-force oracles used to cross-check the library.

Everything here works directly on the raw data of an instance (the T
matrices, the representation images, adjacency matrices) with plain
numpy, deliberately avoiding the package's quotient machinery.
"""

import json
from itertools import combinations, product as iter_product

import numpy as np

from covrep._linalg import dagger, gram_quotient, op_norm, orth_cols, scale_of, screened_op_norm
from covrep.errors import NotConcave, NotInvariant
from covrep.product import multi_word, validate_alpha, wandering_alpha
from covrep.reporting import CheckItem, ValidationReport
from covrep.wold import Subspace, image, invariant_closure, wandering_subspace


def orth(cols, tol=1e-10):
    cols = np.asarray(cols, dtype=complex)
    if cols.size == 0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s.size == 0 or s[0] == 0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    return u[:, s > tol * max(1.0, s[0])]


def projector(basis):
    return basis @ basis.conj().T


def subspaces_equal(a, b, tol=1e-7):
    if a.shape[1] != b.shape[1]:
        return False
    return np.linalg.norm(projector(a) - projector(b), 2) <= tol


def t_span(T_mats, basis):
    """span { T_i v : v in basis } as an orthonormal basis."""
    n = T_mats[0].shape[0] if len(T_mats) else basis.shape[0]
    cols = [T @ basis for T in T_mats]
    return orth(np.hstack(cols) if cols else np.zeros((n, 0), dtype=complex))


def span_closure(T_mats, K_basis, max_iter=64):
    """Smallest T-invariant subspace containing K, by plain span iteration."""
    basis = orth(K_basis)
    for _ in range(max_iter):
        stacked = np.hstack([basis] + [T @ basis for T in T_mats])
        nxt = orth(stacked)
        if nxt.shape[1] == basis.shape[1]:
            return nxt
        basis = nxt
    return basis


def script_L_oracle(T_mats, K_basis, n):
    """L_n(K) by iterated one-step spans."""
    basis = orth(K_basis)
    for _ in range(n):
        basis = t_span(T_mats, basis)
    return basis


def h_infinity_oracle(T_mats, dim):
    """Intersection of the decreasing ranges span{T(xi_1)...T(xi_n) h}."""
    basis = np.eye(dim, dtype=complex)
    for _ in range(dim + 1):
        nxt = t_span(T_mats, basis)
        if nxt.shape[1] == basis.shape[1]:
            return nxt
        basis = nxt
    return basis


def wandering_oracle(T_mats, dim):
    """ker T~* = orthogonal complement of the joint column span of the T_i."""
    cols = np.hstack([T for T in T_mats]) if len(T_mats) else np.zeros((dim, 0), complex)
    ran = orth(cols)
    _, s, vh = np.linalg.svd(np.eye(dim, dtype=complex) - projector(ran))
    return orth(np.eye(dim, dtype=complex) - projector(ran))


def adjacency(graph):
    """Edge-count matrix of a ``DirectedGraph``: entry (s, t) counts the
    edges from s to t."""
    adj = np.zeros((graph.vertices, graph.vertices), dtype=int)
    for s, t in graph.edges:
        adj[s, t] += 1
    return adj


def failures(report):
    """The failing items of a ``ValidationReport``."""
    return tuple(item for item in report.items if not item.passed)


def path_count(adjacency, n):
    """Number of directed paths of length n, by adjacency-matrix powers."""
    power = np.linalg.matrix_power(adjacency.astype(object), n)
    return int(np.sum(power))


def energy_identity(rep, basis, n: int) -> float:
    """Max deviation from the energy identity |h|^2 = sum |(I (x) P) L^j h|^2
    + |L^n h|^2 + sum |(I (x) D) L^j h|^2 over an orthonormal basis of the
    invariant subspace spanned by ``basis``, with the library's operators on
    the restriction: P, L^n, the defect D and the tower's tensor maps."""
    sub = rep.restrict(basis)
    conc = sub.check_concave()
    if not conc.passed:
        raise NotConcave("restriction is not concave")
    exp = sub.check_expansive()
    if not exp.passed:
        # vacuous concavity, or concavity on a truncated model that no
        # longer reaches every fiber direction, does not make T~*T~ >= I
        raise NotConcave(
            "restriction is concave only formally and not expansive; defect undefined"
        )
    sub._require_left_invertible()
    m = sub.hdim
    if m == 0:
        return 0.0
    D = sub.defect_operator()
    P = sub.P
    totals = np.zeros(m)
    for j in range(n):
        mat = sub.hilb.tensor_op(sub.word(j), P) @ sub.L_n(j)
        totals += np.sum(np.abs(mat) ** 2, axis=0)
    totals += np.sum(np.abs(sub.L_n(n)) ** 2, axis=0)
    for j in range(1, n + 1):
        mid = sub.hilb.mid_op_at(sub.word(j - 1), sub.letter, D) if j > 1 else D
        mat = mid @ sub.L_n(j)
        totals += np.sum(np.abs(mat) ** 2, axis=0)
    return float(np.max(np.abs(totals - 1.0)))


def doubly_commuting_oracle(A, B, tol=1e-9):
    """Classical matrix test for a scalar pair: A B = B A and A* B = B A*."""
    scale = 1.0 + max(np.linalg.norm(A, 2), np.linalg.norm(B, 2)) ** 2
    comm = np.linalg.norm(A @ B - B @ A, 2)
    star = np.linalg.norm(A.conj().T @ B - B @ A.conj().T, 2)
    return comm <= tol * scale and star <= tol * scale


def shimorin_vector_oracle(A, rng, samples=200, slack=1e-9):
    """Sampled form of |A x + y|^2 <= 2 (|x|^2 + |A y|^2) for a single matrix."""
    n = A.shape[0]
    for _ in range(samples):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.linalg.norm(A @ x + y) ** 2
        rhs = 2.0 * (np.linalg.norm(x) ** 2 + np.linalg.norm(A @ y) ** 2)
        if lhs > rhs + slack * (1.0 + rhs):
            return False
    return True


# -- dense Kronecker formulas -----------------------------------------------------
#
# The tensor-extended maps of covrep.correspondence written with materialised
# np.kron identity factors.  They read the quotient bases (push, lift) of the
# towers they are given, and rebuild every I (x) X and X (x) I densely, so the
# library's reshape-based application can be compared against them.


def _eye(n):
    return np.eye(n, dtype=complex)


def _prod(dims):
    return int(np.prod(dims, dtype=int))


def dense_unfold_tail(chain, word, p):
    mat = _eye(chain.corr(word).dim)
    tail = 1
    for q in range(len(word), max(p, 1), -1):
        mat = np.kron(chain.step(word[:q]).lift, _eye(tail)) @ mat
        tail *= chain.edim(word[q - 1])
    return mat


def dense_fold_tail(chain, word, p):
    head = chain.corr(word[: max(p, 1)]).dim
    mat = _eye(head * _prod([chain.edim(c) for c in word[max(p, 1):]]))
    for q in range(max(p, 1) + 1, len(word) + 1):
        rest = _prod([chain.edim(c) for c in word[q:]])
        mat = np.kron(chain.step(word[:q]).push, _eye(rest)) @ mat
    return mat


def dense_prepend(chain, word, letter, xi):
    if not word:
        return chain.prepend((), letter, xi)  # the right action, no identity factor
    target = (letter,) + word
    if len(word) == 1:
        return chain.step(target).push @ np.kron(xi[:, None], _eye(chain.edim(word[0])))
    inner = dense_prepend(chain, word[:-1], letter, xi)
    raw = np.kron(inner, _eye(chain.edim(word[-1])))
    return chain.step(target).push @ raw @ chain.step(word).lift


def dense_flip_at(chain, word, p, tmat):
    i, j = word[p], word[p + 1]
    new_word = word[:p] + (j, i) + word[p + 2:]
    head = chain.corr(word[:p]).dim if p >= 1 else 1
    tail = _prod([chain.edim(c) for c in word[p + 2:]])
    two_alg = chain.step((j, i)).lift @ tmat @ chain.step((i, j)).push
    mid = np.kron(np.kron(_eye(head), two_alg), _eye(tail))
    return new_word, dense_fold_tail(chain, new_word, p) @ mid @ dense_unfold_tail(chain, word, p)


def dense_factor(hilb, word, theta):
    n = hilb.hdim
    if len(word) == 1:
        return theta @ hilb.space(word).lift
    prefix = word[:-1]
    mid = np.kron(_eye(hilb.chain.corr(prefix).dim), theta)
    expand = np.kron(hilb.chain.step(word).lift, _eye(n))
    return hilb.space(prefix).push @ mid @ expand @ hilb.space(word).lift


def dense_tensor_op(hilb, word, X):
    sp = hilb.space(word)
    return sp.push @ np.kron(_eye(hilb.chain.corr(word).dim), X) @ sp.lift


def dense_mid_op_at(hilb, word, letter, X):
    one = hilb.space((letter,))
    ext = word + (letter,)
    n = hilb.hdim
    alg_rep = one.lift @ X @ one.push
    sp = hilb.space(ext)
    expand = np.kron(hilb.chain.step(ext).lift, _eye(n))
    contract = np.kron(hilb.chain.step(ext).push, _eye(n))
    mid = np.kron(_eye(hilb.chain.corr(word).dim), alg_rep)
    return sp.push @ contract @ mid @ expand @ sp.lift


def dense_flip_op(hilb, word, p, tmat):
    new_word, mat = dense_flip_at(hilb.chain, word, p, tmat)
    src, dst = hilb.space(word), hilb.space(new_word)
    return new_word, dst.push @ np.kron(mat, _eye(hilb.hdim)) @ src.lift


def dense_rep_image(fh, a_coords):
    out = np.zeros((fh.dim, fh.dim), dtype=complex)
    for n in fh.indices:
        sp = fh.spaces[n]
        o, d = fh.offsets[n], sp.quotient_dim
        phi = fh.chain.corr(fh.words[n]).phi(a_coords)
        out[o : o + d, o : o + d] = sp.push @ np.kron(phi, _eye(fh.sigma.hilbert_dim)) @ sp.lift
    return out


def dense_creation(fh, letter, xi):
    """Prepend xi, then flip the new letter past the lower letters one
    position at a time; the top levels of the letter go to zero."""
    c = fh.letters.index(letter)
    out = np.zeros((fh.dim, fh.dim), dtype=complex)
    for n in fh.indices:
        if n[c] == fh.depths[c]:
            continue
        target = tuple(v + 1 if i == c else v for i, v in enumerate(n))
        mat = dense_prepend(fh.chain, fh.words[n], letter, xi)
        cur = (letter,) + fh.words[n]
        for p in range(sum(n[:c])):
            cur, f = dense_flip_at(fh.chain, cur, p, fh.flip(cur[p], cur[p + 1]))
            mat = f @ mat
        src, dst = fh.spaces[n], fh.spaces[target]
        block = dst.push @ np.kron(mat, _eye(fh.sigma.hilbert_dim)) @ src.lift
        out[fh.offsets[target] : fh.offsets[target] + dst.quotient_dim,
            fh.offsets[n] : fh.offsets[n] + src.quotient_dim] = block
    return out


# -- the tower construction of the rank-1 lattice ----------------------------------------
#
# L_n(K) through the n-th level of the HilbertTower, and H_inf through the
# ranges of the composites T~_n: the constructions the library's one-step
# recursion L_n(K) = L_1(L_{n-1}(K)), L_1(K) = span T(xi_i) K, replaced.


def tower_translate(rep, n, K):
    """L_n(K) = T~_n (E^{(x)n} (x) K): the range of I (x) P_K on the n-th
    tower level, cut at 0.5, mapped by the composite T~_n."""
    if n == 0:
        return K
    word = rep.word(n)
    if rep.hilb.dim(word) == 0:
        return Subspace.zero(K.ambient_dim)
    carrier = orth_cols(rep.hilb.tensor_op(word, K.projector()), 0.5)
    return image(rep.tilde_n(n) @ carrier)


def tower_h_infinity(rep):
    """The intersection of the decreasing ranges of the composites T~_n."""
    prev = Subspace.full(rep.hdim)
    for n in range(1, rep.hdim + 2):
        cur = image(rep.tilde_n(n))
        if cur.dim == prev.dim and prev.contains(cur):
            return cur
        prev = cur
    return prev


# -- the word sweep of the rank-k lattice ----------------------------------------------
#
# L^alpha_m(K) through T~ of the whole tensor word of m, and the span of the
# L^alpha_m(K) over the box of multi-indices m != 0 up to each coordinate's
# depth, so the library's coordinatewise translates can be compared against them.


def tilde_word(pr, word):
    """T~ along a tensor word, outermost letter first: the composite of the
    coordinate factors I (x) T~ of its prefixes."""
    word = tuple(word)
    out = np.eye(pr.hdim, dtype=complex)
    for q in range(1, len(word) + 1):
        out = out @ pr.rep(word[q - 1]).factor(word[:q])
    return out


def word_translate(pr, word, K):
    """Closure of T~_word (E(word) (x) K) inside H, for a sigma-invariant K."""
    if pr.hilb.dim(word) == 0:
        return Subspace.zero(K.ambient_dim)
    carrier = orth_cols(dense_tensor_op(pr.hilb, word, K.projector()), 0.5)
    return image(tilde_word(pr, word) @ carrier)


def script_L_alpha_word(pr, alpha, m, K):
    """L^alpha_m(K) along the word of m, alpha_1 outermost."""
    word = multi_word(validate_alpha(alpha, pr.k), m)
    return K if word == () else word_translate(pr, word, K)


def coordinate_depth(pr, i):
    """Smallest m with L^(i)_m(H) = 0, capped at dim H."""
    n = pr.hdim
    for m in range(1, n + 1):
        if image(pr.rep(i).tilde_n(m)).dim == 0:
            return m
    return n


def alpha_translates_sweep(pr, alpha, K):
    """Span of L^alpha_m(K) over the multi-indices m != 0 with m_i at most
    the depth of coordinate i."""
    alpha = validate_alpha(alpha, pr.k)
    caps = [coordinate_depth(pr, i) for i in alpha]
    total = Subspace.zero(pr.hdim)
    for m in iter_product(*(range(c + 1) for c in caps)):
        if any(m):
            total = total + word_translate(pr, multi_word(alpha, m), K)
    return total


# -- the direct hypothesis of T22 on restricted representations ------------------


def direct_hypothesis_restricted(pr):
    """The gws_{i}_on_{K} items of T22's direct hypothesis, each measured on
    the restriction of coordinate i to K: W of the restriction generates it."""
    items = []
    subsets = [beta for size in range(1, pr.k + 1) for beta in combinations(range(pr.k), size)]
    for i in range(pr.k):
        candidates = [("H", Subspace.full(pr.hdim))]
        for beta in subsets:
            if i not in beta:
                tag = "{" + ",".join(str(b + 1) for b in beta) + "}"
                candidates.append((f"W_{tag}", wandering_alpha(pr, beta)))
        for name, K in candidates:
            label = f"gws_{i+1}_on_{name}"
            if K.dim == 0:
                items.append(CheckItem(label, True, 0.0, vacuous=True))
                continue
            try:
                sub = pr.rep(i).restrict(K.basis)
            except NotInvariant:
                items.append(CheckItem(label, False, 1.0, detail="subspace not invariant"))
                continue
            ok = invariant_closure(sub, wandering_subspace(sub)).equals(Subspace.full(K.dim))
            items.append(CheckItem(label, ok, 0.0 if ok else 1.0))
    return items


def dense_phi_on_tensor(rep, k):
    sp = rep.space(1)
    return sp.push @ np.kron(rep.E.left_action[k], _eye(rep.hdim)) @ sp.lift


def dense_scalar_gram(E, F):
    """The scalar semi-Gram of the algebraic tensor E (x) F, index (i, p) at
    i * dim F + p: the trace of <g_p, phi_F(<f_i, f_j>) g_q>, whose algebra
    coordinates are summed over the diagonal units."""
    f = F.dim
    out = np.zeros((E.dim * f, E.dim * f), dtype=complex)
    for i in range(E.dim):
        for j in range(E.dim):
            phi = F.phi(E.gram[i, j])
            # <g_p, phi g_q> = sum_m phi[m, q] <g_p, g_m>
            block = np.einsum("mq,pmk,k->pq", phi, F.gram, E.algebra.one)
            out[i * f : (i + 1) * f, j * f : (j + 1) * f] = block
    return out


def dense_interior_tensor_with_rep(E, sigma):
    """``(push, lift, kernel, gram)`` of E (x)_sigma H from one decomposition
    of the dense (e n)^2 sigma-twisted Gram <xi (x) h, eta (x) k> =
    <h, sigma(<xi, eta>) k>, without the multiplicity basis of sigma."""
    n = sigma.hilbert_dim
    gram = np.einsum("ijk,kpq->ipjq", E.gram, sigma.images).reshape(E.dim * n, E.dim * n)
    [(w, v, keep)] = gram_quotient([gram[None]], min(E.tol, sigma.tol))
    w, v, keep = w[0], v[0], keep[0]
    wk, vk = w[keep], v[:, keep]
    return np.sqrt(wk)[:, None] * vk.conj().T, vk * wk ** -0.5, v[:, ~keep], gram


def multiplicity_representation(alg, mults, rng, extra=0):
    """The representation unitarily equal to (+)_b id_{d_b} (x) I_{m_b} (+) 0_extra,
    conjugated by a random unitary; ``extra`` > 0 makes it degenerate."""
    from covrep._linalg import random_unitary
    from covrep.algebra import StarRepresentation

    n = sum(d * m for d, m in zip(alg.block_dims, mults)) + extra
    w = random_unitary(rng, n)
    images = np.zeros((alg.dim, n, n), dtype=complex)
    o = 0
    for b, (d, m) in enumerate(zip(alg.block_dims, mults)):
        for p in range(d):
            for q in range(d):
                unit = np.zeros((d, d))
                unit[p, q] = 1.0
                images[unit_index(alg, b, p, q), o : o + d * m, o : o + d * m] = np.kron(unit, np.eye(m))
        o += d * m
    return StarRepresentation(alg, n, w.conj().T @ images @ w)


def algebra_over_itself(blocks, mults, rng):
    """The covariant representation T(b_k) = sigma(b_k) of the algebra with
    ``blocks`` over itself, sigma of multiplicities ``mults``.  Its Gram
    <b_k, b_l> = b_k* b_l is not symmetric in k and l."""
    from covrep.algebra import MatrixBlocksAlgebra
    from covrep.correspondence import algebra_correspondence
    from covrep.covrep import CovariantRep

    alg = MatrixBlocksAlgebra(blocks)
    sigma = multiplicity_representation(alg, mults, rng)
    return CovariantRep(sigma, algebra_correspondence(alg), sigma.images)


def bimodule_residual_pairs(sigma, E, T):
    """The largest |T(b_k f_i b_l) - sigma(b_k) T(f_i) sigma(b_l)|_2 over
    every pair of algebra units and every basis vector: the bimodule
    relation as the loop over left units that ``CovariantRep`` ran before
    it measured the two one-sided halves, with dense images of sigma."""
    d = E.algebra.dim
    worst = 0.0
    for k in range(d):
        # move[l][:, i] holds the coordinates of b_k f_i b_l
        move = E.left_action[k] @ E.right_action
        for l in range(d):
            lhs = np.tensordot(move[l].T, T, axes=(1, 0))
            rhs = sigma.images[k] @ T @ sigma.images[l]
            worst = max(worst, max((op_norm(x) for x in lhs - rhs), default=0.0))
    return worst


def bimodule_residual_halves(sigma, E, T, tol):
    """The two one-sided halves of the bimodule relation as
    ``covrep._bimodule_residual`` measured them before it split the pairs
    (b_k, f_i) on the zero rows of ``E.one_sided``: each half the dense
    stack of d * e differences in sigma's basis, one n x n matrix per pair,
    judged by ``screened_op_norm``."""
    mult, d = sigma.multiplicity, E.algebra.dim
    e, n = E.dim, sigma.hilbert_dim
    tu = dagger(mult.basis) @ T @ mult.basis
    padded = np.zeros((e, n + 1, n + 1), dtype=complex)
    padded[:, :n, :n] = tu
    # row r of U* sigma(1) U X is row one[r] of X
    one = np.where(np.arange(n) < mult.span, np.arange(n), n)
    # sigma(b_k) X sigma(1): the columns by sigma(1), then the rows by moves[k]
    diff = (E.one_sided[0] @ tu.reshape(e, n * n)).reshape(d, e, n, n)
    diff -= padded[:, :, one][:, mult.moves].transpose(1, 0, 2, 3)
    worst = screened_op_norm(diff, tol)
    if d > 1:
        # sigma(1) X sigma(b_k): the rows by sigma(1), then the columns by
        # the moves of b_k*
        diff = (E.one_sided[1] @ tu.reshape(e, n * n)).reshape(d, e, n, n)
        diff -= padded[:, one][:, :, mult.moves[E.algebra.star_index]].transpose(2, 0, 1, 3)
        worst = max(worst, screened_op_norm(diff, tol))
    return worst


def dense_internal_tensor(E, F, space, gm):
    """Left action, right action and Gram of the quotient E (x) F, from the
    quotient maps of ``space`` and the algebra-valued semi-Gram ``gm``."""
    push, lift = space.push, space.lift
    d = E.algebra.dim
    left = np.stack([push @ np.kron(E.left_action[k], _eye(F.dim)) @ lift for k in range(d)])
    right = np.stack([push @ np.kron(_eye(E.dim), F.right_action[k]) @ lift for k in range(d)])
    gram = np.einsum("xa,yb,xyk->abk", np.conj(lift), lift, gm)
    return left, right, gram


# -- loop validators ---------------------------------------------------------------
#
# The validators of covrep.algebra, covrep.correspondence and covrep.product
# written as plain loops over algebra units, unit pairs and E-basis pairs.
# Products and adjoints of algebra elements are taken block by block from the
# matrices, not from the library's matrix-unit product table, and positivity
# is the smallest eigenvalue of the Hermitian part of the dense faithful
# matrix, so the batched validators can be compared against them item by item.


def unit_index(alg, block, p, q):
    """Index of the matrix unit e^block_pq in the algebra's basis."""
    d = alg.block_dims[block]
    return sum(b * b for b in alg.block_dims[:block]) + p * d + q


def unit_coords(alg, k):
    """Coords of the k-th matrix unit."""
    e = np.zeros(alg.dim, dtype=complex)
    e[k] = 1.0
    return e


def alg_mul(alg, x, y):
    xs, ys = alg.blocks_from_coords(x), alg.blocks_from_coords(y)
    return alg.coords_from_blocks([a @ b for a, b in zip(xs, ys)])


def alg_star(alg, x):
    return alg.coords_from_blocks([b.conj().T for b in alg.blocks_from_coords(x)])


def dense_faithful_stats(gm, alg):
    """Minimum eigenvalue, drift and Hermitian-part norm of the dense
    (n * N)^2 faithful matrix sum_k gm[:, :, k] (x) pi(b_k)."""
    fb = np.stack([alg.faithful(unit_coords(alg, k)) for k in range(alg.dim)])
    size = gm.shape[0] * alg.faithful_dim
    big = np.einsum("xyk,kab->xayb", gm, fb).reshape(size, size)
    herm = (big + big.conj().T) / 2.0
    # both matrices are Hermitian: their spectral norms are their largest
    # |eigenvalues|
    w = np.linalg.eigvalsh(herm)
    return w[0], np.abs(np.linalg.eigvalsh(1j * (big - big.conj().T))).max(), np.abs(w).max()


def algebra_correspondence_arrays(alg):
    """Right action, left action and Gram of the algebra over itself."""
    d = alg.dim
    right = np.zeros((d, d, d), dtype=complex)
    left = np.zeros((d, d, d), dtype=complex)
    gram = np.zeros((d, d, d), dtype=complex)
    for k in range(d):
        uk = unit_coords(alg, k)
        for l in range(d):
            ul = unit_coords(alg, l)
            right[k][:, l] = alg_mul(alg, ul, uk)
            left[k][:, l] = alg_mul(alg, uk, ul)
    for i in range(d):
        si = alg_star(alg, unit_coords(alg, i))
        for j in range(d):
            gram[i, j] = alg_mul(alg, si, unit_coords(alg, j))
    return right, left, gram


def validate_representation(sigma):
    alg = sigma.algebra
    scale = scale_of(sigma.images.reshape(alg.dim, -1))
    bound = sigma.tol * scale

    mult = 0.0
    for k in range(alg.dim):
        for l in range(alg.dim):
            prod = alg_mul(alg, unit_coords(alg, k), unit_coords(alg, l))
            lhs = sigma.apply_coords(prod)
            rhs = sigma.images[k] @ sigma.images[l]
            mult = max(mult, op_norm(lhs - rhs))

    star = 0.0
    for k in range(alg.dim):
        lhs = sigma.apply_coords(alg_star(alg, unit_coords(alg, k)))
        star = max(star, op_norm(lhs - sigma.images[k].conj().T))

    eye = np.eye(sigma.hilbert_dim, dtype=complex)
    nondeg = op_norm(sigma.apply_coords(alg.one) - eye)

    items = (
        CheckItem("multiplicativity", mult <= bound, mult),
        CheckItem("star_preservation", star <= bound, star),
        CheckItem("nondegeneracy", nondeg <= bound, nondeg),
    )
    return ValidationReport("star_representation", items)


def validate_correspondence(E):
    alg = E.algebra
    d, e = alg.dim, E.dim
    scale = scale_of(
        E.gram.reshape(e * e, d), E.left_action.reshape(d * e, e), E.right_action.reshape(d * e, e)
    )
    bound = E.tol * scale

    right_lin = 0.0
    star_sym = 0.0
    adj = 0.0
    hom = 0.0
    module = 0.0
    commute = 0.0
    for k in range(d):
        uk = unit_coords(alg, k)
        phik = E.left_action[k]
        phik_star = E.phi(alg_star(alg, uk))
        rk = E.right_action[k]
        for i in range(e):
            for j in range(e):
                # <f_i, f_j . b_k> = <f_i, f_j> b_k
                lhs = np.einsum("m,mc->c", rk[:, j], E.gram[i])
                rhs = alg_mul(alg, E.gram[i, j], uk)
                right_lin = max(right_lin, float(np.linalg.norm(lhs - rhs)))
                # <phi(b_k) f_i, f_j> = <f_i, phi(b_k*) f_j>
                lhs = np.einsum("m,mc->c", np.conj(phik[:, i]), E.gram[:, j])
                rhs = np.einsum("m,mc->c", phik_star[:, j], E.gram[i])
                adj = max(adj, float(np.linalg.norm(lhs - rhs)))
        for l in range(d):
            ul = unit_coords(alg, l)
            hom = max(hom, op_norm(E.phi(alg_mul(alg, uk, ul)) - E.left_action[k] @ E.left_action[l]))
            # (xi . b_l) . b_k = xi . (b_l b_k)
            mixed = np.tensordot(alg_mul(alg, ul, uk), E.right_action, axes=(0, 0))
            module = max(module, op_norm(E.right_action[k] @ E.right_action[l] - mixed))
            commute = max(commute, op_norm(E.left_action[k] @ E.right_action[l] - E.right_action[l] @ E.left_action[k]))
    for i in range(e):
        for j in range(e):
            star_sym = max(
                star_sym,
                float(np.linalg.norm(alg_star(alg, E.gram[i, j]) - E.gram[j, i])),
            )

    positivity = max(0.0, -dense_faithful_stats(E.gram, alg)[0]) if e else 0.0

    eye = np.eye(e, dtype=complex)
    essential = op_norm(E.phi(alg.one) - eye)
    unit_right = op_norm(np.tensordot(alg.one, E.right_action, axes=(0, 0)) - eye)
    nonzero = 0.0 if (e > 0 and op_norm(E.left_action.reshape(d * e, e)) > bound) else 1.0

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


def validate_product_system(ps):
    items = []
    alg = ps.algebra
    for i in range(ps.k):
        for j in range(i):
            t = ps.flip(i, j)
            cij = ps.chain.corr((i, j))
            cji = ps.chain.corr((j, i))
            bound = ps.tol * scale_of(t, cij.gram.reshape(cij.dim * cij.dim, -1) if cij.dim else t)
            uni = max(
                op_norm(t.conj().T @ t - _eye(cij.dim)),
                op_norm(t @ t.conj().T - _eye(cji.dim)),
            )
            inv = op_norm(ps.flip(j, i) @ t - _eye(cij.dim))
            pulled = np.einsum("ca,db,cdk->abk", np.conj(t), t, cji.gram)
            gram = float(np.max(np.abs(pulled - cij.gram))) if cij.dim else 0.0
            act = 0.0
            for k in range(alg.dim):
                act = max(act, op_norm(t @ cij.left_action[k] - cji.left_action[k] @ t))
                act = max(act, op_norm(t @ cij.right_action[k] - cji.right_action[k] @ t))
            tag = f"{i+1},{j+1}"
            items.append(CheckItem(f"flip_unitary_{tag}", uni <= bound, uni))
            items.append(CheckItem(f"flip_inverse_{tag}", inv <= bound, inv))
            items.append(CheckItem(f"flip_gram_{tag}", gram <= bound, gram))
            items.append(CheckItem(f"flip_bimodule_{tag}", act <= bound, act))
    return ValidationReport("product_system", tuple(items))


def assert_reports_agree(report, expected, rtol=1e-12):
    """Same item names, order and flags; residuals within rtol * max(1, residual)."""
    assert report.subject == expected.subject
    assert [i.name for i in report.items] == [i.name for i in expected.items]
    for got, want in zip(report.items, expected.items):
        assert got.passed == want.passed, (got, want)
        assert abs(got.residual - want.residual) <= rtol * max(1.0, want.residual), (got, want)


def dump_json(data) -> str:
    """The JSON layout of reports and instance files: the stock encoder with
    sorted keys and a one-space indent, plus a closing newline."""
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def dense_matrix_json(mat) -> list:
    """A matrix, or a stack of matrices, as nested lists of ``[re, im]``:
    the version-1 layout of a matrix."""
    a = np.asarray(mat, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def _dense_correspondence(E, out: dict) -> None:
    out["right_action"] = dense_matrix_json(E.right_action)
    out["left_action"] = dense_matrix_json(E.left_action)
    # per basis pair, an algebra element: blocks [b][i][j] regrouped as [i][j][b]
    lists = [dense_matrix_json(b) for b in E.algebra.blocks_from_coords(E.gram)]
    out["gram"] = [[list(cell) for cell in zip(*rows)] for rows in zip(*lists)]


def instance_to_json_v1(obj) -> dict:
    """``obj`` as a version-1 instance file: every matrix written from the
    object's arrays as nested ``[re, im]`` lists, the Gram as one algebra
    element per basis pair; the other fields as ``instance_to_json`` writes
    them."""
    from covrep.product import ProductRep
    from covrep.serialize import instance_to_json

    out = instance_to_json(obj)
    out["format"] = 1
    sigma = obj.sigma
    units = np.cumsum([d * d for d in sigma.algebra.block_dims])[:-1]
    out["sigma"]["images"] = [dense_matrix_json(b) for b in np.split(sigma.images, units)]
    if isinstance(obj, ProductRep):
        ps = out["product_system"]
        for E, data in zip(obj.system.correspondences, ps["correspondences"]):
            _dense_correspondence(E, data)
        ps["flips"] = {f"{i+1},{j+1}": dense_matrix_json(m) for (i, j), m in obj.system.flips.items()}
        out["T"] = [dense_matrix_json(rep.T) for rep in obj.reps]
    else:
        _dense_correspondence(obj.E, out["correspondence"])
        out["T"] = dense_matrix_json(obj.T)
    return out
