from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covrep._linalg import random_complex, random_unitary, scale_of
from covrep.algebra import MatrixBlocksAlgebra, StarRepresentation, validate_representation
from covrep.correspondence import (
    ChainTower,
    Correspondence,
    FockHilbert,
    _faithful_positivity,
    _module_gram,
    _tensor_positivity,
    algebra_correspondence,
    interior_tensor_with_rep,
    internal_tensor,
    validate_correspondence,
)
from covrep.errors import AlgebraMismatch, PositivityFailure, ShapeMismatch
from covrep.examples import (
    G1,
    G2,
    DirectedGraph,
    graph_correspondence,
    graph_induced,
    induced_product_representation,
    scalar_correspondence,
    scalar_representation,
    two_colored_system,
)
from covrep.product import validate_product_system

import oracles
from oracles import dense_faithful_stats, path_count


def replaced(E, right=None, left=None, gram=None):
    return Correspondence(
        E.algebra,
        E.dim,
        E.right_action if right is None else right,
        E.left_action if left is None else left,
        E.gram if gram is None else gram,
        E.tol,
    )


def flipped_gram(E):
    return replaced(E, gram=-E.gram)


class TestValidation:
    def test_scalar_correspondence_passes(self):
        assert validate_correspondence(scalar_correspondence()).passed

    def test_algebra_correspondence_passes(self):
        alg = MatrixBlocksAlgebra((2, 1))
        assert validate_correspondence(algebra_correspondence(alg)).passed

    def test_graph_correspondence_passes(self):
        report = validate_correspondence(graph_correspondence(G1))
        assert report.passed and report.max_violation == 0.0

    def test_negated_gram_fails_positivity(self):
        report = checked(flipped_gram(graph_correspondence(G1)))
        assert not report.passed
        assert any(i.name == "positivity" and not i.passed for i in report.items)


def checked(E):
    """validate_correspondence(E), asserted equal to the loop oracle."""
    report = validate_correspondence(E)
    oracles.assert_reports_agree(report, oracles.validate_correspondence(E))
    return report


def failed(report):
    return {item.name for item in oracles.failures(report)}


def null_summand(E, left_n, right_n):
    """E (+) N with an inner product that vanishes on N: right linearity and
    adjointability say nothing about how the algebra acts on N."""
    d, e, m = E.algebra.dim, E.dim, left_n.shape[1]

    def block_diag(a, b):
        out = np.zeros((d, e + m, e + m), dtype=complex)
        out[:, :e, :e], out[:, e:, e:] = a, b
        return out

    gram = np.zeros((e + m, e + m, d), dtype=complex)
    gram[:e, :e] = E.gram
    return Correspondence(
        E.algebra, e + m, block_diag(E.right_action, right_n), block_diag(E.left_action, left_n), gram, E.tol
    )


class TestValidatorItems:
    """Each item of validate_correspondence fails on a perturbation of its
    own axiom, and the whole report agrees with the loop oracle."""

    P = np.diag([1.0, 0.0])

    def test_moved_edge_source_fails_right_linearity_only(self):
        # the right action says edge 0 starts at vertex 2, its Gram says 0
        E = graph_correspondence(G2)
        right = E.right_action.copy()
        right[0, 0, 0], right[2, 0, 0] = 0.0, 1.0
        assert failed(checked(replaced(E, right=right))) == {"right_linearity"}

    def test_small_gram_asymmetry_fails_star_symmetry_only(self):
        # b_1 = e^0_12 is not self-adjoint; the asymmetry is above the
        # validator's bound tol * scale but, with the faithful positivity
        # matrix's larger norm, within the bound of its Hermitian check
        alg = MatrixBlocksAlgebra((2, 1))
        E = algebra_correspondence(alg)
        d = alg.dim
        scale = scale_of(
            E.gram.reshape(d * d, d), E.left_action.reshape(d * d, d), E.right_action.reshape(d * d, d)
        )
        gram = E.gram.copy()
        gram[0, 0, 1] += 0.9 * E.tol * scale
        assert failed(checked(replaced(E, gram=gram))) == {"star_symmetry"}

    def test_conjugated_left_action_fails_phi_adjointable_only(self):
        # phi'(b) = phi(a)^-1 phi(b) phi(a) for a non-unitary a is still a
        # unital homomorphism commuting with the right action
        alg = MatrixBlocksAlgebra((2,))
        E = algebra_correspondence(alg)
        la = E.phi(alg.coords_from_blocks([np.array([[1.0, 1.0], [0.0, 1.0]])]))
        left = np.linalg.inv(la) @ E.left_action @ la
        assert failed(checked(replaced(E, left=left))) == {"phi_adjointable"}

    def test_halved_left_action_fails_phi_homomorphism_only(self):
        # phi(b_0) = phi(b_1) = I/2: self-adjoint and unital, not multiplicative
        E = algebra_correspondence(MatrixBlocksAlgebra((1, 1)))
        left = np.stack([np.eye(2) / 2.0] * 2)
        assert failed(checked(replaced(E, left=left))) == {"phi_homomorphism"}

    def test_zero_left_action_fails_phi_nonzero_essential_only(self):
        E = algebra_correspondence(MatrixBlocksAlgebra((2, 1)))
        report = checked(replaced(E, left=np.zeros_like(E.left_action)))
        assert failed(report) == {"phi_nonzero_essential"}

    def test_halved_right_action_on_null_summand_fails_right_module_only(self):
        E = algebra_correspondence(MatrixBlocksAlgebra((1, 1)))
        left_n = np.stack([self.P, np.eye(2) - self.P])
        right_n = np.stack([np.eye(2) / 2.0] * 2)
        assert failed(checked(null_summand(E, left_n, right_n))) == {"right_module"}

    def test_oblique_right_action_on_null_summand_fails_commutation_only(self):
        # right idempotents Q, I - Q that do not commute with P, I - P
        E = algebra_correspondence(MatrixBlocksAlgebra((1, 1)))
        q = np.array([[1.0, 1.0], [0.0, 0.0]])
        left_n = np.stack([self.P, np.eye(2) - self.P])
        right_n = np.stack([q, np.eye(2) - q])
        assert failed(checked(null_summand(E, left_n, right_n))) == {"bimodule_commutation"}

    def test_broken_star_symmetry_is_reported_not_raised(self):
        alg = MatrixBlocksAlgebra((2, 1))
        E = algebra_correspondence(alg)
        gram = E.gram.copy()
        gram[0, 1, 0] += 0.5
        bad = replaced(E, gram=gram)
        items = {item.name: item for item in checked(bad).items}
        assert not items["star_symmetry"].passed
        assert items["star_symmetry"].residual == pytest.approx(0.5)
        # positivity is judged on the Hermitian part (gram + gram^*) / 2
        star_t = np.stack([[oracles.alg_star(alg, gram[j, i]) for j in range(E.dim)] for i in range(E.dim)])
        herm_low = dense_faithful_stats((gram + star_t) / 2.0, alg)[0]
        assert items["positivity"].residual == pytest.approx(max(0.0, -herm_low), abs=1e-12)
        # the tensor product still refuses a non-Hermitian form
        with pytest.raises(ShapeMismatch):
            internal_tensor(bad, E)


ORACLE_ALGEBRAS = [(2, 1), (1, 2, 2), (3,)]


def hermitian_noise_correspondence(E, eps, rng):
    """E with noise of size eps on both actions and on the Gram; the Gram
    noise is star-symmetric, so the positivity matrix stays Hermitian."""
    if eps == 0.0 or E.dim == 0:
        return E
    alg, e = E.algebra, E.dim
    noise = random_complex(rng, E.gram.shape)
    star_t = np.stack([[oracles.alg_star(alg, noise[j, i]) for j in range(e)] for i in range(e)])
    return replaced(
        E,
        right=E.right_action + eps * random_complex(rng, E.right_action.shape),
        left=E.left_action + eps * random_complex(rng, E.left_action.shape),
        gram=E.gram + eps * (noise + star_t) / 2.0,
    )


def hermitian_noise_representation(sigma, eps, rng):
    if eps == 0.0:
        return sigma
    noise = random_complex(rng, sigma.images.shape)
    herm = (noise + noise.conj().transpose(0, 2, 1)) / 2.0
    return StarRepresentation(sigma.algebra, sigma.hilbert_dim, sigma.images + eps * herm, sigma.tol)


def oracle_cases(corpus):
    """Correspondences and representations of the corpus and of the
    algebras over themselves, with the internal square of each correspondence."""
    corrs, reps = [], []
    for inst in corpus.values():
        reps.append(inst.sigma)
        corrs.extend(inst.system.correspondences if hasattr(inst, "system") else (inst.E,))
    for blocks in ORACLE_ALGEBRAS:
        alg = MatrixBlocksAlgebra(blocks)
        corrs.append(algebra_correspondence(alg))
        ident = StarRepresentation.identity(alg)
        reps.append(ident)
        reps.append(StarRepresentation(alg, 2 * alg.faithful_dim, np.kron(np.eye(2), ident.images)))
    corrs += [internal_tensor(E, E)[0] for E in corrs]
    return corrs, reps


class TestBatchedValidatorsMatchOracle:
    @pytest.mark.parametrize("eps", [0.0, 1e-4])
    def test_correspondences(self, corpus, eps, rng):
        corrs, _ = oracle_cases(corpus)
        for E in corrs:
            report = checked(hermitian_noise_correspondence(E, eps, rng))
            if eps:
                assert E.dim == 0 or not report.passed

    @pytest.mark.parametrize("eps", [0.0, 1e-4])
    def test_representations(self, corpus, eps, rng):
        _, reps = oracle_cases(corpus)
        for sigma in reps:
            noisy = hermitian_noise_representation(sigma, eps, rng)
            report = validate_representation(noisy)
            oracles.assert_reports_agree(report, oracles.validate_representation(noisy))
            assert report.passed == (eps == 0.0)

    def test_product_systems(self, corpus):
        for inst in corpus.values():
            if hasattr(inst, "system"):
                oracles.assert_reports_agree(
                    validate_product_system(inst.system), oracles.validate_product_system(inst.system)
                )

    @pytest.mark.parametrize("blocks", ORACLE_ALGEBRAS + [(1,), (1, 1, 1)], ids=str)
    def test_algebra_correspondence_is_the_loop_construction(self, blocks):
        alg = MatrixBlocksAlgebra(blocks)
        E = algebra_correspondence(alg)
        right, left, gram = oracles.algebra_correspondence_arrays(alg)
        np.testing.assert_array_equal(E.right_action, right)
        np.testing.assert_array_equal(E.left_action, left)
        np.testing.assert_array_equal(E.gram, gram)


class TestInternalTensor:
    def test_scalar_tensor_scalar(self):
        E = scalar_correspondence()
        Q, space = internal_tensor(E, E)
        assert Q.dim == 1
        assert space.gram_kernel_dim == 0

    def test_g1_square_vanishes(self):
        # no length-2 paths: the module Gram is identically zero
        E = graph_correspondence(G1)
        Q, space = internal_tensor(E, E)
        assert Q.dim == 0 and space.push.shape == (0, 1)
        np.testing.assert_allclose(oracles.dense_scalar_gram(E, E), np.zeros((1, 1)), atol=1e-15)

    def test_g2_square_is_one_dimensional(self):
        E = graph_correspondence(G2)
        Q, space = internal_tensor(E, E)
        assert Q.dim == 1
        # rank of the 4x4 scalar Gram is 1, and push* push is that Gram
        gram = oracles.dense_scalar_gram(E, E)
        assert np.linalg.matrix_rank(gram, tol=1e-10) == 1
        np.testing.assert_allclose(space.push.conj().T @ space.push, gram, atol=1e-12)

    def test_algebra_mismatch(self):
        with pytest.raises(AlgebraMismatch):
            internal_tensor(graph_correspondence(G1), graph_correspondence(G2))

    def test_negative_gram_raises_positivity_failure(self):
        # negate only one factor: the module semi-Gram of the pair is then
        # strictly negative on the length-2 path direction
        E = graph_correspondence(G2)
        with pytest.raises(PositivityFailure):
            internal_tensor(flipped_gram(E), E)

    def test_push_lift_identities(self):
        E = graph_correspondence(G2)
        _, space = internal_tensor(E, E)
        r = space.quotient_dim
        np.testing.assert_allclose(space.push @ space.lift, np.eye(r), atol=1e-12)
        # lift is isometric for the semi-inner product
        np.testing.assert_allclose(
            space.lift.conj().T @ oracles.dense_scalar_gram(E, E) @ space.lift, np.eye(r), atol=1e-12
        )
        assert space.gram_kernel_dim + r == space.algebraic_dim

    def test_balancing_relation_lands_in_kernel(self, rng):
        # push((zeta a) (x) xi) = push(zeta (x) phi(a) xi)
        E = graph_correspondence(G2)
        _, space = internal_tensor(E, E)
        alg = E.algebra
        for _ in range(10):
            a = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
            zeta = rng.standard_normal(E.dim) + 1j * rng.standard_normal(E.dim)
            xi = rng.standard_normal(E.dim) + 1j * rng.standard_normal(E.dim)
            za = np.tensordot(a, E.right_action, axes=(0, 0)) @ zeta
            phixi = E.phi(a) @ xi
            lhs = space.push @ np.kron(za, xi)
            rhs = space.push @ np.kron(zeta, phixi)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def twisted_algebra_correspondence(alg, weight):
    """The algebra over itself with inner product <x, y> = x* w y; for an
    indefinite ``weight`` block the positivity matrix is indefinite there."""
    E = algebra_correspondence(alg)
    gram = np.stack([
        np.stack([oracles.alg_mul(alg, alg.star(oracles.unit_coords(alg, i)), oracles.alg_mul(alg, weight, oracles.unit_coords(alg, j)))
                  for j in range(alg.dim)])
        for i in range(alg.dim)
    ])
    return Correspondence(alg, E.dim, E.right_action, E.left_action, gram, E.tol)


class TestBlockPositivity:
    """Positivity through the faithful rep is checked one algebra block at a time."""

    ALGEBRAS = [MatrixBlocksAlgebra((2, 1)), MatrixBlocksAlgebra((1, 2, 2))]

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=str)
    def test_blockwise_stats_equal_dense(self, alg, rng):
        E = algebra_correspondence(alg)
        gm = _module_gram(E, E)
        noise = rng.standard_normal(gm.shape) + 1j * rng.standard_normal(gm.shape)
        for cand in (gm, E.gram, gm + 1e-12 * noise):
            got = _faithful_positivity(cand, alg, E.tol)
            np.testing.assert_allclose(got, dense_faithful_stats(cand, alg), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=str)
    def test_multi_block_tensor_and_validation(self, alg):
        E = algebra_correspondence(alg)
        report = validate_correspondence(E)
        assert report.passed
        positivity = next(i for i in report.items if i.name == "positivity")
        assert positivity.residual == pytest.approx(
            max(0.0, -dense_faithful_stats(E.gram, alg)[0]), abs=1e-12
        )
        Q, space = internal_tensor(E, E)
        # A (x)_A A = A
        assert Q.dim == alg.dim and space.gram_kernel_dim == alg.dim ** 2 - alg.dim
        assert validate_correspondence(Q).passed

    def test_one_indefinite_two_block_fails(self):
        alg = MatrixBlocksAlgebra((1, 2, 2))
        weight = alg.coords_from_blocks([np.eye(1), np.eye(2), np.diag([1.0, -1.0])])
        E = twisted_algebra_correspondence(alg, weight)
        F = algebra_correspondence(alg)
        gm = _module_gram(E, F)
        # only the last block of the positivity matrix has a negative eigenvalue
        lows = []
        off = 0
        for d in alg.block_dims:
            sub = MatrixBlocksAlgebra((d,))
            lows.append(dense_faithful_stats(gm[:, :, off : off + d * d], sub)[0])
            off += d * d
        assert lows[0] > -1e-12 and lows[1] > -1e-12 and lows[2] < -0.5
        assert _faithful_positivity(gm, alg, E.tol)[0] == pytest.approx(lows[2], abs=1e-12)
        with pytest.raises(PositivityFailure):
            internal_tensor(E, F)
        report = validate_correspondence(E)
        positivity = next(i for i in report.items if i.name == "positivity")
        assert not positivity.passed
        assert positivity.residual == pytest.approx(
            -dense_faithful_stats(E.gram, alg)[0], abs=1e-12
        )

    def test_drift_is_judged_on_the_whole(self):
        alg = MatrixBlocksAlgebra((2, 1))
        E = algebra_correspondence(alg)
        gm = _module_gram(E, E).copy()
        gm[0, 1, oracles.unit_index(alg, 1, 0, 0)] += 1e-6
        with pytest.raises(ShapeMismatch):
            _faithful_positivity(gm, alg, E.tol)


def sub_bimodule(E, blocks):
    """E.z for the central projection z onto ``blocks``, as the coordinates of
    E = A over itself that lie in those blocks: its right action kills the
    other blocks (m_b = 0 there)."""
    alg = E.algebra
    keep = np.concatenate([oracles.unit_index(alg, b, 0, 0) + np.arange(d * d)
                           for b, d in enumerate(alg.block_dims) if b in blocks])
    pick = np.ix_(range(alg.dim), keep, keep)
    return Correspondence(alg, len(keep), E.right_action[pick], E.left_action[pick],
                          E.gram[np.ix_(keep, keep, range(alg.dim))], E.tol)


def direct_sum(E, F):
    """E (+) F, the two summands orthogonal."""
    e, f, d = E.dim, F.dim, E.algebra.dim

    def stack(a, b):
        out = np.zeros((d, e + f, e + f), dtype=complex)
        out[:, :e, :e], out[:, e:, e:] = a, b
        return out

    gram = np.zeros((e + f, e + f, d), dtype=complex)
    gram[:e, :e], gram[e:, e:] = E.gram, F.gram
    return Correspondence(E.algebra, e + f, stack(E.right_action, F.right_action),
                          stack(E.left_action, F.left_action), gram, E.tol)


def unitary_fibre(E, rng):
    """E in a random orthonormal basis, so its right blocks are complex."""
    u = random_unitary(rng, E.dim)
    ud = u.conj().T
    return Correspondence(E.algebra, E.dim, ud @ E.right_action @ u, ud @ E.left_action @ u,
                          np.einsum("ai,bj,abk->ijk", u.conj(), u, E.gram), E.tol)


def split_weight(alg):
    """diag(1, -1) on the first block of size >= 2, the identity elsewhere:
    an indefinite, non-central weight."""
    b = next(b for b, d in enumerate(alg.block_dims) if d >= 2)
    return alg.coords_from_blocks([np.diag([1.0] + [-1.0] * (d - 1)) if i == b else np.eye(d)
                                   for i, d in enumerate(alg.block_dims)])


def negative_block(alg, b):
    """-1 on block b, 1 elsewhere: a central weight, so twisting the algebra
    by it keeps every axiom of a correspondence except positivity."""
    return alg.coords_from_blocks([-np.eye(d) if i == b else np.eye(d) for i, d in enumerate(alg.block_dims)])


class TestRightBlockPositivity:
    """Internal-tensor positivity on F's right blocks (``_tensor_positivity``)
    against the dense faithful matrix (``oracles.dense_faithful_stats``)."""

    ALGEBRAS = [MatrixBlocksAlgebra((1, 2, 2)), MatrixBlocksAlgebra((2, 1))]

    @staticmethod
    def lefts(alg, rng):
        # only E's Gram enters E (x) F, so E need not have an adjointable
        # left action
        return {
            "algebra": algebra_correspondence(alg),
            "positive-unitary": unitary_fibre(positive_algebra_correspondence(alg, rng), rng),
            "indefinite": twisted_algebra_correspondence(alg, split_weight(alg)),
        }

    @staticmethod
    def rights(alg, rng):
        A = algebra_correspondence(alg)
        last = len(alg.block_dims) - 1
        return {
            "algebra": A,
            "dead-block": sub_bimodule(A, range(last)),
            "dead-block-unitary": unitary_fibre(sub_bimodule(A, range(1, last + 1)), rng),
            "multiplicity-2": direct_sum(sub_bimodule(A, range(last)), unitary_fibre(sub_bimodule(A, range(last)), rng)),
            "indefinite": twisted_algebra_correspondence(alg, negative_block(alg, last)),
            "indefinite-unitary": unitary_fibre(twisted_algebra_correspondence(alg, negative_block(alg, 0)), rng),
        }

    def assert_dense(self, E, F):
        alg, tol = E.algebra, min(E.tol, F.tol)
        gm = _module_gram(E, F)
        got, dense = _tensor_positivity(gm, E, F, tol), dense_faithful_stats(gm, alg)
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-10)
        raises = dense[0] < -tol * (1.0 + dense[2])
        if raises:
            with pytest.raises(PositivityFailure):
                internal_tensor(E, F)
        else:
            internal_tensor(E, F)
        return raises

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=str)
    def test_stats_equal_dense(self, alg, rng):
        failures = set()
        for (e_name, E), (f_name, F) in iter_product(self.lefts(alg, rng).items(), self.rights(alg, rng).items()):
            assert F.right_blocks is not None, f_name
            if self.assert_dense(E, F):
                failures.add((e_name, f_name))
        # positive factors pass; an indefinite E or an indefinite F fails
        # against the algebra
        positive = [(e, f) for e in ("algebra", "positive-unitary") for f in self.rights(alg, rng)
                    if not f.startswith("indefinite")]
        assert not failures & set(positive)
        assert {("indefinite", "algebra"), ("algebra", "indefinite"), ("algebra", "indefinite-unitary")} <= failures

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=str)
    def test_dead_blocks_and_multiplicities(self, alg, rng):
        A = algebra_correspondence(alg)
        last = len(alg.block_dims) - 1
        # per block size, the widest live block and the blocks it carries
        mults = {
            name: [(d, f.shape[1], f.shape[2]) for d, f in F.right_blocks]
            for name, F in self.rights(alg, rng).items()
        }
        sizes = sorted(set(alg.block_dims))
        assert mults["algebra"] == [(d, alg.block_dims.count(d), d) for d in sizes]
        live = [d for b, d in enumerate(alg.block_dims) if b < last]
        assert mults["dead-block"] == [(d, live.count(d), d) for d in sorted(set(live))]
        assert mults["multiplicity-2"] == [(d, live.count(d), 2 * d) for d in sorted(set(live))]
        # a right action that kills every block: no live block, and the
        # faithful matrix is zero
        zero = Correspondence(alg, 2, np.zeros((alg.dim, 2, 2)), np.zeros((alg.dim, 2, 2)), np.zeros((2, 2, alg.dim)))
        assert zero.right_blocks == ()
        assert not self.assert_dense(A, zero)

    def test_malformed_right_module_uses_dense_blocks(self, rng):
        # the compression rests on (I1), (I2) and Q_b being a projection; an F
        # that breaks one of them is checked on the dense blocks and decided
        # as they decide
        alg = MatrixBlocksAlgebra((1, 2, 2))
        A = algebra_correspondence(alg)
        live = sub_bimodule(A, (0, 1))
        gram = live.gram.copy()
        # (I1): a negative form in the killed block
        gram[:, :, oracles.unit_index(alg, 2, 0, 0)] = -np.eye(live.dim)
        bad_gram = Correspondence(alg, live.dim, live.right_action, live.left_action, gram)
        # (I2): a left action that does not commute with the right one
        bad_left = Correspondence(alg, A.dim, A.right_action, A.left_action + random_complex(rng, A.left_action.shape), A.gram)
        # Q_b = 4 R(e^b_11)
        bad_right = Correspondence(alg, A.dim, 2.0 * A.right_action, A.left_action, A.gram)
        for F in (bad_gram, bad_left, bad_right):
            assert F.right_blocks is None
        # the dense blocks see the negative form, and a non-adjointable left
        # action drifts off Hermitian on them
        assert self.assert_dense(A, bad_gram)
        assert not self.assert_dense(A, bad_right)
        with pytest.raises(ShapeMismatch):
            internal_tensor(A, bad_left)

    def test_one_unit_builds_nothing(self):
        E = scalar_correspondence()
        assert E.right_blocks is None
        Q, space = internal_tensor(E, E)
        assert Q.dim == 1 and space.gram_kernel_dim == 0

    def test_graph_towers_use_right_blocks(self):
        # every level of a graph tower is checked on the right blocks, and the
        # blocks are as wide as E^k (x) F.e_v: dim E^k times the out-degree
        g = DirectedGraph(5, tuple((s, t) for s in range(5) for t in range(s + 1, 5)))
        E = graph_correspondence(g)
        [(d, forms)] = E.right_blocks
        assert d == 1 and forms.shape == (E.algebra.dim, 4, 4, 4)
        tower = ChainTower([E], E.tol)
        for k in range(1, 4):
            Ek = tower.corr((0,) * k)
            gm = _module_gram(Ek, E)
            np.testing.assert_allclose(
                _tensor_positivity(gm, Ek, E, E.tol), dense_faithful_stats(gm, E.algebra), rtol=0, atol=1e-12
            )


def power(E, n):
    """E^{(x)n} as the chain of n copies of E; n = 0 gives the algebra."""
    return ChainTower([E], E.tol).corr((0,) * n)


class TestTensorPower:
    def test_power_zero_is_algebra(self):
        E = graph_correspondence(G2)
        M = power(E, 0)
        assert M.dim == E.algebra.dim

    def test_g2_cube_vanishes(self):
        assert power(graph_correspondence(G2), 3).dim == 0

    def test_scalar_powers_stay_one_dimensional(self):
        E = scalar_correspondence()
        for n in range(5):
            assert power(E, n).dim == 1

    def test_functoriality_of_dimensions(self):
        E = graph_correspondence(G2)
        for m, n in [(1, 1), (1, 2), (2, 1)]:
            lhs = power(E, m + n).dim
            rhs = internal_tensor(power(E, m), power(E, n))[0].dim
            assert lhs == rhs

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_path_count_oracle(self, seed):
        rng = np.random.default_rng(seed)
        v = int(rng.integers(2, 6))
        edges = [(s, t) for s in range(v) for t in range(s + 1, v) if rng.random() < 0.5]
        if not edges:
            edges = [(0, v - 1)]
        g = DirectedGraph(v, tuple(edges))
        E = graph_correspondence(g)
        adj = oracles.adjacency(g)
        for n in range(v + 1):
            assert power(E, n).dim == (
                path_count(adj, n) if n else E.algebra.dim
            )

    def test_rebracketing_gram_matches_full_tensor(self):
        # the chain quotient pulled back to the full algebraic tensor
        # reproduces the module semi-Gram there, independent of bracketing
        E = graph_correspondence(G2)
        chain = ChainTower([E])
        word = (0, 0)
        push_full = chain.fold_tail(word, 0)
        _, space = internal_tensor(E, E)
        np.testing.assert_allclose(
            push_full.conj().T @ push_full, oracles.dense_scalar_gram(E, E), atol=1e-12
        )
        np.testing.assert_allclose(
            push_full @ chain.unfold_tail(word, 0), np.eye(chain.corr(word).dim),
            atol=1e-12,
        )


class TestInteriorTensorWithRep:
    def test_scalar_with_identity(self):
        E = scalar_correspondence()
        sigma = scalar_representation(4)
        space = interior_tensor_with_rep(E, sigma)
        assert space.quotient_dim == 4
        assert space.gram_kernel_dim == 0

    def test_g1_with_coordinate_rep(self):
        E = graph_correspondence(G1)
        sigma = StarRepresentation.identity(E.algebra)
        space = interior_tensor_with_rep(E, sigma)
        assert space.quotient_dim == 1
        # the Gram is diag(1, 0): only the source-vertex component survives
        gram = oracles.dense_interior_tensor_with_rep(E, sigma)[3]
        np.testing.assert_allclose(gram, np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(space.push.conj().T @ space.push, gram, atol=1e-15)

    def test_g2_square_with_coordinate_rep(self):
        E2 = power(graph_correspondence(G2), 2)
        sigma = StarRepresentation.identity(E2.algebra)
        assert interior_tensor_with_rep(E2, sigma).quotient_dim == 1


def positive_algebra_correspondence(alg, rng):
    """The algebra over itself with <x, y> = x* w y for a random positive
    definite w, so every block G_b has a generic spectrum."""
    a = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    return twisted_algebra_correspondence(alg, oracles.alg_mul(alg, alg.star(a), a) + alg.one)


def corpus_quotients(corpus):
    """(E, sigma) for every tower word of length <= 2 of the corpus, with the
    algebra correspondence at the empty word."""
    out = []
    for inst in corpus.values():
        reps = inst.reps if hasattr(inst, "reps") else [inst]
        letters = range(len(reps))
        words = [()] + [(a,) for a in letters] + [(a, b) for a in letters for b in letters]
        out += [(reps[0].chain.corr(w), reps[0].sigma) for w in words]
    return out


class TestBlockQuotientOracle:
    """The block quotient in sigma's own basis against one dense decomposition
    of the whole sigma-twisted Gram (``oracles.dense_interior_tensor_with_rep``):
    the quotient dim, push* push against the Gram, lift* Gram lift = I and
    the kernel projector I - lift push agree to 1e-12."""

    @staticmethod
    def assert_agree(E, sigma):
        space = interior_tensor_with_rep(E, sigma)
        push, lift, kernel, gram = oracles.dense_interior_tensor_with_rep(E, sigma)
        r = space.quotient_dim
        assert (r, space.gram_kernel_dim) == (push.shape[0], kernel.shape[1])
        assert space.push.shape == (r, gram.shape[0]) and space.lift.shape == (gram.shape[0], r)
        close = dict(rtol=0, atol=1e-12)
        pp = space.push.conj().T @ space.push
        np.testing.assert_allclose(pp, push.conj().T @ push, **close)
        np.testing.assert_allclose(pp, gram, **close)
        np.testing.assert_allclose(space.lift.conj().T @ gram @ space.lift, np.eye(r), **close)
        np.testing.assert_allclose(space.push @ space.lift, np.eye(r), **close)
        np.testing.assert_allclose(
            np.eye(gram.shape[0]) - space.lift @ space.push, kernel @ kernel.conj().T, **close
        )

    def test_corpus(self, corpus):
        pairs = corpus_quotients(corpus)
        assert len(pairs) > 20
        for E, sigma in pairs:
            self.assert_agree(E, sigma)

    @pytest.mark.parametrize(
        "blocks,mults,extra",
        [
            ((2, 1), (2, 3), 0),
            ((1, 2, 2), (2, 1, 3), 0),
            ((2, 1), (1, 2), 2),
            ((1, 2, 2), (2, 0, 1), 1),
            ((2, 1), (0, 2), 0),
            ((2, 1), (0, 1), 1),
            ((2, 1), (0, 0), 2),
        ],
        ids=["2-1", "1-2-2", "2-1-degenerate", "1-2-2-dead-block-degenerate", "2-1-dead-largest",
             "2-1-dead-largest-degenerate", "2-1-zero"],
    )
    def test_multiplicities_under_a_random_unitary(self, rng, blocks, mults, extra):
        alg = MatrixBlocksAlgebra(blocks)
        sigma = oracles.multiplicity_representation(alg, mults, rng, extra)
        E = positive_algebra_correspondence(alg, rng)
        for F in (E, internal_tensor(E, algebra_correspondence(alg))[0], algebra_correspondence(alg)):
            self.assert_agree(F, sigma)

    def test_indefinite_block_without_multiplicity_does_not_raise(self, rng):
        # only the last block of the Gram is indefinite; sigma does not see it
        alg = MatrixBlocksAlgebra((1, 2, 2))
        weight = alg.coords_from_blocks([np.eye(1), np.eye(2), np.diag([1.0, -1.0])])
        E = twisted_algebra_correspondence(alg, weight)
        blind = oracles.multiplicity_representation(alg, (1, 2, 0), rng)
        self.assert_agree(E, blind)
        seeing = oracles.multiplicity_representation(alg, (1, 2, 1), rng)
        with pytest.raises(PositivityFailure):
            oracles.dense_interior_tensor_with_rep(E, seeing)
        with pytest.raises(PositivityFailure):
            interior_tensor_with_rep(E, seeing)


class TestFock:
    """Levels E^{(x)n} of the Fock module, and whether the depth-N Fock
    space over a faithful sigma is exact (creation out of level N vanishes)."""

    @staticmethod
    def levels_and_exact(E, depth):
        chain = ChainTower([E], E.tol)
        dims = tuple(chain.corr((0,) * n).dim for n in range(depth + 1))
        sigma = StarRepresentation.identity(E.algebra)
        return dims, FockHilbert(chain, sigma, {0: depth}).exact

    def test_g1_fock(self):
        assert self.levels_and_exact(graph_correspondence(G1), 1) == ((2, 1), True)

    def test_g2_fock(self):
        assert self.levels_and_exact(graph_correspondence(G2), 2) == ((3, 2, 1), True)

    def test_scalar_fock_not_nilpotent(self):
        assert self.levels_and_exact(scalar_correspondence(), 3) == ((1, 1, 1, 1), False)


class TestCreation:
    def test_zero_vector_gives_zero_operator(self):
        E = graph_correspondence(G1)
        sigma = StarRepresentation.identity(E.algebra)
        c = FockHilbert(ChainTower([E]), sigma, {0: 1}).creation(0, np.zeros(1))
        assert np.linalg.norm(c) == 0.0

    def test_g1_creation_is_rank_one_partial_isometry(self):
        E = graph_correspondence(G1)
        sigma = StarRepresentation.identity(E.algebra)
        c = FockHilbert(ChainTower([E]), sigma, {0: 1}).creation(0, np.ones(1))
        assert c.shape == (3, 3)
        assert np.linalg.matrix_rank(c, tol=1e-10) == 1
        np.testing.assert_allclose(np.sort(np.abs(c).ravel())[-1], 1.0, atol=1e-12)
        # partial isometry: c* c is a projection; level 1 maps to zero
        cc = c.conj().T @ c
        np.testing.assert_allclose(cc @ cc, cc, atol=1e-12)
        np.testing.assert_allclose(c @ c, np.zeros((3, 3)), atol=1e-12)

    def test_truncated_shift_is_jordan_block(self):
        E = scalar_correspondence()
        sigma = scalar_representation(1)
        c = FockHilbert(ChainTower([E]), sigma, {0: 2}).creation(0, np.ones(1))
        assert c.shape == (3, 3)
        svals = np.linalg.svd(c, compute_uv=False)
        np.testing.assert_allclose(svals, [1.0, 1.0, 0.0], atol=1e-12)
        assert np.linalg.norm(np.linalg.matrix_power(c, 3)) < 1e-12
        assert np.linalg.norm(np.linalg.matrix_power(c, 2)) > 0.9

    def test_fock_hilbert_exactness_flags(self):
        E = scalar_correspondence()
        fh = FockHilbert(ChainTower([E]), scalar_representation(1), {0: 2})
        assert not fh.exact
        E1 = graph_correspondence(G1)
        fh1 = FockHilbert(ChainTower([E1]), StarRepresentation.identity(E1.algebra), {0: 1})
        assert fh1.exact


class TestChainTower:
    def test_fold_unfold_inverse(self):
        E = graph_correspondence(G2)
        chain = ChainTower([E])
        for word in [(0, 0), (0, 0, 0)]:
            r = chain.corr(word).dim
            for p in range(len(word)):
                prod = chain.fold_tail(word, p) @ chain.unfold_tail(word, p)
                np.testing.assert_allclose(prod, np.eye(r), atol=1e-12)

    def test_prepend_matches_full_tensor(self, rng):
        # prepending xi and pushing from the full tensor agree
        E = graph_correspondence(G2)
        chain = ChainTower([E])
        xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for k in [1, 2]:
            word = (0,) * k
            pre = chain.prepend(word, 0, xi)
            lift_full = chain.unfold_tail(word, 0)
            push_full = chain.fold_tail((0,) * (k + 1), 0)
            direct = push_full @ np.kron(xi[:, None], lift_full)
            np.testing.assert_allclose(pre, direct, atol=1e-10)


def _oracle_instance(name):
    """path-5, dag-4 or the 3 x 3 grid, with a Fock space built on the
    coordinate representation of the vertices."""
    if name == "grid-3":
        at = lambda i, j: 3 * i + j  # noqa: E731
        right = [(at(i, j), at(i, j + 1)) for i in range(3) for j in range(2)]
        down = [(at(i, j), at(i + 1, j)) for i in range(2) for j in range(3)]
        system = two_colored_system(9, right, down)
        pi = StarRepresentation.identity(system.algebra)
        fh = FockHilbert(system.chain, pi, {0: 2, 1: 2}, system.flip)
        return induced_product_representation(system), fh
    if name == "path-5":
        g, depth = DirectedGraph(5, tuple((i, i + 1) for i in range(4))), 4
    else:
        g, depth = DirectedGraph(4, tuple((s, t) for s in range(4) for t in range(s + 1, 4))), 3
    rep = graph_induced(g)
    pi = StarRepresentation.identity(rep.E.algebra)
    return rep, FockHilbert(ChainTower([rep.E]), pi, {0: depth})


class TestDenseKroneckerOracle:
    """Every tensor-extended map equals its dense np.kron formula
    (tests/oracles.py) to 1e-12."""

    @staticmethod
    def _close(actual, expected):
        assert actual.shape == expected.shape
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("g", [G2, DirectedGraph(3, ((0, 1), (0, 1), (1, 2), (0, 2)))])
    def test_internal_tensor_in_a_complex_basis(self, g, rng):
        # a random unitary change of fibre basis makes the quotient maps complex
        E = graph_correspondence(g)
        u, _ = np.linalg.qr(random_complex(rng, (E.dim, E.dim)))
        ud = u.conj().T
        Eu = Correspondence(
            E.algebra, E.dim, ud @ E.right_action @ u, ud @ E.left_action @ u,
            np.einsum("ai,bj,abk->ijk", u.conj(), u, E.gram),
        )
        assert validate_correspondence(Eu).passed
        for F in (Eu, E):
            Q, space = internal_tensor(Eu, F)
            assert np.abs(space.lift.imag).max() > 1e-3
            left, right, gram = oracles.dense_internal_tensor(Eu, F, space, _module_gram(Eu, F))
            self._close(Q.left_action, left)
            self._close(Q.right_action, right)
            self._close(Q.gram, gram)

    @pytest.mark.parametrize("name", ["path-5", "dag-4", "grid-3"])
    def test_maps_equal_dense_formulas(self, name, rng):
        inst, fh = _oracle_instance(name)
        reps = inst.reps if hasattr(inst, "reps") else (inst,)
        hilb, chain = inst.hilb, inst.hilb.chain
        letters = tuple(r.letter for r in reps)
        flip = inst.system.flip if len(reps) > 1 else None
        n = hilb.hdim
        words = [w for k in (1, 2, 3) for w in iter_product(letters, repeat=k)]
        for word in words:
            theta = reps[letters.index(word[-1])].theta
            self._close(hilb.factor(word, theta), oracles.dense_factor(hilb, word, theta))
            X = random_complex(rng, (n, n))
            self._close(hilb.tensor_op(word, X), oracles.dense_tensor_op(hilb, word, X))
            for letter in letters:
                d1 = hilb.dim((letter,))
                Y = random_complex(rng, (d1, d1))
                self._close(hilb.mid_op_at(word, letter, Y), oracles.dense_mid_op_at(hilb, word, letter, Y))
                xi = random_complex(rng, (chain.edim(letter),))
                self._close(chain.prepend(word, letter, xi), oracles.dense_prepend(chain, word, letter, xi))
            for p in range(len(word)):
                self._close(chain.unfold_tail(word, p), oracles.dense_unfold_tail(chain, word, p))
                self._close(chain.fold_tail(word, p), oracles.dense_fold_tail(chain, word, p))
            for p in range(len(word) - 1):
                i, j = word[p], word[p + 1]
                r = chain.corr((i, j)).dim
                tmat = flip(i, j) if i != j else random_complex(rng, (r, r))
                got, expected = chain.flip_at(word, p, tmat), oracles.dense_flip_at(chain, word, p, tmat)
                assert got[0] == expected[0]
                self._close(got[1], expected[1])
                got, expected = hilb.flip_op(word, p, tmat), oracles.dense_flip_op(hilb, word, p, tmat)
                assert got[0] == expected[0]
                self._close(got[1], expected[1])
        alg = chain.algebra
        rho = fh.representation()
        for k in range(alg.dim):
            self._close(rho.images[k], oracles.dense_rep_image(fh, oracles.unit_coords(alg, k)))
            for rep in reps:
                # T~ intertwines phi(b_k) (x) I with sigma(b_k)
                phik = oracles.dense_phi_on_tensor(rep, k)
                self._close(rep.tilde @ phik, rep.sigma.images[k] @ rep.tilde)
        for letter in letters:
            xi = random_complex(rng, (chain.edim(letter),))
            self._close(fh.creation(letter, xi), oracles.dense_creation(fh, letter, xi))
