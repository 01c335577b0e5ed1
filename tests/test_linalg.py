import numpy as np
import pytest

from covrep._linalg import (
    DEFAULT_TOL,
    ORTHONORMAL_TOL,
    RANK_TOL,
    gram_quotient,
    herm_residual,
    id_tensor_matmul,
    inv_sqrt_psd,
    invariance_residual,
    matmul_id_tensor,
    max_op_norm,
    min_eig_herm,
    null_cols,
    orth_cols,
    orthonormal_drift,
    random_complex,
    random_unitary,
    require_hermitian,
    scale_of,
    sqrt_psd,
)
from covrep.errors import PositivityFailure, ShapeMismatch
from covrep.examples import scalar_covrep


def random_mats(rng, count=20):
    for _ in range(count):
        n = int(rng.integers(1, 9))
        yield random_complex(rng, (n, n)) * 10.0 ** rng.uniform(-3, 3)


class TestHermResidual:
    def test_matches_spectral_norm_of_skew_part(self, rng):
        for a in random_mats(rng):
            dense = np.linalg.norm(a - a.conj().T, 2)
            assert herm_residual(a) == pytest.approx(dense, rel=1e-12, abs=1e-12)

    def test_exactly_hermitian_is_zero(self, rng):
        a = random_complex(rng, (5, 5))
        assert herm_residual(a + a.conj().T) == 0.0
        assert herm_residual(np.zeros((0, 0))) == 0.0


class TestHermitianScale:
    """The scale of a Hermitian check is 1 + |(a + a*)/2|, never above scale_of(a)."""

    def test_min_eig_stats_match_dense(self, rng):
        for a in random_mats(rng):
            lo, drift, norm = min_eig_herm(a)
            herm = (a + a.conj().T) / 2.0
            assert lo == pytest.approx(np.linalg.eigvalsh(herm)[0], rel=1e-12, abs=1e-12)
            assert drift == pytest.approx(np.linalg.norm(a - a.conj().T, 2), rel=1e-12, abs=1e-12)
            assert norm == pytest.approx(np.linalg.norm(herm, 2), rel=1e-12, abs=1e-12)

    def test_new_scale_never_above_scale_of(self, rng):
        # equal for Hermitian input, so allow rounding between eigvalsh and SVD
        for a in random_mats(rng, 40):
            for m in (a, a + a.conj().T, a @ a.conj().T):
                norm = min_eig_herm(m)[2]
                assert 1.0 + norm <= scale_of(m) * (1.0 + 1e-12)

    def test_non_hermitian_input_raises(self):
        a = np.array([[1.0, 1e-6], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ShapeMismatch):
            require_hermitian(*min_eig_herm(a)[1:], DEFAULT_TOL)
        with pytest.raises(ShapeMismatch):
            gram_quotient([a[None]])

    def test_gram_quotient_negative_eigenvalue(self):
        with pytest.raises(PositivityFailure):
            gram_quotient([np.diag([1.0, -1e-6])[None]])
        [(w, v, keep)] = gram_quotient([np.diag([2.0, -DEFAULT_TOL])[None]])
        assert keep.tolist() == [[True, False]]


class TestSqrtPsd:
    def test_scale_from_eigenvalues(self):
        # a negative eigenvalue within tol * (1 + |a|) is clipped, a larger one raises
        root = sqrt_psd(np.diag([4.0, -DEFAULT_TOL]))
        np.testing.assert_allclose(root, np.diag([2.0, 0.0]), atol=1e-15)
        with pytest.raises(PositivityFailure):
            sqrt_psd(np.diag([4.0, -10 * DEFAULT_TOL]))


class TestMaxOpNorm:
    def test_matches_loop_of_spectral_norms(self, rng):
        stack = random_complex(rng, (3, 4, 5, 5))
        stack[1, 2] = 0.0
        dense = max(np.linalg.norm(m, 2) for m in stack.reshape(-1, 5, 5))
        assert max_op_norm(stack) == pytest.approx(dense, rel=1e-12)

    def test_zero_and_empty_stacks(self):
        assert max_op_norm(np.zeros((4, 3, 3))) == 0.0
        assert max_op_norm(np.zeros((2, 0, 0))) == 0.0
        assert max_op_norm(np.zeros((0, 3, 3))) == 0.0


class TestIdentityTensorProducts:
    """(I_l (x) X (x) I_r) M and M (I_l (x) X (x) I_r) by reshape equal the
    dense Kronecker products, including empty axes and zero columns."""

    SHAPES = [  # left, p, q, right, columns of M (rows of N)
        (1, 3, 3, 1, 4), (2, 3, 4, 5, 2), (3, 2, 5, 1, 3), (1, 4, 2, 3, 6),
        (4, 1, 1, 2, 1), (2, 0, 3, 2, 3), (2, 3, 0, 2, 2), (0, 2, 2, 3, 2),
        (2, 3, 4, 0, 2), (2, 3, 4, 2, 0),
    ]

    @staticmethod
    def dense(left, x, right):
        return np.kron(np.kron(np.eye(left), x), np.eye(right))

    @pytest.mark.parametrize("left,p,q,right,cols", SHAPES)
    def test_left_and_right_forms_match_kron(self, rng, left, p, q, right, cols):
        x = random_complex(rng, (p, q))
        m = random_complex(rng, (left * q * right, cols))
        n = random_complex(rng, (cols, left * p * right))
        big = self.dense(left, x, right)
        np.testing.assert_allclose(id_tensor_matmul(left, x, right, m), big @ m, rtol=0, atol=1e-12)
        np.testing.assert_allclose(matmul_id_tensor(n, left, x, right), n @ big, rtol=0, atol=1e-12)

    def test_random_shapes(self, rng):
        for _ in range(30):
            left, p, q, right, cols = (int(v) for v in rng.integers(0, 5, size=5))
            x = random_complex(rng, (p, q))
            m = random_complex(rng, (left * q * right, cols))
            n = random_complex(rng, (cols, left * p * right))
            big = self.dense(left, x, right)
            assert id_tensor_matmul(left, x, right, m).shape == (left * p * right, cols)
            np.testing.assert_allclose(id_tensor_matmul(left, x, right, m), big @ m, rtol=0, atol=1e-12)
            np.testing.assert_allclose(matmul_id_tensor(n, left, x, right), n @ big, rtol=0, atol=1e-12)

    def test_stack_of_factors(self, rng):
        xs = random_complex(rng, (3, 2, 4))
        m = random_complex(rng, (2 * 4 * 3, 5))
        n = random_complex(rng, (5, 2 * 2 * 3))
        left_out, right_out = id_tensor_matmul(2, xs, 3, m), matmul_id_tensor(n, 2, xs, 3)
        for k, x in enumerate(xs):
            big = self.dense(2, x, 3)
            np.testing.assert_allclose(left_out[k], big @ m, rtol=0, atol=1e-12)
            np.testing.assert_allclose(right_out[k], n @ big, rtol=0, atol=1e-12)


def perturbed_basis(rng, n, d, gaps):
    """An n x d basis B with B*B - I = V diag(gaps) V* for a random unitary V."""
    q = random_unitary(rng, n)[:, :d]
    return q @ np.diag(np.sqrt(1.0 + np.asarray(gaps))) @ random_unitary(rng, d).conj().T


class TestOrthonormalScreen:
    """The Frobenius screen decides exactly as |B*B - I|_2 <= 1e-6 does."""

    @staticmethod
    def spectral(b):
        return np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1]), 2)

    def test_decision_matches_spectral_norm(self, rng):
        sides = {True: 0, False: 0}
        fallback = 0
        for _ in range(200):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, n + 1))
            # largest |gap| from 10^-6.5 to 10^-5.5, so both sides of the cutoff occur
            gaps = rng.uniform(-1.0, 1.0, d)
            gaps *= 10.0 ** rng.uniform(-6.5, -5.5) / np.max(np.abs(gaps))
            b = perturbed_basis(rng, n, d, gaps)
            dense = self.spectral(b)
            accept = orthonormal_drift(b) <= ORTHONORMAL_TOL
            assert accept == (dense <= 1e-6)
            sides[accept] += 1
            fallback += bool(np.linalg.norm(b.conj().T @ b - np.eye(d)) > 1e-6 and dense <= 1e-6)
        assert sides[True] and sides[False] and fallback

    def test_fallback_when_frobenius_exceeds_cutoff(self, rng):
        # four equal gaps of 8e-7: Frobenius norm 1.6e-6, spectral norm 8e-7
        b = perturbed_basis(rng, 6, 4, [8e-7] * 4)
        assert np.linalg.norm(b.conj().T @ b - np.eye(4)) > 1e-6
        assert orthonormal_drift(b) == pytest.approx(8e-7, rel=1e-6)
        assert orthonormal_drift(b) <= ORTHONORMAL_TOL
        over = perturbed_basis(rng, 6, 4, [1.2e-6] * 4)
        assert orthonormal_drift(over) == pytest.approx(1.2e-6, rel=1e-6)
        assert orthonormal_drift(over) > ORTHONORMAL_TOL

    def test_exact_and_empty_bases(self, rng):
        assert orthonormal_drift(np.zeros((3, 0))) == 0.0
        assert orthonormal_drift(np.eye(4)[:, 1:]) == 0.0
        assert orthonormal_drift(2.0 * np.eye(3)) == pytest.approx(3.0)


class TestInvarianceResidual:
    def test_matches_dense_formula(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(0, n + 1))
            basis = random_unitary(rng, n)[:, :d]
            stack = random_complex(rng, (3, n, n))
            comp = np.eye(n) - basis @ basis.conj().T
            dense = max((np.linalg.norm(comp @ m @ basis, 2) if d else 0.0) for m in stack)
            assert invariance_residual(basis, stack) == pytest.approx(dense, rel=1e-10, abs=1e-12)

    def test_all_of_the_space_skips_the_products(self, rng, monkeypatch):
        import covrep._linalg as linalg

        stack = random_complex(rng, (3, 5, 5))
        # a unitary basis spans the space too, but I - B B* is only near zero
        drifted = random_unitary(rng, 5)
        assert np.any(np.eye(5) - drifted @ drifted.conj().T)
        full_path = invariance_residual(drifted, stack)
        assert 0.0 < full_path < 1e-12
        calls = []
        monkeypatch.setattr(linalg, "max_op_norm", lambda m: calls.append(m) or max_op_norm(m))
        assert invariance_residual(np.eye(5), stack) == 0.0
        assert calls == []
        assert invariance_residual(drifted, stack) == full_path
        assert len(calls) == 1


class TestRankCutoff:
    """Every rank decision keeps a value exactly when it is above
    ``cut * max(1, largest)``: singular values for ``orth_cols`` and
    ``null_cols``, eigenvalues for ``gram_quotient``, ``inv_sqrt_psd`` and
    ``check_left_invertible``.  One value sits at 0.5x and at 2x the cutoff,
    with the largest value below, at and above 1."""

    CASES = [  # largest value, factor of the cutoff, kept
        (lead, factor, factor > 1.0) for lead in (0.01, 1.0, 100.0) for factor in (0.5, 2.0)
    ]

    @staticmethod
    def diag(lead, factor, cut=RANK_TOL):
        return np.diag([lead, factor * cut * max(1.0, lead)])

    @pytest.mark.parametrize("lead,factor,kept", CASES)
    def test_orth_cols_default_cut(self, lead, factor, kept):
        assert orth_cols(self.diag(lead, factor)).shape == (2, 1 + kept)

    @pytest.mark.parametrize("lead,factor,kept", [c for c in CASES if c[0] >= 1.0])
    def test_orth_cols_projector_cut(self, lead, factor, kept):
        # with the 0.5 cut a largest value of 0.01 would itself be dropped
        assert orth_cols(self.diag(lead, factor, 0.5), 0.5).shape == (2, 1 + kept)

    def test_orth_cols_zero_matrix(self):
        assert orth_cols(np.zeros((3, 2))).shape == (3, 0)
        assert orth_cols(np.zeros((3, 2)), 0.5).shape == (3, 0)

    @pytest.mark.parametrize("lead,factor,kept", CASES)
    def test_null_cols(self, lead, factor, kept):
        assert null_cols(self.diag(lead, factor)).shape == (2, 1 - kept)

    @pytest.mark.parametrize("lead,factor,kept", CASES)
    def test_gram_quotient(self, lead, factor, kept):
        [(w, v, keep)] = gram_quotient([self.diag(lead, factor)[None]])
        assert keep.tolist() == [[True, kept]]

    @pytest.mark.parametrize("split", [False, True], ids=["one-stack", "two-stacks"])
    @pytest.mark.parametrize("lead,factor,kept", CASES)
    def test_gram_quotient_across_blocks(self, lead, factor, kept, split):
        # the value sits in its own block, in the same stack as the largest
        # value or in a stack of another size; the cutoff comes from the other
        value = factor * RANK_TOL * max(1.0, lead)
        if split:
            stacks = [np.diag([lead])[None], np.diag([value, 0.0])[None]]
        else:
            stacks = [np.stack([np.diag([lead]), np.diag([value])])]
        out = gram_quotient(stacks)
        assert len(out) == len(stacks)
        kept_per_block = sum((keep.sum(axis=1).tolist() for _, _, keep in out), [])
        assert kept_per_block == [1, int(kept)]
        for (w, v, keep), stack in zip(out, stacks):
            # largest first, and v diagonalizes the block
            assert (np.diff(w, axis=1) <= 0).all()
            np.testing.assert_allclose(v @ (w[:, :, None] * v.conj().transpose(0, 2, 1)), stack, atol=1e-15)

    def test_gram_quotient_judges_the_whole(self):
        # -1e-8 and a drift of 1e-8 are within tol * (1 + 100), not within
        # tol * (1 + 1e-8): the bound is that of the block-diagonal matrix
        small = np.diag([-1e-8])
        skew = np.array([[1e-8, 1e-8], [0.0, 1e-8]])
        gram_quotient([np.diag([100.0])[None], small[None]])
        gram_quotient([np.stack([np.diag([100.0, 1.0]), skew])])
        with pytest.raises(PositivityFailure):
            gram_quotient([small[None]])
        with pytest.raises(ShapeMismatch):
            gram_quotient([skew[None]])

    def test_gram_quotient_rejects_non_square_blocks(self):
        # a bare matrix is not a stack
        with pytest.raises(ShapeMismatch):
            gram_quotient([np.zeros((2, 2))])
        with pytest.raises(ShapeMismatch):
            gram_quotient([np.zeros((1, 2, 3))])

    @pytest.mark.parametrize("lead,factor,kept", CASES)
    def test_inv_sqrt_psd(self, lead, factor, kept):
        a = self.diag(lead, factor)
        if kept:
            np.testing.assert_allclose(inv_sqrt_psd(a), np.diag(np.diag(a) ** -0.5), rtol=1e-12)
        else:
            with pytest.raises(PositivityFailure):
                inv_sqrt_psd(a)

    @pytest.mark.parametrize("lead,factor,kept", CASES)
    def test_check_left_invertible(self, lead, factor, kept):
        # T~*T~ of a scalar representation has the squared singular values of A
        rep = scalar_covrep(np.sqrt(self.diag(lead, factor)))
        assert rep.check_left_invertible().passed == kept
        assert rep.left_invertible() == kept
