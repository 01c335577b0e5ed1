import numpy as np
import pytest

from covrep._linalg import (
    DEFAULT_TOL,
    gram_quotient,
    herm_residual,
    max_op_norm,
    min_eig_herm,
    random_complex,
    scale_of,
)
from covrep.errors import PositivityFailure, ShapeMismatch


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
            lo, drift, norm = min_eig_herm(a, stats=True)
            herm = (a + a.conj().T) / 2.0
            assert lo == pytest.approx(np.linalg.eigvalsh(herm)[0], rel=1e-12, abs=1e-12)
            assert drift == pytest.approx(np.linalg.norm(a - a.conj().T, 2), rel=1e-12, abs=1e-12)
            assert norm == pytest.approx(np.linalg.norm(herm, 2), rel=1e-12, abs=1e-12)

    def test_new_scale_never_above_scale_of(self, rng):
        # equal for Hermitian input, so allow rounding between eigvalsh and SVD
        for a in random_mats(rng, 40):
            for m in (a, a + a.conj().T, a @ a.conj().T):
                norm = min_eig_herm(m, stats=True)[2]
                assert 1.0 + norm <= scale_of(m) * (1.0 + 1e-12)

    def test_non_hermitian_input_raises(self):
        a = np.array([[1.0, 1e-6], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ShapeMismatch):
            min_eig_herm(a)
        with pytest.raises(ShapeMismatch):
            gram_quotient(a)

    def test_gram_quotient_negative_eigenvalue(self):
        with pytest.raises(PositivityFailure):
            gram_quotient(np.diag([1.0, -1e-6]))
        push, lift, kernel = gram_quotient(np.diag([2.0, -DEFAULT_TOL]))
        assert push.shape == (1, 2) and kernel.shape == (2, 1)


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
