import numpy as np
import pytest

from covrep.algebra import (
    MatrixBlocksAlgebra,
    StarRepresentation,
    validate_representation,
)
from covrep.errors import NotStarRepresentation, ShapeMismatch

import oracles


def checked(sigma):
    """validate_representation(sigma), asserted equal to the loop oracle."""
    report = validate_representation(sigma)
    oracles.assert_reports_agree(report, oracles.validate_representation(sigma))
    return report


def failed(report):
    return {item.name for item in oracles.failures(report)}


def test_algebra_shape_invariants():
    with pytest.raises(ShapeMismatch):
        MatrixBlocksAlgebra(())
    with pytest.raises(ShapeMismatch):
        MatrixBlocksAlgebra((2, 0))
    alg = MatrixBlocksAlgebra((2, 1))
    assert alg.dim == 5
    assert alg.faithful_dim == 3


def test_coords_round_trip(rng):
    alg = MatrixBlocksAlgebra((2, 3))
    coords = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    back = alg.coords_from_blocks(alg.blocks_from_coords(coords))
    np.testing.assert_allclose(back, coords)


def test_multiplication_matches_faithful(rng):
    alg = MatrixBlocksAlgebra((2, 2))
    x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    y = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    np.testing.assert_allclose(
        alg.faithful(oracles.alg_mul(alg, x, y)), alg.faithful(x) @ alg.faithful(y), atol=1e-12
    )
    np.testing.assert_allclose(alg.faithful(alg.star(x)), alg.faithful(x).conj().T)


def test_identity_rep_of_mat2_passes():
    alg = MatrixBlocksAlgebra((2,))
    report = validate_representation(StarRepresentation.identity(alg))
    assert report.passed
    assert report.max_violation == 0.0


def test_diagonal_rep_of_c2_passes():
    alg = MatrixBlocksAlgebra((1, 1))
    report = validate_representation(StarRepresentation.identity(alg))
    assert report.passed


def test_transpose_fails_multiplicativity():
    # (ab)^T != a^T b^T in general: the basis-pair oracle is e12 e21 = e11
    alg = MatrixBlocksAlgebra((2,))
    e12 = alg.faithful(oracles.unit_coords(alg, oracles.unit_index(alg, 0, 0, 1)))
    e21 = alg.faithful(oracles.unit_coords(alg, oracles.unit_index(alg, 0, 1, 0)))
    assert np.linalg.norm((e12 @ e21).T - e12.T @ e21.T, 2) == 1.0
    images = np.stack([alg.faithful(oracles.unit_coords(alg, k)).T for k in range(alg.dim)])
    report = checked(StarRepresentation(alg, 2, images))
    assert "multiplicativity" in failed(report)


def test_oblique_idempotents_fail_star_preservation_only():
    # sigma(b_0) and sigma(b_1) = I - sigma(b_0) are idempotents that sum to
    # I, so sigma is multiplicative and unital, but not self-adjoint
    alg = MatrixBlocksAlgebra((1, 1))
    p = np.array([[1.0, 1.0], [0.0, 0.0]])
    report = checked(StarRepresentation(alg, 2, np.stack([p, np.eye(2) - p])))
    assert failed(report) == {"star_preservation"}


def test_zero_summand_fails_nondegeneracy_only():
    # the defining representation plus a zero summand: sigma(1) != I
    alg = MatrixBlocksAlgebra((2, 1))
    images = np.zeros((alg.dim, 4, 4), dtype=complex)
    images[:, :3, :3] = StarRepresentation.identity(alg).images
    report = checked(StarRepresentation(alg, 4, images))
    assert failed(report) == {"nondegeneracy"}


def test_rep_apply_examples(rng):
    alg = MatrixBlocksAlgebra((1, 1))
    sigma = StarRepresentation.identity(alg)
    np.testing.assert_allclose(sigma.apply_coords(alg.one), np.eye(2))
    zero = alg.coords_from_blocks([np.zeros((1, 1)), np.zeros((1, 1))])
    np.testing.assert_allclose(sigma.apply_coords(zero), np.zeros((2, 2)))
    elem = alg.coords_from_blocks([[[2.0]], [[3.0]]])
    np.testing.assert_allclose(sigma.apply_coords(elem), np.diag([2.0, 3.0]))
    # linearity in the element
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    np.testing.assert_allclose(
        sigma.apply_coords(a + b), sigma.apply_coords(a) + sigma.apply_coords(b)
    )


def test_rep_apply_algebra_mismatch():
    # coords of another algebra have the wrong length
    sigma = StarRepresentation.identity(MatrixBlocksAlgebra((1, 1)))
    other = MatrixBlocksAlgebra((2,))
    with pytest.raises(ShapeMismatch):
        sigma.apply_coords(other.one)


def test_star_contractivity_on_random_elements(rng):
    # |sigma(a)| <= |a| for *-homomorphisms; equality for the faithful rep
    alg = MatrixBlocksAlgebra((2, 1))
    sigma = StarRepresentation.identity(alg)
    for _ in range(20):
        coords = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        norm = np.linalg.norm(alg.faithful(coords), 2)
        assert np.linalg.norm(sigma.apply_coords(coords), 2) <= norm + 1e-12


def test_nondegenerate_identity_acts_as_identity():
    alg = MatrixBlocksAlgebra((2, 1))
    sigma = StarRepresentation.identity(alg)
    np.testing.assert_allclose(sigma.apply_coords(alg.one), np.eye(3), atol=1e-14)


def test_element_shape_validation():
    alg = MatrixBlocksAlgebra((2, 1))
    with pytest.raises(ShapeMismatch):
        alg.coords_from_blocks((np.eye(2),))
    with pytest.raises(ShapeMismatch):
        alg.coords_from_blocks((np.eye(3), np.eye(1)))
    # coords of the wrong length, also longer ones, are refused
    for coords in (np.ones(4), np.ones(6)):
        with pytest.raises(ShapeMismatch):
            alg.blocks_from_coords(coords)
        with pytest.raises(ShapeMismatch):
            alg.star(coords)


@pytest.mark.parametrize("blocks", [(2, 1), (1, 2, 2), (3,)], ids=str)
def test_product_table_matches_block_products(blocks):
    alg = MatrixBlocksAlgebra(blocks)
    for k in range(alg.dim):
        uk = oracles.unit_coords(alg, k)
        np.testing.assert_array_equal(alg.star(uk), oracles.alg_star(alg, uk))
        for l in range(alg.dim):
            expected = oracles.alg_mul(alg, uk, oracles.unit_coords(alg, l))
            np.testing.assert_array_equal(alg.products[k, l], expected)


class TestMultiplicity:
    """sigma's own basis: U is unitary and U* sigma(e^b_pq) U = e_pq (x) I_{m_b}."""

    CASES = [  # block dims, multiplicities, dims of ker sigma(1)
        ((2, 1), (2, 3), 0),
        ((1, 2, 2), (2, 1, 3), 0),
        ((1, 2, 2), (2, 0, 1), 2),
        ((3,), (2,), 1),
        # the largest block is killed
        ((2, 1), (0, 2), 0),
        ((2, 1), (0, 1), 1),
        # sigma = 0
        ((2, 1), (0, 0), 2),
    ]

    @pytest.mark.parametrize("blocks,mults,extra", CASES, ids=str)
    def test_recovers_the_decomposition(self, rng, blocks, mults, extra):
        alg = MatrixBlocksAlgebra(blocks)
        sigma = oracles.multiplicity_representation(alg, mults, rng, extra)
        mult = sigma.multiplicity
        assert mult.mults == mults
        live = [(d, [m for db, m in zip(blocks, mults) if db == d and m]) for d in sorted(set(blocks))]
        assert [(g.d, g.present.sum(axis=1).tolist()) for g in mult.groups] == [x for x in live if x[1]]
        u, n = mult.basis, sigma.hilbert_dim
        np.testing.assert_allclose(u.conj().T @ u, np.eye(n), rtol=0, atol=1e-12)
        offsets = np.cumsum([0] + [d * m for d, m in zip(blocks, mults)])
        x = rng.standard_normal((n + 1, n))
        x[n] = 0.0
        for b, d in enumerate(blocks):
            for p in range(d):
                for q in range(d):
                    target = np.zeros((n, n))
                    at = offsets[b] + np.arange(mults[b])
                    target[at + p * mults[b], at + q * mults[b]] = 1.0
                    k = oracles.unit_index(alg, b, p, q)
                    np.testing.assert_allclose(u.conj().T @ sigma.images[k] @ u, target, rtol=0, atol=1e-12)
                    np.testing.assert_array_equal(x[mult.moves[k]], target @ x[:n])
                    # the rows the gather reads, each once
                    np.testing.assert_array_equal(mult.reads[k], target.sum(axis=0))
        assert mult.span == offsets[-1]

    def test_built_once(self, rng):
        sigma = oracles.multiplicity_representation(MatrixBlocksAlgebra((2, 1)), (1, 2), rng)
        assert sigma.multiplicity is sigma.multiplicity

    @pytest.mark.parametrize("name", ["oblique", "doubled", "transposed"])
    def test_not_a_star_representation_raises_with_residual(self, name):
        alg = MatrixBlocksAlgebra((1, 1) if name == "oblique" else (2,))
        if name == "oblique":
            p = np.array([[1.0, 1.0], [0.0, 0.0]])
            images = np.stack([p, np.eye(2) - p])
        elif name == "doubled":
            images = 2.0 * StarRepresentation.identity(alg).images
        else:
            images = StarRepresentation.identity(alg).images.transpose(0, 2, 1)
        sigma = StarRepresentation(alg, images.shape[1], images)
        assert not validate_representation(sigma).passed
        with pytest.raises(NotStarRepresentation, match="residual"):
            sigma.multiplicity

    def test_too_many_block_vectors_raise(self):
        # sigma(e^0_11) = 1 on C^1 asks for a 2-dimensional first block
        alg = MatrixBlocksAlgebra((2, 1))
        images = np.zeros((alg.dim, 1, 1))
        images[oracles.unit_index(alg, 0, 0, 0)] = 1.0
        sigma = StarRepresentation(alg, 1, images)
        assert not validate_representation(sigma).passed
        with pytest.raises(NotStarRepresentation, match="2 basis vectors in dimension 1"):
            sigma.multiplicity
