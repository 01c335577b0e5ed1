import numpy as np
import pytest

from covrep.algebra import (
    MatrixBlocksAlgebra,
    StarRepresentation,
    validate_representation,
)
from covrep.errors import ShapeMismatch

import oracles


def checked(sigma):
    """validate_representation(sigma), asserted equal to the loop oracle."""
    report = validate_representation(sigma)
    oracles.assert_reports_agree(report, oracles.validate_representation(sigma))
    return report


def failed(report):
    return {item.name for item in report.failures()}


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
        alg.faithful(alg.mul(x, y)), alg.faithful(x) @ alg.faithful(y), atol=1e-12
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
    e12 = alg.faithful(alg.unit_coords(alg.unit_index(0, 0, 1)))
    e21 = alg.faithful(alg.unit_coords(alg.unit_index(0, 1, 0)))
    assert np.linalg.norm((e12 @ e21).T - e12.T @ e21.T, 2) == 1.0
    images = np.stack([alg.faithful(alg.unit_coords(k)).T for k in range(alg.dim)])
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
            alg.mul(coords, alg.one)
        with pytest.raises(ShapeMismatch):
            alg.star(coords)


@pytest.mark.parametrize("blocks", [(2, 1), (1, 2, 2), (3,)], ids=str)
def test_product_table_matches_block_products(blocks):
    alg = MatrixBlocksAlgebra(blocks)
    for k in range(alg.dim):
        uk = alg.unit_coords(k)
        np.testing.assert_array_equal(alg.star(uk), oracles.alg_star(alg, uk))
        for l in range(alg.dim):
            expected = oracles.alg_mul(alg, uk, alg.unit_coords(l))
            np.testing.assert_array_equal(alg.products[k, l], expected)
            np.testing.assert_array_equal(alg.mul(uk, alg.unit_coords(l)), expected)
