import numpy as np
import pytest

from covrep.algebra import (
    AlgebraElement,
    MatrixBlocksAlgebra,
    StarRepresentation,
    validate_representation,
)
from covrep.errors import AlgebraMismatch, ShapeMismatch


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
    report = validate_representation(StarRepresentation(alg, 2, images))
    failed = {item.name for item in report.failures()}
    assert "multiplicativity" in failed


def test_rep_apply_examples(rng):
    alg = MatrixBlocksAlgebra((1, 1))
    sigma = StarRepresentation.identity(alg)
    one = alg.from_coords(alg.one)
    np.testing.assert_allclose(sigma.apply(one), np.eye(2))
    zero = alg.element([np.zeros((1, 1)), np.zeros((1, 1))])
    np.testing.assert_allclose(sigma.apply(zero), np.zeros((2, 2)))
    elem = alg.element([[[2.0]], [[3.0]]])
    np.testing.assert_allclose(sigma.apply(elem), np.diag([2.0, 3.0]))
    # linearity in the element
    a = alg.from_coords(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    b = alg.from_coords(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    np.testing.assert_allclose(
        sigma.apply(a + b), sigma.apply(a) + sigma.apply(b)
    )


def test_rep_apply_algebra_mismatch():
    sigma = StarRepresentation.identity(MatrixBlocksAlgebra((1, 1)))
    other = MatrixBlocksAlgebra((2,))
    elem = other.from_coords(other.one)
    with pytest.raises(AlgebraMismatch):
        sigma.apply(elem)


def test_star_contractivity_on_random_elements(rng):
    # |sigma(a)| <= |a| for *-homomorphisms; equality for the faithful rep
    alg = MatrixBlocksAlgebra((2, 1))
    sigma = StarRepresentation.identity(alg)
    for _ in range(20):
        coords = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        elem = alg.from_coords(coords)
        assert np.linalg.norm(sigma.apply(elem), 2) <= elem.norm() + 1e-12


def test_nondegenerate_identity_acts_as_identity():
    alg = MatrixBlocksAlgebra((2, 1))
    sigma = StarRepresentation.identity(alg)
    np.testing.assert_allclose(sigma.apply_coords(alg.one), np.eye(3), atol=1e-14)


def test_element_shape_validation():
    alg = MatrixBlocksAlgebra((2, 1))
    with pytest.raises(ShapeMismatch):
        AlgebraElement(alg, (np.eye(2),))
    with pytest.raises(ShapeMismatch):
        AlgebraElement(alg, (np.eye(3), np.eye(1)))
