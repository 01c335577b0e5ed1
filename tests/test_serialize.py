import json

import numpy as np
import pytest

import oracles
from covrep.algebra import MatrixBlocksAlgebra
from covrep.correspondence import algebra_correspondence
from covrep.covrep import CovariantRep
from covrep.errors import ParseError
from covrep.serialize import dump_json, instance_from_json, instance_to_json, matrix_from_json, matrix_to_json


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestMatrixCodec:
    """``matrix_from_json(matrix_to_json(a), a.shape)`` is ``a`` bit for bit,
    through JSON text too."""

    @pytest.mark.parametrize(
        "shape", [(3, 3), (2, 3), (4, 2, 2), (0, 0), (0, 3, 3), (3, 0), (2, 0, 4)], ids=str
    )
    def test_round_trip(self, rng, shape):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if a.size:
            a.flat[0] = complex(-0.0, -0.0)
            a.flat[-1] = complex(5e-324, -2.5e-310)  # subnormals
        for data in (matrix_to_json(a), json.loads(json.dumps(matrix_to_json(a)))):
            back = matrix_from_json(data, shape)
            assert back.shape == shape and back.dtype == complex
            assert np.array_equal(_bits(back), _bits(a))

    def test_matches_entrywise_encoding(self, rng):
        a = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        assert matrix_to_json(a) == [[[[z.real, z.imag] for z in row] for row in m] for m in a]

    def test_integers_that_fit_a_float(self):
        back = matrix_from_json([[[1, 0], [2 ** 70, -3]]], (1, 2))
        assert back.tolist() == [[1 + 0j, float(2 ** 70) - 3j]]

    @pytest.mark.parametrize(
        "data,shape",
        [
            ([[[1.0, 0.0, 7.0]]], (1, 1)),
            ([[[1.0]]], (1, 1)),
            ([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]], (2, 1)),
            ([[["1", "0"]]], (1, 1)),
            ([[["1", 2 ** 70]]], (1, 1)),
            ([[[None, 0.0]]], (1, 1)),
            ([[[10 ** 400, 0]]], (1, 1)),
            ([[[1.0, 0.0]]], (2, 2)),
            ([[]], (0, 0)),
            (5, (1, 1)),
            ({"re": 1.0}, (1, 1)),
        ],
        ids=["three-entries", "one-entry", "ragged", "numeric-strings", "string-among-big-ints",
             "null", "400-digits", "too-small", "empty-row", "number", "object"],
    )
    def test_refused(self, data, shape):
        with pytest.raises(ParseError):
            matrix_from_json(data, shape)


def test_mixed_block_instance_round_trip(rng):
    """A covariant representation over Mat(1) + Mat(2): the Gram's elements
    list blocks of two sizes, and the file reloads to the same bits."""
    alg = MatrixBlocksAlgebra((1, 2))
    sigma = oracles.multiplicity_representation(alg, (1, 2), rng)
    E = algebra_correspondence(alg)
    # T(b_k) = sigma(b_k) is covariant for the algebra over itself
    rep = CovariantRep(sigma, E, sigma.images)
    data = json.loads(dump_json(instance_to_json(rep)))
    assert [len(block) for block in data["correspondence"]["gram"][0][0]] == [1, 2]
    back = instance_from_json(data)
    for mine, theirs in ((rep.T, back.T), (E.gram, back.E.gram), (sigma.images, back.sigma.images),
                         (E.left_action, back.E.left_action), (E.right_action, back.E.right_action)):
        assert np.array_equal(_bits(mine), _bits(theirs))
    assert dump_json(instance_to_json(back)) == dump_json(data)
