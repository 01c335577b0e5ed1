import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


_PAIR_FLOATS = st.one_of(st.floats(), st.floats().map(np.float64))
#: rows of [re, im] pairs and items that are close to one
_NEAR_PAIRS = st.one_of(
    st.lists(_PAIR_FLOATS, min_size=2, max_size=2),
    st.tuples(st.floats(), st.floats()),
    st.lists(st.floats(), min_size=1, max_size=3),
    st.tuples(st.floats(), st.booleans()).map(list),
    st.tuples(st.integers(), st.floats()).map(list),
    st.lists(st.text(max_size=2), min_size=2, max_size=2),
    st.fixed_dictionaries({"x": st.floats(), "y": st.floats()}),
)


class TestDumpJson:
    """``dump_json`` writes the bytes of the stock encoder,
    ``json.dumps(data, sort_keys=True, indent=1) + "\\n"``, and refuses
    what it refuses with the same exception type."""

    @staticmethod
    def assert_like_oracle(data):
        try:
            want = oracles.dump_json(data)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                dump_json(data)
        else:
            assert dump_json(data) == want

    @pytest.mark.parametrize(
        "data",
        [
            [], {}, [[]], [{}], (), "", 0, -0.0, None, True,
            [1.0, True], [1, 2.0], ["ab", "cd"], [{"x": 1.0, "y": 2.0}], [[1.0, 2.0, 3.0]],
            [[1.0, True]], [[1, 2.0]], [["ab", "cd"]], [[{"x": 1.0, "y": 2.0}]], [[1.0]],
            [[1.0, 2.0], [3.0, 4.0, 5.0]], [[1.0, 2.0], [3, 4.0]], [[1.0, 2.0], (3.0, 4.0)],
            [(1.0, 2.0)], ([1.0, 2.0],), [[np.float64(0.1), np.float64(-2.5)]],
            [[float("nan"), 1.0]], [[1.0, float("inf")], [-float("inf"), -0.0]],
            [[5e-324, -2.5e-310], [1e300, -1e-300]], {"ünï": ["ασ", " ", "\x00"]},
            {1: "a", 2.5: "b", -3: "c"}, {True: 0, False: 1},
            {None: [0, False]}, {float("nan"): 1, -float("inf"): 2, 0.5: 3},
            [2 ** 200, -(2 ** 64), True, 1, False, 0],
            [[[[0.0, 1.0], [2.0, 3.0]], [[4.0, 5.0], [6.0, 7.0]]]],
        ],
        ids=repr,
    )
    def test_listed_cases(self, data):
        self.assert_like_oracle(data)

    @given(st.recursive(
        st.one_of(
            st.none(), st.booleans(), st.integers(), st.integers(-(2 ** 200), 2 ** 200),
            st.floats(), st.floats().map(np.float64), st.text(),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=3), children, max_size=4),
            st.dictionaries(
                st.one_of(st.integers(), st.floats(), st.booleans()), children, max_size=4
            ),
            st.dictionaries(st.none(), children, max_size=1),
            st.lists(_NEAR_PAIRS, max_size=5),
        ),
        max_leaves=30,
    ))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, data):
        self.assert_like_oracle(data)

    @given(st.lists(st.lists(st.lists(_PAIR_FLOATS, min_size=2, max_size=2), max_size=4), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_on_matrices(self, data):
        self.assert_like_oracle(data)

    @pytest.mark.parametrize(
        "data",
        [object(), {1.0, 2.0}, [{1.0, 2.0}], [[1.0, 2.0], {3.0, 4.0}], np.array([1.0, 2.0]),
         [np.array([1.0, 2.0])], [np.int64(3)], 1j, b"ab", {(1, 2): 3}, {"a": 1, 2: 3},
         [[1.0, 2.0], [3.0, object()]]],
        ids=["object", "set", "set-in-list", "set-as-pair", "ndarray", "ndarray-as-pair", "int64",
             "complex", "bytes", "tuple-key", "str-and-int-keys", "object-in-pair"],
    )
    def test_unsupported_input_raises_like_oracle(self, data):
        with pytest.raises(TypeError):
            oracles.dump_json(data)
        self.assert_like_oracle(data)

    def test_circular_reference_raises_like_oracle(self):
        row = [[1.0, 2.0]]
        row.append(row)
        outer = {"a": [1]}
        outer["a"].append(outer)
        for data in (row, outer, [outer]):
            with pytest.raises(ValueError):
                oracles.dump_json(data)
            self.assert_like_oracle(data)

    def test_shared_containers_are_not_circular(self):
        pair = [1.0, 2.0]
        shared = {"x": [pair, pair]}
        self.assert_like_oracle([shared, shared, [shared["x"]]])

