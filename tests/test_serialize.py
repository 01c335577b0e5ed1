import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from covrep.errors import ParseError
from covrep.serialize import (
    dump_json,
    instance_from_json,
    instance_to_json,
    lists_from_json,
    matrix_from_json,
    matrix_to_json,
)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _record(shape, index, re, im=None):
    return {"shape": list(shape), "index": index, "re": re, "im": [0.0] * len(re) if im is None else im}


#: finite entries that each take another branch of the codec: zeros of both
#: signs, subnormals and the extremes of the exponent
_FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 1e-300, -1e300]),
)


@st.composite
def _arrays(draw):
    """Complex arrays of ndim 1 to 4, zero-length axes included, or a real array."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4))
    # one of the two strategies is mostly zeros, as the instances of graphs are
    fill = draw(st.sampled_from([_FINITE_FLOATS, st.just(0.0)]))
    parts = draw(hnp.arrays(np.float64, shape + (2,), elements=_FINITE_FLOATS, fill=fill))
    if draw(st.booleans()):
        return parts[..., 0]
    return parts.view(complex)[..., 0]


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

    @given(_arrays())
    @settings(max_examples=300, deadline=None)
    def test_round_trip_generated(self, a):
        record = matrix_to_json(a)
        text = dump_json(record)
        assert text == oracles.dump_json(record)
        back = matrix_from_json(json.loads(text), a.shape)
        assert back.shape == a.shape and back.dtype == complex
        assert np.array_equal(_bits(back), _bits(a.astype(complex)))

    def test_matches_entrywise_encoding(self, rng):
        a = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        a[0, 1] = 0.0
        a[1, 2, 3] = complex(-0.0, 0.0)
        a[1, 0, 0] = complex(0.0, -0.0)
        live = [(i, z) for i, z in enumerate(a.flat) if _bits(np.array([z])).any()]
        assert len(live) == a.size - 4
        assert matrix_to_json(a) == {
            "shape": [2, 3, 4],
            "index": [i for i, _ in live],
            "re": [z.real for _, z in live],
            "im": [z.imag for _, z in live],
        }

    def test_integers_that_fit_a_float(self):
        back = matrix_from_json(_record((1, 2), [0, 1], [1, 2 ** 70], [0, -3]), (1, 2))
        assert back.tolist() == [[1 + 0j, float(2 ** 70) - 3j]]

    @pytest.mark.parametrize(
        "data",
        [
            _record((2, 3), [0], [1.0]),
            _record((2,), [0], [1.0]),
            _record((1.0, 1.0), [0], [1.0]),
            _record((True, True), [0], [1.0]),
            _record((2, 2), [1, 0], [1.0, 2.0]),
            _record((2, 2), [1, 1], [1.0, 2.0]),
            _record((2, 2), [4], [1.0]),
            _record((2, 2), [-1], [1.0]),
            _record((2, 2), [2 ** 70], [1.0]),
            _record((2, 2), [0.0], [1.0]),
            _record((2, 2), [False], [1.0]),
            _record((2, 2), [0], [1.0], []),
            _record((2, 2), [0], [1.0, 2.0], [0.0, 0.0]),
            _record((2, 2), [0], [float("nan")]),
            _record((2, 2), [0], [1.0], [float("-inf")]),
            _record((2, 2), [0], ["1"]),
            _record((2, 2), [0], [None]),
            _record((2, 2), [0], [True]),
            _record((2, 2), [0], [1.0], [[0.0]]),
            _record((2, 2), [0], [10 ** 400]),
            _record((2, 2), 0, [1.0]),
            dict(_record((2, 2), [0], [1.0]), extra=1),
            {"shape": [2, 2], "index": [0], "re": [1.0]},
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            5,
        ],
        ids=["shape-not-dims", "shape-short", "shape-floats", "shape-bools", "index-unsorted",
             "index-repeated", "index-past-end", "index-negative", "index-beyond-int64",
             "index-float", "index-bool", "im-short", "re-and-im-long", "nan", "-inf",
             "numeric-string", "null", "bool-value", "list-value", "400-digits", "index-number",
             "extra-field", "no-im", "nested-lists", "number"],
    )
    def test_refused(self, data):
        with pytest.raises(ParseError):
            matrix_from_json(data, (2, 2))

    @pytest.mark.parametrize("shape", [(2 ** 31,) * 3, (2 ** 40, 2 ** 40)], ids=str)
    def test_dims_numpy_refuses_at_once(self, shape):
        # sizes past numpy's addressable range: refused before any allocation
        with pytest.raises(ParseError, match="cannot be allocated"):
            matrix_from_json(_record(shape, [0, 5], [1.0, 2.0]), shape)

    def test_instance_dims_numpy_refuses_at_once(self, corpus):
        data = instance_to_json(corpus["g1-induced"])
        n = data["sigma"]["hilbert_dim"] = 2 ** 40
        for record in data["sigma"]["images"]:
            record["shape"] = [record["shape"][0], n, n]
        with pytest.raises(ParseError, match="cannot be allocated"):
            instance_from_json(data)


class TestListCodec:
    """The version-1 reader: ``lists_from_json`` of the oracle's nested
    ``[re, im]`` lists is the array bit for bit."""

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2, 2), (0, 0), (0, 3, 3), (2, 0, 4)], ids=str)
    def test_round_trip(self, rng, shape):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if a.size:
            a.flat[0] = complex(-0.0, -0.0)
            a.flat[-1] = complex(5e-324, -2.5e-310)
        back = lists_from_json(json.loads(json.dumps(oracles.dense_matrix_json(a))), shape)
        assert back.shape == shape and np.array_equal(_bits(back), _bits(a))

    def test_integers_that_fit_a_float(self):
        back = lists_from_json([[[1, 0], [2 ** 70, -3]]], (1, 2))
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
            ([[[True, 0.5]]], (1, 1)),
            ([[[1.0, False]], [[0.5, 0.0]]], (2, 1)),
            ([[[True, False]]], (1, 1)),
            ([[[float("nan"), 0.0]]], (1, 1)),
        ],
        ids=["three-entries", "one-entry", "ragged", "numeric-strings", "string-among-big-ints",
             "null", "400-digits", "too-small", "empty-row", "number", "object", "bool-among-floats",
             "bool-in-second-row", "bools", "nan"],
    )
    def test_refused(self, data, shape):
        with pytest.raises(ParseError):
            lists_from_json(data, shape)


class TestFormat:
    """A file's ``format`` picks its layout: 1, or none, reads nested lists,
    2 reads records, and any other value is a ParseError."""

    def test_version_1_and_absent_read_lists(self, corpus):
        inst = corpus["jordan-pair"]
        want = dump_json(instance_to_json(inst))
        data = oracles.instance_to_json_v1(inst)
        assert data["format"] == 1
        assert dump_json(instance_to_json(instance_from_json(data))) == want
        del data["format"]
        assert dump_json(instance_to_json(instance_from_json(data))) == want

    def test_records_under_version_1_are_refused(self, corpus):
        data = instance_to_json(corpus["g1-induced"])
        data["format"] = 1
        with pytest.raises(ParseError):
            instance_from_json(data)

    @pytest.mark.parametrize("kind", ["g1-induced", "jordan-pair", "graph"])
    @pytest.mark.parametrize("version", [99, 0, -1, 3, None, True, 2.0, "2", [2]], ids=repr)
    def test_unsupported_format(self, corpus, kind, version):
        if kind == "graph":
            data = {"kind": "graph", "vertices": 2, "edges": [[0, 1]]}
        else:
            data = instance_to_json(corpus[kind])
        data["format"] = version
        with pytest.raises(ParseError, match="formats 1 and 2"):
            instance_from_json(data)


def test_mixed_block_instance_round_trip(rng):
    """A covariant representation over Mat(1) + Mat(2): the Gram's records
    have blocks of two sizes, and the file reloads to the same bits."""
    rep = oracles.algebra_over_itself((1, 2), (1, 2), rng)
    sigma, E = rep.sigma, rep.E
    data = json.loads(dump_json(instance_to_json(rep)))
    e = E.dim
    assert [r["shape"] for r in data["correspondence"]["gram"]] == [[e, e, 1, 1], [e, e, 2, 2]]
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



#: items of a flat row: mostly numbers, which take the fast path, and the
#: bools, non-finite floats and big integers that it must spell as ``json`` does
_ROW_ITEMS = st.one_of(
    st.integers(),
    st.integers(-(2 ** 200), 2 ** 200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(),
    st.booleans(),
    st.sampled_from([2 ** 63, -(2 ** 63) - 1, 2 ** 64, float("nan"), float("inf"), -float("inf"), -0.0]),
)


class TestNumberRow:
    """``dump_json`` writes a flat list of numbers, through its fast path or
    not, as the stock encoder does, at any indent."""

    @given(st.one_of(
        st.lists(st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False)), max_size=8),
        st.lists(_ROW_ITEMS, max_size=8),
    ))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, row):
        data = {"m": row, "n": [[row, tuple(row)]]}
        assert dump_json(data) == oracles.dump_json(data)
