"""JSON encodings for instances: algebras, representations, correspondences,
covariant representations, product systems and tuples.

Conventions: a matrix, or a stack of matrices, is one record
``{"shape": [...], "index": [...], "re": [...], "im": [...]}``.  ``index``
lists, in increasing order, the row-major flat positions of the entries
whose (re, im) bit pattern is nonzero, so ``-0.0`` keeps its sign, and
``re`` and ``im`` hold their parts; every other entry is zero.  A
representation is one record per algebra block, the images of its matrix
units in row-major unit order; a Gram is one record per algebra block, of
shape (e, e, d_b, d_b).  Instance files carry a ``kind`` discriminator
("covariant_rep", "product_rep", or "graph") and a ``format``.

Files of ``format`` 1, or with no ``format``, are read in the nested-list
layout of version 1: a complex scalar is ``[re, im]``, a matrix a row-major
nested list of scalars, and the Gram a list per basis pair of one matrix per
block.  Any other ``format`` is a ParseError.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ._linalg import DEFAULT_TOL, as_complex
from .algebra import MatrixBlocksAlgebra, StarRepresentation
from .correspondence import ChainTower, Correspondence
from .covrep import CovariantRep
from .errors import ParseError, ShapeMismatch
from .product import ProductRep, ProductSystem

FORMAT_VERSION = 2

_RECORD_FIELDS = {"shape", "index", "re", "im"}


def _field(data, key: str):
    """``data[key]``, or ParseError when the instance lacks the field."""
    try:
        return data[key]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"instance has no {key!r} field") from exc


def matrix_to_json(mat) -> dict:
    """A matrix, or a stack of matrices, as one record of its nonzero entries."""
    a = as_complex(mat)
    # complex128 is a pair of float64 bit for bit
    parts = np.ascontiguousarray(a).reshape(-1).view(float).reshape(-1, 2)
    bits = parts.view(np.uint64)
    live = np.flatnonzero(bits[:, 0] | bits[:, 1])
    return {
        "shape": list(a.shape),
        "index": live.tolist(),
        "re": parts[live, 0].tolist(),
        "im": parts[live, 1].tolist(),
    }


def _numbers(values, types: tuple, dtype, what: str) -> np.ndarray:
    """The JSON list ``values`` as an array, or ParseError unless it lists
    only items of ``types`` (a bool is no int here) that fit ``dtype``."""
    if not isinstance(values, list) or not set(map(type, values)) <= set(types):
        raise ParseError(f"matrix {what} must be a list of {' or '.join(t.__name__ for t in types)} values")
    try:
        return np.array(values, dtype=dtype)
    except OverflowError as exc:
        raise ParseError(f"matrix {what}: {exc}") from exc


def matrix_from_json(data, shape) -> np.ndarray:
    """The complex array of exactly ``shape`` that a record encodes, bit for
    bit, or ParseError.  Values must be JSON numbers (integers that fit a
    float included) and finite."""
    if not isinstance(data, dict) or data.keys() != _RECORD_FIELDS:
        raise ParseError("a matrix is a record with exactly the fields 'shape', 'index', 're' and 'im'")
    shape = tuple(shape)
    if _numbers(data["shape"], (int,), np.int64, "shape").tolist() != list(shape):
        raise ParseError(f"matrix has shape {data['shape']}, expected {list(shape)}")
    size = math.prod(shape)
    index = _numbers(data["index"], (int,), np.int64, "index")
    if index.size and (index[0] < 0 or int(index[-1]) >= size or (np.diff(index) <= 0).any()):
        raise ParseError(f"matrix index must list positions below {size} in increasing order")
    re = _numbers(data["re"], (int, float), float, "re")
    im = _numbers(data["im"], (int, float), float, "im")
    if not re.size == im.size == index.size:
        raise ParseError("matrix re and im must list one value per index")
    # json reads NaN and Infinity, which no residual can judge
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ParseError("matrix has a non-finite entry")
    try:
        parts = np.zeros((size, 2))
    except (ValueError, MemoryError) as exc:
        raise ParseError(f"matrix of shape {list(shape)} cannot be allocated: {exc}") from exc
    parts[index, 0] = re
    parts[index, 1] = im
    # pairs of float64 are complex128 bit for bit, signed zeros included
    return parts.view(complex).reshape(shape)


def lists_from_json(data, shape) -> np.ndarray:
    """The complex array of exactly ``shape`` that nested lists of
    ``[re, im]`` encode (the version-1 layout), or ParseError.  Entries must
    be JSON numbers (integers that fit a float included) and finite."""
    want = (*shape, 2)
    if 0 in want:
        # an empty list shows no axis after its own
        want = want[: want.index(0) + 1]
    try:
        # objects keep each entry's type: numpy would read a bool among floats as 1.0
        raw = np.array(data, dtype=object)
    except ValueError as exc:
        raise ParseError(f"malformed matrix: {exc}") from exc
    if raw.shape != want:
        raise ParseError(f"matrix lists have shape {raw.shape}, expected {want} ([re, im] last)")
    if not set(map(type, raw.flat)) <= {int, float}:
        raise ParseError("matrix entries must be numbers")
    try:
        raw = raw.astype(float)
    except OverflowError as exc:
        raise ParseError(f"malformed matrix: {exc}") from exc
    if not np.isfinite(raw).all():
        raise ParseError("matrix has a non-finite entry")
    return np.ascontiguousarray(raw).view(complex).reshape(shape)


#: the matrix reader of each ``format`` this version reads
_READERS = {1: lists_from_json, 2: matrix_from_json}


def _version(data: dict) -> int:
    """The instance's ``format``: 1 when absent, else ParseError unless read here."""
    version = data.get("format", 1)
    if type(version) is not int or version not in _READERS:
        raise ParseError(
            f"format {version!r} is not supported: this version reads formats "
            f"{' and '.join(map(str, _READERS))}, and a file without one as format 1"
        )
    return version


def _meta(data) -> dict | None:
    meta = data.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ParseError("meta must be an object")
    return meta


def algebra_to_json(algebra: MatrixBlocksAlgebra) -> dict:
    return {"blocks": list(algebra.block_dims)}


def algebra_from_json(data) -> MatrixBlocksAlgebra:
    try:
        return MatrixBlocksAlgebra(tuple(int(d) for d in data["blocks"]))
    except (KeyError, TypeError, ValueError, ShapeMismatch) as exc:
        raise ParseError(f"malformed algebra: {exc}") from exc


def _per_block(entries, algebra: MatrixBlocksAlgebra, what: str) -> list:
    if not isinstance(entries, list) or len(entries) != len(algebra.block_dims):
        raise ParseError(f"{what} must list one entry per algebra block ({len(algebra.block_dims)})")
    return entries


def sigma_to_json(sigma: StarRepresentation) -> dict:
    # per block, the images of its d^2 units
    per_block = np.split(sigma.images, np.cumsum([d * d for d in sigma.algebra.block_dims])[:-1])
    return {"hilbert_dim": sigma.hilbert_dim, "images": [matrix_to_json(b) for b in per_block]}


def sigma_from_json(algebra: MatrixBlocksAlgebra, data, tol: float, version: int) -> StarRepresentation:
    read = _READERS[version]
    try:
        n = int(data["hilbert_dim"])
        blocks = _per_block(data["images"], algebra, "images")
        images = np.concatenate([read(b, (d * d, n, n)) for b, d in zip(blocks, algebra.block_dims)])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed representation: {exc}") from exc
    return StarRepresentation(algebra, n, images, tol)


def correspondence_to_json(E: Correspondence) -> dict:
    return {
        "dim": E.dim,
        "right_action": matrix_to_json(E.right_action),
        "left_action": matrix_to_json(E.left_action),
        "gram": [matrix_to_json(b) for b in E.algebra.blocks_from_coords(E.gram)],
    }


def correspondence_from_json(algebra: MatrixBlocksAlgebra, data, tol: float, version: int) -> Correspondence:
    read = _READERS[version]
    try:
        e = int(data["dim"])
        right = read(data["right_action"], (algebra.dim, e, e))
        left = read(data["left_action"], (algebra.dim, e, e))
        gram = data["gram"]
        if version == 1:
            # gram[i][j][b] regrouped as [b][i][j]; zip(strict=True) refuses ragged cells
            rows = [list(zip(*row, strict=True)) for row in gram]
            gram = list(zip(*rows, strict=True)) if rows else [[]] * len(algebra.block_dims)
        blocks = _per_block(gram, algebra, "gram")
        gram = algebra.coords_from_blocks(read(b, (e, e, d, d)) for b, d in zip(blocks, algebra.block_dims))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed correspondence: {exc}") from exc
    return Correspondence(algebra, e, right, left, gram, tol)


def covrep_to_json(rep: CovariantRep) -> dict:
    out = {
        "kind": "covariant_rep",
        "format": FORMAT_VERSION,
        "algebra": algebra_to_json(rep.sigma.algebra),
        "sigma": sigma_to_json(rep.sigma),
        "correspondence": correspondence_to_json(rep.E),
        "T": matrix_to_json(rep.T),
    }
    if rep.meta:
        out["meta"] = _plain(rep.meta)
    return out


def covrep_from_json(data, tol: float, version: int) -> CovariantRep:
    algebra = algebra_from_json(_field(data, "algebra"))
    sigma = sigma_from_json(algebra, _field(data, "sigma"), tol, version)
    E = correspondence_from_json(algebra, _field(data, "correspondence"), tol, version)
    T = _READERS[version](_field(data, "T"), (E.dim, sigma.hilbert_dim, sigma.hilbert_dim))
    return CovariantRep(sigma, E, T, tol=tol, meta=_meta(data))


def product_system_to_json(ps: ProductSystem) -> dict:
    return {
        "k": ps.k,
        "correspondences": [correspondence_to_json(E) for E in ps.correspondences],
        "flips": {
            f"{i+1},{j+1}": matrix_to_json(mat) for (i, j), mat in sorted(ps.flips.items())
        },
    }


def product_system_from_json(algebra: MatrixBlocksAlgebra, data, tol: float, version: int) -> ProductSystem:
    try:
        k = int(data["k"])
        corrs = [
            correspondence_from_json(algebra, c, tol, version) for c in data["correspondences"]
        ]
        if len(corrs) != k:
            raise ParseError("correspondence count does not match k")
        chain = ChainTower(corrs, tol)
        flips = {}
        for key, mat in data["flips"].items():
            i, j = (int(x) - 1 for x in key.split(","))
            if not 0 <= j < i < k:
                raise ParseError(f"flip {key!r}: flips are stored under \"i,j\" with 1 <= j < i <= {k}")
            want = (chain.corr((j, i)).dim, chain.corr((i, j)).dim)
            flips[(i, j)] = _READERS[version](mat, want)
        missing = [f"{i+1},{j+1}" for i in range(k) for j in range(i) if (i, j) not in flips]
        if missing:
            raise ParseError(f"product system has no flips under {missing}")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"malformed product system: {exc}") from exc
    return ProductSystem(corrs, flips, tol, chain=chain)


def product_rep_to_json(pr: ProductRep) -> dict:
    out = {
        "kind": "product_rep",
        "format": FORMAT_VERSION,
        "algebra": algebra_to_json(pr.sigma.algebra),
        "sigma": sigma_to_json(pr.sigma),
        "product_system": product_system_to_json(pr.system),
        "T": [matrix_to_json(rep.T) for rep in pr.reps],
    }
    if pr.meta:
        out["meta"] = _plain(pr.meta)
    return out


def product_rep_from_json(data, tol: float, version: int) -> ProductRep:
    algebra = algebra_from_json(_field(data, "algebra"))
    sigma = sigma_from_json(algebra, _field(data, "sigma"), tol, version)
    system = product_system_from_json(algebra, _field(data, "product_system"), tol, version)
    n = sigma.hilbert_dim
    T_all = _field(data, "T")
    if not isinstance(T_all, list) or len(T_all) != system.k:
        raise ParseError(f"T must list {system.k} coordinates, one per correspondence")
    read = _READERS[version]
    T_list = [read(T, (E.dim, n, n)) for T, E in zip(T_all, system.correspondences)]
    return ProductRep(system, sigma, T_list, tol=tol, meta=_meta(data))


def graph_from_json(data, tol: float) -> Correspondence:
    from .examples import DirectedGraph, graph_correspondence

    try:
        graph = DirectedGraph(
            int(data["vertices"]),
            tuple((int(s), int(t)) for s, t in data["edges"]),
            tuple(float(w) for w in data["weights"]) if "weights" in data else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed graph: {exc}") from exc
    return graph_correspondence(graph, tol)


def instance_to_json(obj) -> dict:
    if isinstance(obj, CovariantRep):
        return covrep_to_json(obj)
    if isinstance(obj, ProductRep):
        return product_rep_to_json(obj)
    raise ParseError(f"cannot serialize object of type {type(obj).__name__}")


def instance_from_json(data, tol: float = DEFAULT_TOL):
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("instance files need a 'kind' field")
    kind = data["kind"]
    version = _version(data)
    if kind == "covariant_rep":
        return covrep_from_json(data, tol, version)
    if kind == "product_rep":
        return product_rep_from_json(data, tol, version)
    if kind == "graph":
        return graph_from_json(data, tol)
    raise ParseError(f"unknown instance kind {kind!r}")


def load_instance(path, tol: float = DEFAULT_TOL):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return instance_from_json(data, tol)


def dump_json(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=1) + "\\n"``, byte for byte.

    With ``indent`` set, ``json`` runs its pure-Python encoder, one
    generator per container; this writer joins each container once, and a
    flat list of ints and floats (a matrix record's fields) in one
    ``str.join`` of their reprs.  Unsupported types, a bare ndarray among
    them, and circular references raise the TypeError and ValueError that
    ``json.dumps`` raises.
    """
    return _value(data, "\n", set()) + "\n"


_FLOAT_REPR = float.__repr__
_INT_REPR = int.__repr__
_ENCODE_STR = json.encoder.encode_basestring_ascii
_INF = float("inf")
#: the item types of a flat row of numbers; bools and subclasses of int and
#: float take the generic path
_NUMBER_TYPES = {int, float}


def _scalar(o) -> str | None:
    """The JSON text of None, a bool, an int or a float, else None."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return _INT_REPR(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return _FLOAT_REPR(o)
    return None


def _value(o, nl: str, markers: set) -> str:
    """``o`` as JSON text whose closing bracket sits at the indent of ``nl``;
    ``markers`` holds the ids of the containers that enclose ``o``."""
    if isinstance(o, str):
        return _ENCODE_STR(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + " "
        body = _number_row(o, inner)
        if body is None:
            _enter(o, markers)
            body = ("," + inner).join([_value(v, inner, markers) for v in o])
            markers.discard(id(o))
        return "[" + inner + body + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + " "
        _enter(o, markers)
        body = ("," + inner).join(
            [_ENCODE_STR(_key(k)) + ": " + _value(v, inner, markers) for k, v in sorted(o.items())]
        )
        markers.discard(id(o))
        return "{" + inner + body + nl + "}"
    text = _scalar(o)
    if text is None:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    return text


def _enter(o, markers: set) -> None:
    if id(o) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(o))


def _key(k) -> str:
    text = k if isinstance(k, str) else _scalar(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return text


def _number_row(row, inner: str) -> str | None:
    """The items of a list of ints and floats at the indent of ``inner``, or
    None for any other list.  A row with ``nan`` or ``inf`` is None too: no
    int's or finite float's repr has the letter n, and the generic path
    spells them as ``json`` does."""
    if not set(map(type, row)) <= _NUMBER_TYPES:
        return None
    body = ("," + inner).join(map(repr, row))
    return None if "n" in body else body


def _plain(meta: dict) -> dict:
    out = {}
    for key, val in meta.items():
        if isinstance(val, (bool, int, float, str)):
            out[key] = val
        elif isinstance(val, (tuple, list)):
            out[key] = [v if isinstance(v, (bool, int, float, str)) else str(v) for v in val]
        else:
            out[key] = str(val)
    return out
