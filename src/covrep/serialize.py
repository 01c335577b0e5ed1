"""JSON encodings for instances: algebras, representations, correspondences,
covariant representations, product systems and tuples.

Conventions: a complex scalar is ``[re, im]``; a matrix is a row-major
nested list of scalars; an algebra element is one matrix per block; a
representation lists, per block, the image of each matrix unit in row-major
unit order.  Instance files carry a ``kind`` discriminator
("covariant_rep", "product_rep", or "graph").
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from ._linalg import DEFAULT_TOL, as_complex
from .algebra import MatrixBlocksAlgebra, StarRepresentation
from .correspondence import ChainTower, Correspondence
from .covrep import CovariantRep
from .errors import ParseError, ShapeMismatch
from .product import ProductRep, ProductSystem

FORMAT_VERSION = 1


def _field(data, key: str):
    """``data[key]``, or ParseError when the instance lacks the field."""
    try:
        return data[key]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"instance has no {key!r} field") from exc


def matrix_to_json(mat) -> list:
    """A matrix, or a stack of matrices, as nested lists of ``[re, im]``."""
    a = as_complex(mat)
    return np.stack((a.real, a.imag), -1).tolist()


def matrix_from_json(data, shape) -> np.ndarray:
    """The complex array of exactly ``shape`` that nested lists of
    ``[re, im]`` encode, or ParseError.  Entries must be JSON numbers
    (integers that fit a float included) and finite."""
    want = (*shape, 2)
    if 0 in want:
        # an empty list shows no axis after its own
        want = want[: want.index(0) + 1]
    try:
        raw = np.array(data)
        # integers too long for int64 come as Python objects
        if raw.dtype == object and all(isinstance(x, (int, float)) for x in raw.flat):
            raw = raw.astype(float)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix: {exc}") from exc
    if raw.dtype.kind not in "biuf":
        raise ParseError("matrix entries must be numbers")
    if raw.shape != want:
        raise ParseError(f"matrix lists have shape {raw.shape}, expected {want} ([re, im] last)")
    # json reads NaN and Infinity, which no residual can judge
    if not np.isfinite(raw).all():
        raise ParseError("matrix has a non-finite entry")
    # pairs of float64 are complex128 bit for bit, signed zeros included
    return np.ascontiguousarray(raw, dtype=float).view(complex).reshape(shape)


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


def sigma_to_json(sigma: StarRepresentation) -> dict:
    units = iter(matrix_to_json(sigma.images))
    images = [list(itertools.islice(units, d * d)) for d in sigma.algebra.block_dims]
    return {"hilbert_dim": sigma.hilbert_dim, "images": images}


def sigma_from_json(algebra: MatrixBlocksAlgebra, data, tol: float) -> StarRepresentation:
    try:
        n = int(data["hilbert_dim"])
        blocks = data["images"]
        if [len(b) for b in blocks] != [d * d for d in algebra.block_dims]:
            raise ParseError(f"images must list {[d * d for d in algebra.block_dims]} unit images per block")
        images = matrix_from_json(list(itertools.chain.from_iterable(blocks)), (algebra.dim, n, n))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed representation: {exc}") from exc
    return StarRepresentation(algebra, n, images, tol)


def correspondence_to_json(E: Correspondence) -> dict:
    blocks = [matrix_to_json(b) for b in E.algebra.blocks_from_coords(E.gram)]
    return {
        "dim": E.dim,
        "right_action": matrix_to_json(E.right_action),
        "left_action": matrix_to_json(E.left_action),
        # per basis pair, an algebra element: blocks [b][i][j] regrouped as [i][j][b]
        "gram": [[list(cell) for cell in zip(*rows)] for rows in zip(*blocks)],
    }


def correspondence_from_json(algebra: MatrixBlocksAlgebra, data, tol: float) -> Correspondence:
    try:
        e = int(data["dim"])
        right = matrix_from_json(data["right_action"], (algebra.dim, e, e))
        left = matrix_from_json(data["left_action"], (algebra.dim, e, e))
        # gram[i][j][b] regrouped as [b][i][j]; zip(strict=True) refuses ragged cells
        rows = [list(zip(*row, strict=True)) for row in data["gram"]]
        blocks = list(zip(*rows, strict=True)) if rows else [[]] * len(algebra.block_dims)
        if len(blocks) != len(algebra.block_dims):
            raise ParseError("gram entries must list one matrix per algebra block")
        gram = algebra.coords_from_blocks(
            matrix_from_json(b, (e, e, d, d)) for b, d in zip(blocks, algebra.block_dims)
        )
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


def covrep_from_json(data, tol: float) -> CovariantRep:
    algebra = algebra_from_json(_field(data, "algebra"))
    sigma = sigma_from_json(algebra, _field(data, "sigma"), tol)
    E = correspondence_from_json(algebra, _field(data, "correspondence"), tol)
    T = matrix_from_json(_field(data, "T"), (E.dim, sigma.hilbert_dim, sigma.hilbert_dim))
    return CovariantRep(sigma, E, T, tol=tol, meta=_meta(data))


def product_system_to_json(ps: ProductSystem) -> dict:
    return {
        "k": ps.k,
        "correspondences": [correspondence_to_json(E) for E in ps.correspondences],
        "flips": {
            f"{i+1},{j+1}": matrix_to_json(mat) for (i, j), mat in sorted(ps.flips.items())
        },
    }


def product_system_from_json(algebra: MatrixBlocksAlgebra, data, tol: float) -> ProductSystem:
    try:
        k = int(data["k"])
        corrs = [
            correspondence_from_json(algebra, c, tol) for c in data["correspondences"]
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
            flips[(i, j)] = matrix_from_json(mat, want)
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


def product_rep_from_json(data, tol: float) -> ProductRep:
    algebra = algebra_from_json(_field(data, "algebra"))
    sigma = sigma_from_json(algebra, _field(data, "sigma"), tol)
    system = product_system_from_json(algebra, _field(data, "product_system"), tol)
    n = sigma.hilbert_dim
    T_all = _field(data, "T")
    if not isinstance(T_all, list) or len(T_all) != system.k:
        raise ParseError(f"T must list {system.k} coordinates, one per correspondence")
    T_list = [matrix_from_json(T, (E.dim, n, n)) for T, E in zip(T_all, system.correspondences)]
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
    if kind == "covariant_rep":
        return covrep_from_json(data, tol)
    if kind == "product_rep":
        return product_rep_from_json(data, tol)
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
    generator per container; this writer joins each container once and
    formats a row of ``[re, im]`` pairs (what ``matrix_to_json`` gives) in
    one comprehension.  Unsupported types and circular references raise
    the TypeError and ValueError that ``json.dumps`` raises.
    """
    return _value(data, "\n", set()) + "\n"


_FLOAT_REPR = float.__repr__
_INT_REPR = int.__repr__
_ENCODE_STR = json.encoder.encode_basestring_ascii
_INF = float("inf")


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
        body = _pair_row(o, inner)
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


def _pair_row(row, inner: str) -> str | None:
    """The items of a list of ``[float, float]`` lists at the indent of
    ``inner``, or None for any other list.  A row with ``nan`` or ``inf``
    is None too: no finite float's repr has the letter n, and the generic
    path spells them as ``json`` does."""
    if set(map(type, row)) != {list}:
        return None
    pair = inner + " "
    r = _FLOAT_REPR
    try:
        body = ("," + inner).join([f"[{pair}{r(a)},{pair}{r(b)}{inner}]" for a, b in row])
    except (TypeError, ValueError):
        return None
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
