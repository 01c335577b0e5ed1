"""JSON encodings for instances: algebras, representations, correspondences,
covariant representations, product systems and tuples.

Conventions: a complex scalar is ``[re, im]``; a matrix is a row-major
nested list of scalars; an algebra element is one matrix per block; a
representation lists, per block, the image of each matrix unit in row-major
unit order.  Instance files carry a ``kind`` discriminator
("covariant_rep", "product_rep", or "graph").
"""

from __future__ import annotations

import json

import numpy as np

from ._linalg import DEFAULT_TOL, as_complex
from .algebra import MatrixBlocksAlgebra, StarRepresentation
from .correspondence import ChainTower, Correspondence
from .covrep import CovariantRep
from .errors import ParseError
from .product import ProductRep, ProductSystem

FORMAT_VERSION = 1


def _field(data, key: str):
    """``data[key]``, or ParseError when the instance lacks the field."""
    try:
        return data[key]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"instance has no {key!r} field") from exc


def matrix_to_json(mat) -> list:
    mat = as_complex(mat)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def matrix_from_json(data, shape=None) -> np.ndarray:
    try:
        out = np.array(
            [[complex(z[0], z[1]) for z in row] for row in data], dtype=complex
        )
        if out.size == 0:
            out = out.reshape(shape if shape is not None else (0, 0))
    except (TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed matrix: {exc}") from exc
    # json reads NaN and Infinity, which no residual can judge
    if not np.isfinite(out).all():
        raise ParseError("matrix has a non-finite entry")
    if shape is not None and out.shape != tuple(shape):
        raise ParseError(f"matrix has shape {out.shape}, expected {tuple(shape)}")
    return out


def _matrices(data, n: int, what: str) -> list[np.ndarray]:
    """A JSON list of n x n matrices, or ParseError."""
    if not isinstance(data, list):
        raise ParseError(f"{what} must be a list of matrices")
    return [matrix_from_json(m, (n, n)) for m in data]


def _meta(data) -> dict | None:
    meta = data.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ParseError("meta must be an object")
    return meta


def element_to_json(algebra: MatrixBlocksAlgebra, coords) -> list:
    return [matrix_to_json(b) for b in algebra.blocks_from_coords(coords)]


def element_from_json(algebra: MatrixBlocksAlgebra, data) -> np.ndarray:
    if len(data) != len(algebra.block_dims):
        raise ParseError("element block count does not match algebra")
    blocks = [matrix_from_json(b, (d, d)) for b, d in zip(data, algebra.block_dims)]
    return algebra.coords_from_blocks(blocks)


def algebra_to_json(algebra: MatrixBlocksAlgebra) -> dict:
    return {"blocks": list(algebra.block_dims)}


def algebra_from_json(data) -> MatrixBlocksAlgebra:
    try:
        return MatrixBlocksAlgebra(tuple(int(d) for d in data["blocks"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed algebra: {exc}") from exc


def sigma_to_json(sigma: StarRepresentation) -> dict:
    alg = sigma.algebra
    images = []
    k = 0
    for d in alg.block_dims:
        images.append([matrix_to_json(sigma.images[k + u]) for u in range(d * d)])
        k += d * d
    return {"hilbert_dim": sigma.hilbert_dim, "images": images}


def sigma_from_json(algebra: MatrixBlocksAlgebra, data, tol: float) -> StarRepresentation:
    try:
        n = int(data["hilbert_dim"])
        flat = []
        for b, d in enumerate(algebra.block_dims):
            block_imgs = data["images"][b]
            if len(block_imgs) != d * d:
                raise ParseError(f"block {b} must list {d * d} unit images")
            flat.extend(matrix_from_json(m, (n, n)) for m in block_imgs)
        images = np.stack(flat) if flat else np.zeros((0, n, n), complex)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"malformed representation: {exc}") from exc
    return StarRepresentation(algebra, n, images, tol)


def correspondence_to_json(E: Correspondence) -> dict:
    alg = E.algebra
    return {
        "dim": E.dim,
        "right_action": [matrix_to_json(E.right_action[k]) for k in range(alg.dim)],
        "left_action": [matrix_to_json(E.left_action[k]) for k in range(alg.dim)],
        "gram": [
            [element_to_json(alg, E.gram[i, j]) for j in range(E.dim)] for i in range(E.dim)
        ],
    }


def correspondence_from_json(algebra: MatrixBlocksAlgebra, data, tol: float) -> Correspondence:
    try:
        e = int(data["dim"])
        right = np.stack(
            [matrix_from_json(m, (e, e)) for m in data["right_action"]]
        ) if algebra.dim else np.zeros((0, e, e), complex)
        left = np.stack([matrix_from_json(m, (e, e)) for m in data["left_action"]])
        gram = np.zeros((e, e, algebra.dim), dtype=complex)
        for i in range(e):
            for j in range(e):
                gram[i, j] = element_from_json(algebra, data["gram"][i][j])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"malformed correspondence: {exc}") from exc
    if len(data["right_action"]) != algebra.dim or len(data["left_action"]) != algebra.dim:
        raise ParseError("action tensors must list one matrix per algebra basis unit")
    return Correspondence(algebra, e, right, left, gram, tol)


def covrep_to_json(rep: CovariantRep) -> dict:
    out = {
        "kind": "covariant_rep",
        "format": FORMAT_VERSION,
        "algebra": algebra_to_json(rep.sigma.algebra),
        "sigma": sigma_to_json(rep.sigma),
        "correspondence": correspondence_to_json(rep.E),
        "T": [matrix_to_json(rep.T[i]) for i in range(rep.E.dim)],
    }
    if rep.meta:
        out["meta"] = _plain(rep.meta)
    return out


def covrep_from_json(data, tol: float) -> CovariantRep:
    algebra = algebra_from_json(_field(data, "algebra"))
    sigma = sigma_from_json(algebra, _field(data, "sigma"), tol)
    E = correspondence_from_json(algebra, _field(data, "correspondence"), tol)
    n = sigma.hilbert_dim
    T = _matrices(_field(data, "T"), n, "T")
    if len(T) != E.dim:
        raise ParseError("T must list one matrix per correspondence basis vector")
    T_arr = np.stack(T) if T else np.zeros((0, n, n), complex)
    return CovariantRep(sigma, E, T_arr, tol=tol, meta=_meta(data))


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
            want = (chain.corr((j, i)).dim, chain.corr((i, j)).dim)
            flips[(i, j)] = matrix_from_json(mat, want)
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
        "T": [
            [matrix_to_json(pr.reps[i].T[b]) for b in range(pr.system.correspondences[i].dim)]
            for i in range(pr.k)
        ],
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
    T_list = []
    for i in range(system.k):
        mats = _matrices(T_all[i], n, f"coordinate {i + 1} of T")
        if len(mats) != system.correspondences[i].dim:
            raise ParseError(f"coordinate {i + 1}: wrong number of T matrices")
        T_list.append(np.stack(mats) if mats else np.zeros((0, n, n), complex))
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
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


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
