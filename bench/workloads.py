"""Inputs, operations and output fingerprints of the three benchmark workloads.

Every workload is a list of named operations.  One *round* runs each
operation once, in an order drawn from the seed; the timed loop runs whole
rounds, so every run measures the same mix of operations whatever its
length.  The seed also relabels the vertices of every graph and grid (and
permutes the basis of every scalar instance).  That is an isomorphism: dims
and flags do not change, so the reference fingerprints hold for every seed,
while the library receives fresh matrices.

Operations call only public entry points of ``covrep`` and look them up
through the module objects at call time, so the traced run, which swaps
module attributes for wrappers, sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from covrep import cli, examples, product, serialize, wold
from covrep._linalg import ANGLE_TOL
from covrep.covrep import UOperator

#: The loosest bound any passing check of the library is judged against on
#: these instances (principal-angle equality); residual tolerances scaled by
#: (1 + norm) stay below it.  A passing item above it is a wrong answer.
RESIDUAL_CEILING = ANGLE_TOL

_DROPPED_KEYS = {"instance", "bases", "version", "seed", "tolerance", "command", "path", "detail"}


# -- seeded instance descriptions ---------------------------------------------


def _relabel(edges, perm):
    return tuple((int(perm[s]), int(perm[t])) for s, t in edges)


def path_graph(length: int, rng) -> examples.DirectedGraph:
    """Directed path on ``length`` vertices with seed-permuted labels."""
    perm = rng.permutation(length)
    return examples.DirectedGraph(length, _relabel(((i, i + 1) for i in range(length - 1)), perm))


def complete_dag(vertices: int, rng) -> examples.DirectedGraph:
    """All edges s -> t with s < t in a hidden order, seed-permuted labels."""
    perm = rng.permutation(vertices)
    edges = ((s, t) for s in range(vertices) for t in range(s + 1, vertices))
    return examples.DirectedGraph(vertices, _relabel(edges, perm))


def grid_colorings(m: int, rng):
    """Commuting-square m x m grid: color 1 steps right, color 2 steps down."""
    perm = rng.permutation(m * m)
    at = lambda i, j: i * m + j  # noqa: E731
    right = [(at(i, j), at(i, j + 1)) for i in range(m) for j in range(m - 1)]
    down = [(at(i, j), at(i + 1, j)) for i in range(m - 1) for j in range(m)]
    return m * m, _relabel(right, perm), _relabel(down, perm)


def _conjugate(mat, rng) -> np.ndarray:
    """P A P^T for a seed-drawn permutation matrix P (a basis relabelling)."""
    p = np.eye(mat.shape[0])[rng.permutation(mat.shape[0])]
    return p @ mat @ p.T


def shift_pair_matrix(n: int, rng) -> np.ndarray:
    """Cyclic n-shift (+) nilpotent n-shift in a seed-permuted basis."""
    a = np.zeros((2 * n, 2 * n))
    a[:n, :n] = np.roll(np.eye(n), 1, axis=0)
    a[n:, n:] = np.eye(n, k=-1)
    return _conjugate(a, rng)


def grid_rep(m: int, rng):
    v, right, down = grid_colorings(m, rng)
    return examples.induced_product_representation(examples.two_colored_system(v, right, down))


# -- cold-ladder: build one instance from its description and certify it -------


def _graph_op(graph):
    def op():
        rep = examples.graph_induced(graph)
        return {"dim": rep.hdim, "wold": wold.wold_decompose(rep), "muhly_solel": wold.verify_muhly_solel(rep)}

    return op


def _grid_op(m, rng):
    v, right, down = grid_colorings(m, rng)

    def op():
        pr = examples.induced_product_representation(examples.two_colored_system(v, right, down))
        return {"dim": pr.hdim, "t24": product.verify_T24_equivalence(pr)}

    return op


def _shift_op(n, rng):
    mat = shift_pair_matrix(n, rng)

    def op():
        rep = examples.scalar_covrep(mat)
        return {"dim": rep.hdim, "wold": wold.wold_decompose(rep)}

    return op


#: rung name -> maker(rng) of a zero-argument op; the description is drawn
#: before timing starts, the build and the certificates are timed.
COLD_RUNGS = {
    "path-5": lambda rng: _graph_op(path_graph(5, rng)),
    "path-7": lambda rng: _graph_op(path_graph(7, rng)),
    "path-9": lambda rng: _graph_op(path_graph(9, rng)),
    "dag-4": lambda rng: _graph_op(complete_dag(4, rng)),
    "dag-5": lambda rng: _graph_op(complete_dag(5, rng)),
    "grid-2": lambda rng: _grid_op(2, rng),
    "grid-3": lambda rng: _grid_op(3, rng),
    "shift-24": lambda rng: _shift_op(24, rng),
}

#: Rungs that take under 0.1 s run this many times per round.  The four
#: large rungs take 90% of a round; without repeats a 30 s run holds about
#: five samples of the small rungs, and the median op, which is one of them,
#: would be the median of five sub-0.1 s timings on a machine whose speed
#: drifts by tens of percent.
SMALL_RUNG_REPEATS = 5
SMALL_RUNGS = ("path-5", "dag-4", "grid-2", "shift-24")


class ColdLadder:
    name = "cold-ladder"

    def __init__(self, rng, workdir):
        self.rng = rng

    def keys(self):
        return [key for key in COLD_RUNGS for _ in range(SMALL_RUNG_REPEATS if key in SMALL_RUNGS else 1)]

    def prepare(self, key):
        return COLD_RUNGS[key](self.rng)


# -- warm-certify: verifier calls on three shared, warmed instances ------------


def _check_suite(rep):
    names = ("isometric", "fully_coisometric", "concave", "expansive", "shimorin", "eq13", "eq12", "analytic")
    items = [getattr(rep, f"check_{n}")() for n in names]
    items.append(rep.check_growth_bound(2))
    return [item.as_item() for item in items]


WARM_OPS = {
    "path/wold_decompose": lambda s: wold.wold_decompose(s.path),
    "path/verify_muhly_solel": lambda s: wold.verify_muhly_solel(s.path),
    "path/verify_richter": lambda s: wold.verify_richter(s.path, wold.Subspace.full(s.path.hdim)),
    "path/build_U": lambda s: s.path.build_U(),
    "weighted/wold_decompose": lambda s: wold.wold_decompose(s.weighted),
    "weighted/verify_cauchy_dual_props": lambda s: wold.verify_cauchy_dual_props(s.weighted),
    "weighted/verify_ker_Ln_3": lambda s: wold.verify_ker_Ln(s.weighted, 3),
    "weighted/check_suite": lambda s: _check_suite(s.weighted),
    "grid/verify_T22": lambda s: product.verify_T22(s.grid),
    "grid/verify_T24_equivalence": lambda s: product.verify_T24_equivalence(s.grid),
    "grid/verify_P21_1": lambda s: product.verify_P21(s.grid, (0,)),
    "grid/verify_P21_2": lambda s: product.verify_P21(s.grid, (1,)),
    "grid/verify_P21_12": lambda s: product.verify_P21(s.grid, (0, 1)),
}


class WarmCertify:
    """Induced path L=9, the same path with creation weights 1.1 (left
    invertible, not isometric), and the m=3 grid tuple, each built once and
    warmed by one pass of every op, so the tower caches are full."""

    name = "warm-certify"

    def __init__(self, rng, workdir):
        graph = path_graph(9, rng)
        self.path = examples.graph_induced(graph)
        self.weighted = examples.weighted_graph_rep(graph, [1.1] * len(graph.edges))
        self.grid = grid_rep(3, rng)
        for op in WARM_OPS.values():
            op(self)

    def keys(self):
        return list(WARM_OPS)

    def prepare(self, key):
        op = WARM_OPS[key]
        return lambda: op(self)


# -- cli-corpus: in-process `covrep` calls on instance files ------------------

COVARIANT_THEOREMS = ("richter", "muhly-solel", "mt1", "cd")
PRODUCT_THEOREMS = ("p21", "t22", "t24")
COVARIANT_CHECKS = ("isometric", "fully-coisometric", "concave", "expansive", "shimorin", "eq13", "eq12", "analytic")
PRODUCT_CHECKS = ("rep-relation", "doubly-commuting") + COVARIANT_CHECKS


def corpus(rng) -> dict:
    """The six named corpus instances, rebuilt with seed-relabelled graphs
    and bases, plus the induced path with L = 7."""
    g1 = examples.DirectedGraph(2, _relabel(examples.G1.edges, rng.permutation(2)))
    g2 = examples.DirectedGraph(3, _relabel(examples.G2.edges, rng.permutation(3)))
    shift3 = _conjugate(np.roll(np.eye(3), 1, axis=0), rng)
    s = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = np.eye(4)[rng.permutation(4)]
    jordan = [p @ np.kron(s, np.eye(2)) @ p.T, p @ np.kron(np.eye(2), s) @ p.T]
    return {
        "g1-induced": examples.graph_induced(g1),
        "g2-induced": examples.graph_induced(g2),
        "g1-w-half": examples.weighted_graph_rep(g1, [0.5]),
        "scalar-unitary-3": examples.scalar_covrep(shift3),
        "jordan-pair": examples.scalar_tuple(jordan),
        "two-color-path": grid_rep(2, rng),
        "path-7-induced": examples.graph_induced(path_graph(7, rng)),
    }


def cli_argvs(kinds: dict, directory: Path) -> dict:
    """Op key -> argv of every CLI call on the corpus files in ``directory``."""
    out = {}
    for name, kind in kinds.items():
        path = str(directory / f"{name}.json")
        covariant = kind == "covariant_rep"
        for theorem in COVARIANT_THEOREMS if covariant else PRODUCT_THEOREMS:
            out[f"verify/{name}/{theorem}"] = ["verify", path, "--theorem", theorem]
        if covariant:
            out[f"decompose/{name}"] = ["decompose", path]
        out[f"validate/{name}"] = ["validate", path]
        out[f"check/{name}"] = ["check", path, *(COVARIANT_CHECKS if covariant else PRODUCT_CHECKS)]
    return {key: [*argv, "--format", "json"] for key, argv in out.items()}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


class CliCorpus:
    """Writes the corpus files during setup; each op is one ``covrep.cli.main``
    call with captured output."""

    name = "cli-corpus"

    def __init__(self, rng, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        kinds = {}
        for name, inst in corpus(rng).items():
            data = serialize.instance_to_json(inst)
            kinds[name] = data["kind"]
            (workdir / f"{name}.json").write_text(serialize.dump_json(data))
        self.argvs = cli_argvs(kinds, workdir)

    def keys(self):
        return list(self.argvs)

    def prepare(self, key):
        argv = self.argvs[key]
        return lambda: run_cli(argv)


WORKLOAD_CLASSES = {cls.name: cls for cls in (ColdLadder, WarmCertify, CliCorpus)}


# -- fingerprints ------------------------------------------------------------------


def _plain(result):
    """Reports and records of the library as JSON-like data."""
    if hasattr(result, "to_json"):
        return result.to_json()
    if hasattr(result, "as_item"):
        return result.as_item().to_json()
    if isinstance(result, dict):
        if "stdout" in result:
            text = result["stdout"]
            return {"exit": result["exit"], "output": json.loads(text) if text else None}
        return {k: _plain(v) for k, v in result.items()}
    if isinstance(result, (list, tuple)):
        return [_plain(v) for v in result]
    if isinstance(result, UOperator):
        return {
            "shape": list(result.matrix.shape),
            "level_dims": list(result.level_dims),
            "kernel_dim": int(result.kernel.shape[1]),
            "isometric": bool(result.isometry_residual <= RESIDUAL_CEILING),
            "coisometric": bool(result.coisometry_residual <= RESIDUAL_CEILING),
            "concave_vacuous": bool(result.concave_vacuous),
        }
    if isinstance(result, (bool, int, str)) or result is None:
        return result
    raise TypeError(f"no fingerprint for {type(result).__name__}")


def _scrub(node, problems: list, where: str):
    if isinstance(node, dict):
        out = {}
        for key, val in node.items():
            if key in _DROPPED_KEYS:
                continue
            if key == "residual":
                res = float(val)
                if not math.isfinite(res):
                    problems.append(f"{where}: residual is not finite")
                elif node.get("pass") is True and res > RESIDUAL_CEILING:
                    problems.append(f"{where}: passing residual {res:.3e} above {RESIDUAL_CEILING:.0e}")
                continue
            out[key] = _scrub(val, problems, f"{where}.{node.get('name', key)}")
        return out
    if isinstance(node, list):
        return [_scrub(v, problems, where) for v in node]
    if isinstance(node, float):
        problems.append(f"{where}: unexpected float in fingerprint")
    return node


def fingerprint(result) -> tuple[object, list]:
    """Dims, pass / hypotheses-met / certified flags and exit codes of one op,
    with residuals checked against the ceiling instead of being compared."""
    problems: list = []
    fp = _scrub(_plain(result), problems, "op")
    return json.loads(json.dumps(fp)), problems


def mismatch(key: str, fp, problems: list, reference: dict) -> str | None:
    """Why an op's output is wrong, or None when it matches the reference."""
    if problems:
        return "; ".join(problems[:3])
    if key not in reference:
        return "no reference fingerprint"
    if fp != reference[key]:
        return "fingerprint differs from the reference"
    return None
