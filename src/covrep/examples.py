"""Instance generators: graph correspondences, induced representations,
scalar tuples, weighted shifts, seeded random instances, and the named
desk-scale corpus used by the acceptance suite.

Graph convention: over C^V (one 1x1 block per vertex) an edge spans a
one-dimensional fiber whose inner product sits at the source vertex and
whose left action is by the range vertex, so creation operators become
source-to-range partial isometries and tensor powers count directed paths
(the second tensor factor is traversed first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import DEFAULT_TOL, as_complex, eye_like, kron, random_complex, random_unitary
from .algebra import MatrixBlocksAlgebra, StarRepresentation
from .correspondence import ChainTower, Correspondence, FockHilbert
from .covrep import CovariantRep
from .errors import ProfileUnreachable, ShapeMismatch
from .product import ProductRep, ProductSystem


@dataclass(frozen=True)
class DirectedGraph:
    """A finite directed graph with 0-based vertices and optional edge weights."""

    vertices: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        edges = tuple((int(s), int(t)) for s, t in self.edges)
        if any(not (0 <= s < self.vertices and 0 <= t < self.vertices) for s, t in edges):
            raise ValueError("edge endpoint out of range")
        object.__setattr__(self, "edges", edges)
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if len(w) != len(edges):
                raise ValueError("one weight per edge required")
            if any(x == 0.0 for x in w):
                raise ValueError("edge weights must be nonzero")
            object.__setattr__(self, "weights", w)


G1 = DirectedGraph(2, ((0, 1),))
G2 = DirectedGraph(3, ((0, 1), (1, 2)))


def vertex_algebra(vertices: int) -> MatrixBlocksAlgebra:
    return MatrixBlocksAlgebra((1,) * vertices)


def graph_correspondence(g: DirectedGraph, tol: float = DEFAULT_TOL) -> Correspondence:
    """The edge correspondence of a directed graph over C^V."""
    if not g.edges:
        raise ValueError("graph correspondence needs at least one edge (phi must be nonzero)")
    alg = vertex_algebra(g.vertices)
    e = len(g.edges)
    right = np.zeros((g.vertices, e, e), dtype=complex)
    left = np.zeros((g.vertices, e, e), dtype=complex)
    gram = np.zeros((e, e, g.vertices), dtype=complex)
    for i, (src, rng) in enumerate(g.edges):
        right[src, i, i] = 1.0
        left[rng, i, i] = 1.0
        gram[i, i, src] = 1.0
    return Correspondence(alg, e, right, left, gram, tol)


# -- scalar instances ---------------------------------------------------------


def scalar_correspondence(tol: float = DEFAULT_TOL) -> Correspondence:
    alg = MatrixBlocksAlgebra((1,))
    one = np.ones((1, 1, 1), dtype=complex)
    return Correspondence(alg, 1, one, one, one, tol)


def scalar_representation(n: int, tol: float = DEFAULT_TOL) -> StarRepresentation:
    alg = MatrixBlocksAlgebra((1,))
    return StarRepresentation(alg, n, eye_like(n)[None, :, :], tol)


def scalar_covrep(A, tol: float = DEFAULT_TOL) -> CovariantRep:
    """The covariant representation of C over C given by one matrix."""
    A = as_complex(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch("scalar instance needs a square matrix")
    return CovariantRep(
        scalar_representation(A.shape[0], tol),
        scalar_correspondence(tol),
        A[None, :, :],
        tol=tol,
        meta={"construction": "scalar"},
    )


def scalar_tuple(matrices, tol: float = DEFAULT_TOL) -> ProductRep:
    """A product-system tuple over M = C with E_i = C and trivial flips.

    Valid exactly when the matrices commute pairwise; the commutation
    relation of the product system reduces to that."""
    mats = [as_complex(A) for A in matrices]
    n = mats[0].shape[0]
    if any(A.shape != (n, n) for A in mats):
        raise ShapeMismatch("all matrices must be square of equal size")
    k = len(mats)
    corrs = [scalar_correspondence(tol) for _ in range(k)]
    chain = ChainTower(corrs, tol)
    flips = {
        (i, j): eye_like(chain.corr((i, j)).dim) for i in range(k) for j in range(i)
    }
    system = ProductSystem(corrs, flips, tol, chain=chain)
    sigma = scalar_representation(n, tol)
    return ProductRep(
        system, sigma, [A[None, :, :] for A in mats], tol=tol,
        meta={"construction": "scalar_tuple"},
    )


# -- induced representations ----------------------------------------------------


def _auto_depth(chain: ChainTower, letter: int) -> int | None:
    """Nilpotency depth of a letter: the largest n with E^{(x)n} != 0, or
    None when E = ``chain.family[letter]`` is not nilpotent.

    Over an algebra with b central blocks, E^{(x)n} has multiplicity matrix
    M^n for the b x b multiplicity matrix M of E, and a nilpotent b x b
    matrix has M^b = 0.  So the depth of a nilpotent E is below b, and
    E^{(x)b} != 0 means E is not nilpotent.
    """
    for n in range(len(chain.algebra.block_dims)):
        if chain.corr((letter,) * (n + 1)).dim == 0:
            return n
    return None


def induced_representation(
    E: Correspondence,
    pi: StarRepresentation,
    depth: int | None = None,
    *,
    weights=None,
    tol: float | None = None,
) -> CovariantRep:
    """The creation representation on the truncated Fock space F_N(E) (x) H.

    With ``depth=None`` the nilpotency depth is detected (acyclic graph
    correspondences); the result is exactly isometric precisely when the
    truncation is exact, which ``meta["exact"]`` records.  ``weights``
    scales the creation operator of each E-basis vector.
    """
    tol = tol if tol is not None else min(E.tol, pi.tol)
    chain = ChainTower([E], tol)
    if depth is None:
        depth = _auto_depth(chain, 0)
        if depth is None:
            raise ValueError("correspondence is not nilpotent; pass an explicit depth")
    fh = FockHilbert(chain, pi, {0: depth})
    sigma_hat = fh.representation()
    if weights is None:
        weights = [1.0] * E.dim
    T = np.asarray(weights, float)[:, None, None] * fh.creation(0, eye_like(E.dim))
    return CovariantRep(
        sigma_hat,
        E,
        T,
        tol=tol,
        chain=chain,
        meta={"construction": "induced", "exact": fh.exact, "depth": depth},
    )


def weighted_graph_rep(
    g: DirectedGraph, weights, pi: StarRepresentation | None = None, depth: int | None = None,
    tol: float = DEFAULT_TOL,
) -> CovariantRep:
    """Induced representation of a graph with per-edge creation weights."""
    E = graph_correspondence(g, tol)
    if pi is None:
        pi = StarRepresentation.identity(E.algebra, tol)
    return induced_representation(E, pi, depth, weights=list(weights), tol=tol)


def graph_induced(g: DirectedGraph, depth: int | None = None, tol: float = DEFAULT_TOL) -> CovariantRep:
    """Induced representation of a graph by the identity representation of C^V."""
    E = graph_correspondence(g, tol)
    pi = StarRepresentation.identity(E.algebra, tol)
    return induced_representation(E, pi, depth, tol=tol)


def cycle_unitary_rep(g: DirectedGraph, cycle_edges, phases=None, tol: float = DEFAULT_TOL) -> CovariantRep:
    """A covariant representation of the graph correspondence supported on a
    vertex-disjoint cycle; it is isometric and fully co-isometric by
    construction, provided no other edge leaves a cycle vertex."""
    E = graph_correspondence(g, tol)
    cycle_edges = tuple(int(i) for i in cycle_edges)
    cyc_vertices = sorted({g.edges[i][0] for i in cycle_edges} | {g.edges[i][1] for i in cycle_edges})
    pos = {v: p for p, v in enumerate(cyc_vertices)}
    out_deg = {v: 0 for v in cyc_vertices}
    in_deg = {v: 0 for v in cyc_vertices}
    for i in cycle_edges:
        s, t = g.edges[i]
        if s not in pos or t not in pos:
            raise ValueError("cycle edges must stay within the cycle vertex set")
        out_deg[s] += 1
        in_deg[t] += 1
    if any(d != 1 for d in out_deg.values()) or any(d != 1 for d in in_deg.values()):
        raise ValueError("cycle edges must form a disjoint union of cycles")
    for i, (s, t) in enumerate(g.edges):
        if i not in cycle_edges and s in pos:
            raise ValueError("an off-cycle edge leaves the cycle; the part would not be unitary")
    if phases is None:
        phases = [1.0] * len(cycle_edges)
    m = len(cyc_vertices)
    images = np.zeros((g.vertices, m, m), dtype=complex)
    for v in cyc_vertices:
        images[v, pos[v], pos[v]] = 1.0
    T = np.zeros((E.dim, m, m), dtype=complex)
    for phase, i in zip(phases, cycle_edges):
        s, t = g.edges[i]
        T[i, pos[t], pos[s]] = phase
    sigma = StarRepresentation(vertex_algebra(g.vertices), m, images, tol)
    return CovariantRep(sigma, E, T, tol=tol, meta={"construction": "cycle_unitary"})


def direct_sum(r1: CovariantRep, r2: CovariantRep) -> CovariantRep:
    """Direct sum of two covariant representations of the same correspondence."""
    if r1.E is not r2.E:
        same = (
            r1.E.algebra == r2.E.algebra
            and r1.E.dim == r2.E.dim
            and np.allclose(r1.E.right_action, r2.E.right_action)
            and np.allclose(r1.E.left_action, r2.E.left_action)
            and np.allclose(r1.E.gram, r2.E.gram)
        )
        if not same:
            raise ShapeMismatch("direct sum requires a common correspondence")
    n1, n2 = r1.hdim, r2.hdim
    images = np.zeros((r1.E.algebra.dim, n1 + n2, n1 + n2), dtype=complex)
    images[:, :n1, :n1] = r1.sigma.images
    images[:, n1:, n1:] = r2.sigma.images
    T = np.zeros((r1.E.dim, n1 + n2, n1 + n2), dtype=complex)
    T[:, :n1, :n1] = r1.T
    T[:, n1:, n1:] = r2.T
    sigma = StarRepresentation(r1.E.algebra, n1 + n2, images, min(r1.sigma.tol, r2.sigma.tol))
    return CovariantRep(
        sigma, r1.E, T, tol=min(r1.tol, r2.tol), chain=r1.chain,
        meta={"construction": "direct_sum"},
    )


# -- two-colored graph product systems ----------------------------------------


def two_colored_system(
    vertices: int, edges1, edges2, tol: float = DEFAULT_TOL
) -> ProductSystem:
    """Product system of two edge colorings whose two-colored length-2 paths
    biject endpoint-by-endpoint; the flip is defined by that bijection and
    is unitary by construction.  Inputs without a bijection are rejected."""
    ga = DirectedGraph(vertices, tuple(edges1))
    gb = DirectedGraph(vertices, tuple(edges2))
    E1 = graph_correspondence(ga, tol)
    E2 = graph_correspondence(gb, tol)
    chain = ChainTower([E1, E2], tol)

    # corr((1,0)) classes: pairs (b, a) with rng(a) = src(b)  [a walked first]
    # corr((0,1)) classes: pairs (a, b) with rng(b) = src(a)  [b walked first]
    by_ends_10: dict[tuple[int, int], list[int]] = {}
    for b, (bs, bt) in enumerate(gb.edges):
        for a, (as_, at) in enumerate(ga.edges):
            if at == bs:
                by_ends_10.setdefault((as_, bt), []).append(b * E1.dim + a)
    by_ends_01: dict[tuple[int, int], list[int]] = {}
    for a, (as_, at) in enumerate(ga.edges):
        for b, (bs, bt) in enumerate(gb.edges):
            if bt == as_:
                by_ends_01.setdefault((bs, at), []).append(a * E2.dim + b)
    if sorted(by_ends_10) != sorted(by_ends_01) or any(
        len(by_ends_10[k]) != len(by_ends_01[k]) for k in by_ends_10
    ):
        raise ValueError("two-colored length-2 paths do not biject; no unitary flip exists")

    t_alg = np.zeros((E1.dim * E2.dim, E2.dim * E1.dim), dtype=complex)
    for ends, sources in by_ends_10.items():
        for src_idx, dst_idx in zip(sorted(sources), sorted(by_ends_01[ends])):
            t_alg[dst_idx, src_idx] = 1.0
    tmat = chain.step((0, 1)).push @ t_alg @ chain.step((1, 0)).lift
    return ProductSystem([E1, E2], {(1, 0): tmat}, tol, chain=chain)


def induced_product_representation(
    system: ProductSystem, pi: StarRepresentation | None = None, depths=None
) -> ProductRep:
    """Creation tuple of a product system on its truncated Fock space."""
    if pi is None:
        pi = StarRepresentation.identity(system.algebra, system.tol)
    if depths is None:
        depths = []
        for c in range(system.k):
            d = _auto_depth(system.chain, c)
            if d is None:
                raise ValueError(f"coordinate {c} is not nilpotent; pass explicit depths")
            depths.append(d)
    fh = FockHilbert(system.chain, pi, dict(enumerate(depths)), system.flip)
    sigma_hat = fh.representation()
    T_list = [fh.creation(c, eye_like(E_c.dim)) for c, E_c in enumerate(system.correspondences)]
    return ProductRep(
        system, sigma_hat, T_list, tol=system.tol,
        meta={"construction": "induced_product", "exact": fh.exact, "depths": tuple(depths)},
    )


def two_color_path_rep(tol: float = DEFAULT_TOL) -> ProductRep:
    """The commuting-square instance: color-1 edges 0->1, 2->3 and color-2
    edges 0->2, 1->3 on four vertices, induced on its 9-dimensional Fock space."""
    system = two_colored_system(4, [(0, 1), (2, 3)], [(0, 2), (1, 3)], tol)
    return induced_product_representation(system)


def jordan_pair(tol: float = DEFAULT_TOL) -> ProductRep:
    """(S (x) I, I (x) S) for the 2x2 nilpotent Jordan block, on C^4."""
    S = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    I2 = eye_like(2)
    return scalar_tuple([kron(S, I2), kron(I2, S)], tol)


# -- seeded random instances -------------------------------------------------------


PROFILES = ("isometric", "concave", "shimorin", "doubly-commuting", "generic")

_RETRY_BOUND = 64


def _random_acyclic_graph(rng: np.random.Generator) -> DirectedGraph:
    """An acyclic graph on 2 to 4 vertices."""
    v = int(rng.integers(2, 5))
    edges = [(s, t) for s in range(v) for t in range(s + 1, v) if rng.random() < 0.6]
    if not edges:
        edges = [(0, v - 1)]
    return DirectedGraph(v, tuple(edges))


def _concave_g2_weights(rng: np.random.Generator) -> tuple[float, float]:
    # For the G2 Fock model, concavity is the single scalar inequality
    # w1^2 w2^2 + 1 <= 2 w1^2.  On a truncated Fock space that inequality
    # alone forces neither expansivity (the padding step of the concavity
    # lemma needs nonvanishing tensor powers) nor the Shimorin bound of
    # the Cauchy dual (which needs w1^2 <= 2 at the bottom fiber).  The
    # generator stays in the region w2 >= 1, w1 = c / sqrt(2 - w2^2) with
    # 1 < c and w1^2 <= 2, where all the advertised consequences hold.
    w2 = float(rng.uniform(1.0, 1.12))
    c = float(rng.uniform(1.02, 1.12))
    w1 = c / np.sqrt(2.0 - w2 * w2)
    return w1, w2


def random_instance(seed: int, profile: str = "generic"):
    """Deterministic per-seed instance achieving the requested profile.

    Construction guarantees the profile where possible (isometric via
    induced/unitary constructions, doubly-commuting via P (x) I, I (x) Q);
    the shimorin profile uses bounded rejection sampling and raises
    ProfileUnreachable when the retry budget runs out.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    rng = np.random.default_rng(seed)
    if profile == "generic":
        n = int(rng.integers(2, 5))
        return scalar_covrep(random_complex(rng, (n, n)))
    if profile == "isometric":
        if rng.random() < 0.5:
            n = int(rng.integers(2, 5))
            return scalar_covrep(random_unitary(rng, n))
        return graph_induced(_random_acyclic_graph(rng))
    if profile == "concave":
        if rng.random() < 0.5:
            w1, w2 = _concave_g2_weights(rng)
            return weighted_graph_rep(G2, [w1, w2])
        return graph_induced(_random_acyclic_graph(rng))
    if profile == "shimorin":
        for _ in range(_RETRY_BOUND):
            if rng.random() < 0.5:
                w1, w2 = _concave_g2_weights(rng)
                cand = weighted_graph_rep(G2, [w1, w2]).cauchy_dual()
            else:
                n = int(rng.integers(2, 4))
                cand = scalar_covrep(
                    random_unitary(rng, n) + 0.15 * random_complex(rng, (n, n))
                )
            if cand.left_invertible() and cand.check_shimorin().passed:
                return cand
        raise ProfileUnreachable(f"no shimorin instance within {_RETRY_BOUND} tries (seed {seed})")
    # doubly-commuting
    p = int(rng.integers(2, 4))
    q = int(rng.integers(2, 4))
    P = random_complex(rng, (p, p))
    Q = random_complex(rng, (q, q))
    if rng.random() < 0.5:
        P = np.triu(P, 1)
    if rng.random() < 0.5:
        Q = np.triu(Q, 1)
    return scalar_tuple([kron(P, eye_like(q)), kron(eye_like(p), Q)])


# -- the named corpus ---------------------------------------------------------------


def corpus_instances() -> dict:
    """The six named desk-scale instances used throughout the test suite."""
    shift3 = np.roll(eye_like(3), 1, axis=0)
    return {
        "g1-induced": graph_induced(G1),
        "g2-induced": graph_induced(G2),
        "g1-w-half": weighted_graph_rep(G1, [0.5]),
        "scalar-unitary-3": scalar_covrep(shift3),
        "jordan-pair": jordan_pair(),
        "two-color-path": two_color_path_rep(),
    }


def write_corpus(directory) -> list:
    """Serialize the named corpus as JSON instance files; returns the paths."""
    import pathlib

    from .serialize import dump_json, instance_to_json

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, inst in corpus_instances().items():
        path = directory / f"{name}.json"
        path.write_text(dump_json(instance_to_json(inst)))
        paths.append(path)
    return paths
