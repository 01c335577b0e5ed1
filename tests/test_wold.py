import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covrep._linalg import ANGLE_TOL, ORTHONORMAL_TOL, op_norm
from covrep.correspondence import HilbertTower
from covrep._linalg import _CACHED
from covrep.covrep import CovariantRep
from covrep.errors import (
    AmbientMismatch,
    NotInvariant,
    NotIsometric,
    NotSigmaInvariant,
    ShapeMismatch,
)
from covrep.examples import (
    G1,
    G2,
    PROFILES,
    DirectedGraph,
    corpus_instances,
    cycle_unitary_rep,
    direct_sum,
    graph_induced,
    random_instance,
    scalar_covrep,
    two_color_path_rep,
    weighted_graph_rep,
)
from covrep.serialize import dump_json
from covrep.wold import (
    Subspace,
    _richter_conclusions,
    _step,
    _translates,
    _wandering_sweep,
    check_dual_reducing_implication,
    check_invariant,
    check_reducing,
    check_wandering,
    h_infinity,
    image,
    invariant_closure,
    kernel,
    script_L_n,
    verify_cauchy_dual_props,
    verify_ker_Ln,
    verify_muhly_solel,
    verify_richter,
    wandering_subspace,
    wold_decompose,
)

import oracles
from test_cache import _bits
from oracles import (
    h_infinity_oracle,
    orth,
    script_L_oracle,
    span_closure,
    subspaces_equal,
    wandering_oracle,
)


def unitary3():
    return scalar_covrep(np.roll(np.eye(3, dtype=complex), 1, axis=0))


def loop_plus_g1():
    """G1 plus a disjoint loop vertex: unitary (+) induced on 4 dimensions."""
    g = DirectedGraph(3, ((0, 1), (2, 2)))
    from covrep.algebra import StarRepresentation
    from covrep.examples import graph_correspondence, induced_representation

    E = graph_correspondence(g)
    images = np.zeros((3, 2, 2), dtype=complex)
    images[0, 0, 0] = 1.0
    images[1, 1, 1] = 1.0
    pi = StarRepresentation(E.algebra, 2, images)
    induced = induced_representation(E, pi, depth=1)
    unitary = cycle_unitary_rep(g, [1], [1j])
    return direct_sum(unitary, induced), unitary.hdim, induced.hdim


class TestSubspaceAlgebra:
    def test_intersect_self(self, rng):
        s = image(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
        assert s.intersect(s).equals(s)

    def test_intersect_coordinate_axes(self):
        e = np.eye(2, dtype=complex)
        s1 = Subspace(2, e[:, :1])
        s2 = Subspace(2, e[:, 1:])
        assert s1.intersect(s2).dim == 0

    def test_image_kernel_of_rank2(self, rng):
        a = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))
        img = image(a)
        ker = kernel(a)
        assert img.dim == 2
        assert ker.dim == 1
        # consistency: A annihilates its kernel and maps onto its image
        assert np.linalg.norm(a @ ker.basis) < 1e-10
        assert img.containment_gap(image(a)) < 1e-12

    def test_de_morgan(self, rng):
        s1 = image(rng.standard_normal((5, 2)))
        s2 = image(rng.standard_normal((5, 3)))
        lhs = s1.intersect(s2)
        rhs = (s1.orthocomplement() + s2.orthocomplement()).orthocomplement()
        assert lhs.equals(rhs)

    def test_sum_and_containment(self, rng):
        s1 = image(rng.standard_normal((5, 2)))
        s2 = image(rng.standard_normal((5, 2)))
        total = s1 + s2
        assert total.contains(s1) and total.contains(s2)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            Subspace.full(2).intersect(Subspace.full(3))

    def test_dimension_is_authoritative(self, rng):
        s1 = image(rng.standard_normal((4, 2)))
        s2 = s1 + image(rng.standard_normal((4, 1)))
        assert s1.dim != s2.dim
        assert not s1.equals(s2)


class TestWanderingSubspace:
    def test_unitary_has_none(self):
        assert wandering_subspace(unitary3()).dim == 0

    def test_g1_level_zero(self):
        rep = graph_induced(G1)
        W = wandering_subspace(rep)
        assert W.dim == 2
        assert subspaces_equal(W.basis, wandering_oracle(list(rep.T), 3))

    def test_isometric_matches_range_projection(self):
        rep = graph_induced(G2)
        W = wandering_subspace(rep)
        alt = image(np.eye(6) - rep.tilde @ rep.tilde.conj().T)
        assert W.equals(alt)


class TestScriptL:
    def test_n_zero_returns_K(self):
        rep = graph_induced(G1)
        K = wandering_subspace(rep)
        assert script_L_n(rep, K, 0) is K

    def test_g1_first_translate(self):
        rep = graph_induced(G1)
        W = wandering_subspace(rep)
        l1 = script_L_n(rep, W, 1)
        assert l1.dim == 1
        assert subspaces_equal(l1.basis, script_L_oracle(list(rep.T), W.basis, 1))

    def test_beyond_nilpotency_vanishes(self):
        rep = graph_induced(G2)
        W = wandering_subspace(rep)
        assert script_L_n(rep, W, 4).dim == 0

    def test_rejects_non_sigma_invariant(self):
        rep = graph_induced(G2)
        p0 = orth(rep.sigma.apply_coords(oracles.unit_coords(rep.sigma.algebra, 0)))
        p1 = orth(rep.sigma.apply_coords(oracles.unit_coords(rep.sigma.algebra, 1)))
        v = (p0[:, :1] + p1[:, :1]) / np.sqrt(2)
        with pytest.raises(NotSigmaInvariant):
            script_L_n(rep, Subspace(6, v), 1)


class TestInvariantClosure:
    def test_full_space_fixed(self):
        rep = graph_induced(G2)
        assert invariant_closure(rep, Subspace.full(6)).dim == 6

    def test_zero_fixed(self):
        rep = graph_induced(G2)
        assert invariant_closure(rep, Subspace.zero(6)).dim == 0

    def test_g1_wandering_generates(self):
        rep = graph_induced(G1)
        closure = invariant_closure(rep, wandering_subspace(rep))
        assert closure.dim == 3

    def test_matches_span_iteration_oracle(self):
        for rep in (graph_induced(G2), weighted_graph_rep(G2, [1.25, 1.1])):
            W = wandering_subspace(rep)
            mine = invariant_closure(rep, W)
            brute = span_closure(list(rep.T), W.basis)
            assert subspaces_equal(mine.basis, brute)


class TestHInfinity:
    def test_unitary_full(self):
        assert h_infinity(unitary3()).dim == 3

    def test_nilpotent_zero(self):
        assert h_infinity(graph_induced(G1)).dim == 0
        assert h_infinity(graph_induced(G2)).dim == 0

    def test_direct_sum_recovers_unitary_block(self):
        rep, nu, ni = loop_plus_g1()
        hinf = h_infinity(rep)
        assert hinf.dim == nu
        assert subspaces_equal(hinf.basis, h_infinity_oracle(list(rep.T), rep.hdim))

    def test_decreasing_ranges(self):
        rep, _, _ = loop_plus_g1()
        prev = Subspace.full(rep.hdim)
        for n in range(1, rep.hdim + 2):
            cur = image(rep.tilde_n(n))
            assert prev.containment_gap(cur) <= 1e-8
            prev = cur

    def test_stabilization_extra_step(self):
        rep, _, _ = loop_plus_g1()
        hinf = h_infinity(rep)
        extra = image(rep.tilde_n(rep.hdim + 1))
        assert hinf.equals(extra)

    def test_analytic_flags(self):
        assert graph_induced(G1).check_analytic().passed
        assert not unitary3().check_analytic().passed
        assert scalar_covrep(np.zeros((2, 2))).check_analytic().passed

    def test_analytic_left_invertible_has_vanishing_L_powers(self):
        # |L^n h| -> 0 for analytic representations; exact in finite dims
        for rep in (graph_induced(G2), weighted_graph_rep(G2, [1.25, 1.1])):
            assert rep.check_analytic().passed
            assert np.linalg.norm(rep.L_n(rep.hdim)) < 1e-12


class TestInvariantReducingWandering:
    def test_full_space(self):
        rep = graph_induced(G1)
        H = Subspace.full(3)
        assert check_invariant(rep, H).passed
        assert check_reducing(rep, H).passed
        assert not check_wandering(rep, H).passed

    def test_wandering_subspace_is_wandering(self):
        rep = graph_induced(G1)
        assert check_wandering(rep, wandering_subspace(rep)).passed

    def test_non_sigma_invariant_vector(self):
        rep = graph_induced(G1)
        p0 = orth(rep.sigma.apply_coords(oracles.unit_coords(rep.sigma.algebra, 0)))
        p1 = orth(rep.sigma.apply_coords(oracles.unit_coords(rep.sigma.algebra, 1)))
        v = (p0[:, :1] + p1[:, :1]) / np.sqrt(2)
        assert not check_invariant(rep, Subspace(3, v)).passed

    def test_sigma_screen_agrees_with_script_L(self):
        # T is 50x larger than sigma, so a bound scaled by T would pass the
        # 1e-8 tilt that script_L_n rejects: both judge sigma alone
        rep = weighted_graph_rep(G2, [100.0, 100.0])
        assert rep.scale > 50 * rep.sigma.scale
        basis = wandering_subspace(rep).basis.copy()
        basis[3, 0] += 1e-8  # vertex 0's vector leans into vertex 1
        K = Subspace(rep.hdim, np.linalg.qr(basis)[0])
        res = check_wandering(rep, K)
        assert not res.passed and res.reason == "NotSigmaInvariant"
        assert rep.tol * rep.sigma.scale < res.residual < rep.tol * rep.scale
        with pytest.raises(NotSigmaInvariant):
            script_L_n(rep, K, 1)
        with pytest.raises(NotSigmaInvariant):
            invariant_closure(rep, K)


class TestWoldDecompose:
    def test_g1_dims(self):
        wd = wold_decompose(graph_induced(G1))
        assert wd.dims() == (2, 3, 0)
        assert wd.hypothesis_met and wd.certified

    def test_g2_dims(self):
        wd = wold_decompose(graph_induced(G2))
        assert wd.dims() == (3, 6, 0)
        assert wd.certified

    def test_unitary_dims(self):
        wd = wold_decompose(unitary3())
        assert wd.dims() == (0, 0, 3)
        assert wd.certified

    def test_direct_sum_dims_add(self):
        rep, nu, ni = loop_plus_g1()
        wd = wold_decompose(rep)
        assert wd.dims() == (2, ni, nu)
        assert wd.certified
        # projections complete and orthogonal
        P = wd.H_u.projector() + wd.H_inf.projector()
        np.testing.assert_allclose(P, np.eye(rep.hdim), atol=1e-9)
        assert np.linalg.norm(wd.H_u.projector() @ wd.H_inf.projector()) < 1e-9

    def test_hypothesis_failure_flagged_not_raised(self):
        rep = scalar_covrep(np.diag([1.0, 2.0]))
        wd = wold_decompose(rep)
        assert not wd.hypothesis_met
        assert wd.dims()[0] == 0  # invertible: no wandering vectors

    def test_analytic_case_fills_H(self):
        wd = wold_decompose(weighted_graph_rep(G2, [1.25, 1.1]))
        assert wd.H_u.dim == 6 and wd.H_inf.dim == 0


class TestMuhlySolel:
    def test_g2_pure(self):
        rep = verify_muhly_solel(graph_induced(G2))
        assert rep.passed
        assert rep.dims == {"H1": 6, "H2": 0, "W": 3}

    def test_unitary_all_h2(self):
        rep = verify_muhly_solel(unitary3())
        assert rep.passed
        assert rep.dims == {"H1": 0, "H2": 3, "W": 0}

    def test_mixed_direct_sum(self):
        rep, nu, ni = loop_plus_g1()
        report = verify_muhly_solel(rep)
        assert report.passed
        assert report.dims == {"H1": ni, "H2": nu, "W": 2}

    def test_rejects_non_isometric(self):
        with pytest.raises(NotIsometric):
            verify_muhly_solel(weighted_graph_rep(G1, [0.5]))

    def test_second_coordinate_of_a_shared_tower(self):
        # the Fock model is built on letter 1 of the product system's tower
        rep = verify_muhly_solel(two_color_path_rep().rep(1))
        assert rep.passed
        assert rep.dims == {"H1": 9, "H2": 0, "W": 6}

    @staticmethod
    def isometric_reps():
        return [graph_induced(G2), loop_plus_g1()[0], two_color_path_rep().rep(1)]

    def test_split_items_are_wold_decompose_items(self):
        for rep in self.isometric_reps():
            report = verify_muhly_solel(rep)
            wd = wold_decompose(rep)
            items = {item.name: item for item in report.conclusions}
            certificates = {item.name: item for item in wd.certificates}
            for name in ("orthogonality", "completeness"):
                assert repr(items[name]) == repr(certificates[name]), name
            coiso = certificates["restriction_fully_coisometric"]
            h2 = items["H2_fully_coisometric"]
            assert (h2.passed, h2.residual, h2.vacuous) == (coiso.passed, coiso.residual, coiso.vacuous)

    def test_H1_is_the_cached_wandering_closure(self, monkeypatch):
        import covrep.wold as wold

        seen = []

        def split_items(rep, H1, H2, _fn=wold._split_items):
            seen.append((H1, H2))
            return _fn(rep, H1, H2)

        monkeypatch.setattr(wold, "_split_items", split_items)
        for rep in self.isometric_reps():
            seen.clear()
            verify_muhly_solel(rep)
            (H1, H2), = seen
            assert H1 is wold_decompose(rep).H_u
            assert H2 is h_infinity(rep)

    def test_no_sum_or_restriction_after_wold_decompose(self, count_calls):
        import covrep.wold as wold

        calls = count_calls(wold, "image")
        count_calls(CovariantRep, "restrict")
        for rep in self.isometric_reps():
            wold_decompose(rep)
            calls.clear()
            assert verify_muhly_solel(rep).passed
            assert calls == {}


class TestRichter:
    def test_fock_grading_subspaces(self):
        rep = graph_induced(G2)
        # levels >= m are invariant; their wandering subspaces are level m
        ids = np.eye(6, dtype=complex)
        for m, start, wdim in [(0, 0, 3), (1, 3, 2), (2, 5, 1)]:
            K = Subspace(6, ids[:, start:])
            report = verify_richter(rep, K)
            assert report.passed and report.hypotheses_met
            assert report.dims["W_K"] == wdim

    def test_zero_subspace(self):
        rep = graph_induced(G1)
        report = verify_richter(rep, Subspace.zero(3))
        assert report.passed
        assert report.dims["W_K"] == 0

    def test_non_invariant_errors(self):
        rep = graph_induced(G2)
        p0 = orth(rep.sigma.apply_coords(oracles.unit_coords(rep.sigma.algebra, 0)))
        with pytest.raises(NotInvariant):
            verify_richter(rep, Subspace(6, p0[:, :1]))

    def test_unitary_hypotheses_fail_conclusion_fails(self):
        report = verify_richter(unitary3(), Subspace.full(3))
        assert not report.hypotheses_met
        assert not report.passed

    def test_rotated_basis_of_H(self, rng):
        met = []
        for rep in (graph_induced(G2), weighted_graph_rep(G2, [1.25, 1.1]), loop_plus_g1()[0]):
            n = rep.hdim
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            K = Subspace(n, Q)
            full = verify_richter(rep, Subspace.full(n))
            # the report on any basis of H is the one measured on the identity
            assert dump_json(verify_richter(rep, K).to_json()) == dump_json(full.to_json())
            # and measuring on the rotated basis itself gives the same answers
            conclusions, dims = _richter_conclusions(rep, K)
            assert dict(dims) == full.dims
            assert [c.passed for c in conclusions] == [c.passed for c in full.conclusions]
            wander, *angles = conclusions
            assert wander.residual <= rep.tol * max(rep.scale, rep.sigma.scale)
            if full.hypotheses_met:
                assert all(item.residual <= ANGLE_TOL for item in angles)
            met.append(full.hypotheses_met)
        assert met == [True, True, False]


class TestCauchyDualProps:
    def test_isometric_analytic_self_dual(self):
        report = verify_cauchy_dual_props(graph_induced(G2))
        assert report.passed

    def test_weighted_g2(self):
        report = verify_cauchy_dual_props(weighted_graph_rep(G2, [1.25, 1.1]))
        assert report.passed
        assert all(i.residual <= 1e-9 for i in report.conclusions)

    def test_left_invertible_hypothesis_is_measured(self):
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        measured = rep.check_left_invertible().as_item()
        assert measured.detail.startswith("min_eig=")
        for report in (verify_cauchy_dual_props(rep), verify_ker_Ln(rep, 2)):
            assert report.hypotheses == (measured,)
            assert report.hypotheses_met

    def test_scalar_unitary(self):
        report = verify_cauchy_dual_props(unitary3())
        assert report.passed
        assert report.dims["span"] == 0
        assert report.dims["H_inf"] == 3

    def test_dual_reducing_implication_unitary(self):
        report = check_dual_reducing_implication(unitary3())
        assert report.passed
        assert report.hypotheses_met  # H'_inf = H is reducing

    def test_dual_reducing_implication_g1(self):
        report = check_dual_reducing_implication(graph_induced(G1))
        assert report.passed

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_dual_reducing_never_violated(self, seed):
        rep = random_instance(seed, "concave")
        if rep.left_invertible():
            assert check_dual_reducing_implication(rep).passed

    def test_mixed_instance_nontrivial_summands(self):
        # unitary (+) induced: both H_inf and the wandering span are nonzero,
        # so the four subspace identities are exercised with real content
        rep, nu, ni = loop_plus_g1()
        assert rep.left_invertible()
        report = verify_cauchy_dual_props(rep)
        assert report.passed
        assert report.dims["H_inf"] == nu and report.dims["span"] == ni
        implication = check_dual_reducing_implication(rep)
        assert implication.passed and implication.hypotheses_met
        # ker L^n saturates at the analytic part and never reaches H_inf
        assert verify_ker_Ln(rep, 3).dims["ker"] == ni


class TestKerLn:
    def test_n1_is_wandering(self):
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        report = verify_ker_Ln(rep, 1)
        assert report.passed
        assert report.dims["ker"] == wandering_subspace(rep).dim

    def test_g2_two_levels(self):
        report = verify_ker_Ln(graph_induced(G2), 2)
        assert report.passed
        assert report.dims["ker"] == 5

    def test_beyond_nilpotency_full(self):
        rep = graph_induced(G2)
        report = verify_ker_Ln(rep, 4)
        assert report.passed
        assert report.dims["ker"] == 6


def _lattice_reps(source):
    """The covariant representations of the corpus, or of one random_instance
    profile at seeds 0-19; a product tuple gives its coordinates."""
    if source == "corpus":
        instances = list(corpus_instances().values())
    else:
        instances = [random_instance(seed, source) for seed in range(20)]
    return [rep for inst in instances for rep in getattr(inst, "reps", [inst])]


class TestStepAgainstTheTower:
    """The one-step lattice (L_1(K) = span T(xi_i) K, stepped n times)
    against the tower construction it replaced (``oracles``): L_n(K) through
    the n-th tower level and the composite T~_n, and H_inf through the ranges
    of the T~_n.  The same dims and subspaces for K in {W, H, L_1(W) + L_2(H)}
    at every depth up to dim H, on the corpus and each random profile at
    seeds 0-19."""

    @pytest.mark.parametrize("source", ["corpus", *PROFILES])
    def test_same_subspaces(self, source):
        for index, rep in enumerate(_lattice_reps(source)):
            H, W = Subspace.full(rep.hdim), wandering_subspace(rep)
            pairs = [(h_infinity(rep), oracles.tower_h_infinity(rep))]
            mixed = oracles.tower_translate(rep, 1, W) + oracles.tower_translate(rep, 2, H)
            for K in (W, H, mixed):
                want = [oracles.tower_translate(rep, n, K) for n in range(rep.hdim + 1)]
                pairs += [(script_L_n(rep, K, n), want[n]) for n in range(rep.hdim + 1)]
                # the sweep's translates, each carried from the last, up to
                # the first zero translate
                swept = list(_translates(rep, K))
                assert all(w.dim == 0 for w in want[len(swept) + 1:]), index
                pairs += list(zip(swept, want[1:]))
            for got, ref in pairs:
                assert got.dim == ref.dim, index
                assert got.angle_gap(ref) <= ANGLE_TOL, index


class TestNearTheCutoff:
    """Rank decisions next to ``RANK_TOL``: each is that of one L_1 step."""

    @pytest.mark.parametrize("w", [1e-3, 1e-5, 1e-7])
    def test_weight_powers_below_the_cutoff(self, w):
        # diag(1, w) (+) the nilpotent 3-shift: H_inf = span(e_0, e_1), and
        # W = span(e_2) generates span(e_2, e_3, e_4).  Each step keeps w, but
        # w^n falls below the cutoff from n = 2 or 3 on, so a rank decision
        # on the composite T^n dropped e_1 from H_inf
        T = np.zeros((5, 5))
        T[0, 0], T[1, 1], T[3, 2], T[4, 3] = 1.0, w, 1.0, 1.0
        rep = scalar_covrep(T)
        decomposition = wold_decompose(rep)
        assert decomposition.dims() == (1, 3, 2)
        items = {item.name: item for item in decomposition.certificates}
        assert items["orthogonality"].passed and items["completeness"].passed
        assert h_infinity(rep).equals(Subspace(5, np.eye(5)[:, :2]))

    @pytest.mark.parametrize("w,dims", [(1e-2, (0, 0, 3)), (1e-4, (0, 0, 3)), (1e-6, (0, 0, 3)), (1e-8, (1, 3, 0))])
    def test_weighted_cyclic_shift(self, w, dims):
        # the cyclic 3-shift with one weight w, whose smallest singular value
        # is w: T~ is invertible above the cutoff and drops a rank at it
        T = np.roll(np.eye(3), 1, axis=0)
        T[0, 2] = w
        assert wold_decompose(scalar_covrep(T)).dims() == dims

    def test_lattice_builds_no_tower_level(self, count_calls):
        # the cyclic 24-shift (+) the nilpotent 24-shift, the bench's shift-24
        T = np.zeros((48, 48))
        T[:24, :24] = np.roll(np.eye(24), 1, axis=0)
        T[24:, 24:] = np.eye(24, k=-1)
        rep = scalar_covrep(T)
        # the concavity hypothesis is the growth bound of T~_2 and reads
        # tilde_n(2) by definition; it is measured before the count
        rep.check_concave()
        rep.check_shimorin()
        calls = count_calls(HilbertTower, "tensor_op")
        count_calls(CovariantRep, "tilde_n")
        assert wold_decompose(rep).dims() == (1, 24, 24)
        assert calls == {}


def _drift(space: Subspace) -> float:
    """|B*B - I|_2 of a subspace's basis, by SVD (no screen)."""
    return op_norm(space.basis.conj().T @ space.basis - np.eye(space.dim))


def _low_rank(seed: int, rows: int, cols: int, rank: int, scale: float) -> np.ndarray:
    """A rows x cols complex matrix of rank at most ``rank`` (zero when scale is 0)."""
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    return scale * (left @ right)


class TestTrustedBases:
    """The lattice operations skip the orthonormality screen on the bases
    ``orth_cols``/``null_cols`` make; those bases are orthonormal anyway."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        cols=st.integers(0, 5),
        rank=st.integers(0, 5),
        scale=st.sampled_from([0.0, 1e-12, 1.0, 1e6]),
    )
    def test_lattice_bases_are_orthonormal(self, seed, n, cols, rank, scale):
        a = _low_rank(seed, n, cols, rank, scale)
        b = _low_rank(seed + 1, n, n, rank, scale)
        spaces = [image(a), kernel(a), kernel(a.conj().T), image(b)]
        spaces += [s.orthocomplement() for s in spaces]
        spaces += [spaces[0].intersect(spaces[3]), spaces[0] + spaces[3], spaces[1] + spaces[1]]
        # a scalar representation: every subspace is sigma(C)-invariant
        rep = scalar_covrep(_low_rank(seed + 2, n, n, rank, scale))
        spaces += list(_translates(rep, spaces[0]))
        for space in spaces:
            assert space.basis.shape[0] == space.ambient_dim
            assert _drift(space) <= ORTHONORMAL_TOL

    @pytest.mark.parametrize(
        "basis",
        [np.ones((3, 1)), np.array([[1.0, 1.0], [0.0, 1.0]]), 2.0 * np.eye(2)],
        ids=["unnormalised", "oblique", "scaled"],
    )
    def test_public_constructor_screens(self, basis):
        with pytest.raises(ShapeMismatch):
            Subspace(basis.shape[0], basis)


def _full_pass(rep):
    """Every verifier that reads the lattice of ``rep``."""
    wold_decompose(rep)
    verify_richter(rep, Subspace.full(rep.hdim))
    if rep.check_isometric().passed:
        verify_muhly_solel(rep)
    if rep.left_invertible():
        verify_cauchy_dual_props(rep)
        verify_ker_Ln(rep, 2)
        check_dual_reducing_implication(rep)


def _check_suite(rep):
    """The nine checks of the ``check_*`` family, as check items."""
    names = ("isometric", "fully_coisometric", "concave", "expansive", "shimorin", "eq13", "eq12", "analytic")
    checks = [getattr(rep, f"check_{name}")() for name in names] + [rep.check_growth_bound(2)]
    return [check.as_item().to_json() for check in checks]


def _u_bits(rep):
    """``build_U`` as exact data: its arrays by their hashes, its residuals
    as floats, which JSON spells exactly."""
    u = rep.build_U()
    return {
        "matrix": [list(u.matrix.shape), hashlib.sha256(u.matrix.tobytes()).hexdigest()],
        "kernel": [list(u.kernel.shape), hashlib.sha256(u.kernel.tobytes()).hexdigest()],
        "level_dims": list(u.level_dims),
        "residuals": [u.isometry_residual, u.coisometry_residual, u.norm],
        "concave_vacuous": u.concave_vacuous,
    }


#: The verifiers that read the lattice constants of a covariant representation.
WARM_VERIFIERS = (
    wold_decompose,
    verify_cauchy_dual_props,
    lambda rep: verify_ker_Ln(rep, 3),
    check_dual_reducing_implication,
)


def _certify(rep):
    """One warm-path pass over ``WARM_VERIFIERS``, as report bytes."""
    return [dump_json(verify(rep).to_json()) for verify in WARM_VERIFIERS]


class TestLatticeCache:
    """The lattice constants (W with H_inf, [W]_T with the translates that
    grew it, and the certificates measured on them) are computed once per
    representation; ``tests/test_cache.py`` checks the rule on every verifier."""

    @staticmethod
    def rep():
        return weighted_graph_rep(G2, [1.25, 1.1])

    @classmethod
    def reps(cls):
        """An analytic instance and one with a unitary part (H_inf != 0)."""
        return [cls.rep(), loop_plus_g1()[0]]

    def test_computed_once(self):
        for rep in self.reps():
            _full_pass(rep)
            first = dict(rep._cache)
            _full_pass(rep)
            assert rep._cache.keys() == first.keys()
            assert all(rep._cache[key] is value for key, value in first.items())
            decomposition = wold_decompose(rep)
            assert decomposition.W is wandering_subspace(rep)
            assert decomposition.H_inf is h_infinity(rep)
            assert decomposition.H_u is wold_decompose(rep).H_u
            assert verify_cauchy_dual_props(rep).dims["span"] == decomposition.H_u.dim

    def test_certificates_measured_once(self, count_calls):
        import covrep.wold as wold

        count_calls(wold, "check_reducing", "_sigma_check", "invariant_closure")
        calls = count_calls(CovariantRep, "restrict")
        for rep in self.reps():
            calls.clear()
            _certify(rep)
            once = dict(calls)
            _certify(rep)
            _certify(rep)
            assert calls == once
            # H_u and H_inf, and the dual's H_inf
            assert once["check_reducing"] == 3

    def test_cached_bases_are_read_only(self):
        for rep in self.reps():
            _full_pass(rep)
            decomposition = wold_decompose(rep)
            translates = _wandering_sweep(rep)[1]
            assert translates
            arrays = [space.basis for space in (decomposition.W, decomposition.H_u, decomposition.H_inf, *translates)]
            # the cached operators of the representation itself
            arrays += [rep.L, rep.P, rep.tilde, rep.tilde_n(2), rep.factor(rep.word(2))]
            for array in arrays:
                with pytest.raises(ValueError):
                    array[...] = 0.0

    def test_bit_equal_to_a_fresh_instance(self):
        for rep in self.reps():
            _full_pass(rep)
            fresh = CovariantRep(rep.sigma, rep.E, rep.T, tol=rep.tol)
            # each cached value against its function run uncached on the
            # fresh instance, which fills its cache in another order
            build = {f.__qualname__: f for f in _CACHED}
            for (name, *args), value in rep._cache.items():
                assert _bits(value) == _bits(build[name](fresh, *args)), name
            # the formulas the cache replaced
            full = Subspace.full(fresh.hdim)
            W = wandering_subspace(rep)
            assert W.basis.tobytes() == _step(fresh, full).orthocomplement().basis.tobytes()
            H_u, translates = _wandering_sweep(rep)
            assert H_u is wold_decompose(rep).H_u
            assert H_u.basis.tobytes() == invariant_closure(fresh, W).basis.tobytes()
            # the translates of W as far as each grows the running sum
            grew, total = [], W
            for k in range(1, fresh.hdim + 1):
                ln = script_L_n(fresh, W, k)
                if (total + ln).dim == total.dim:
                    break
                grew.append(ln)
                total = total + ln
            assert _bits(translates) == _bits(tuple(grew))

    def test_warm_reports_equal_cold_reports(self):
        for rep in self.reps():
            warm = [_certify(rep) for _ in range(3)]
            # each verifier's first call, on an instance of its own
            cold = [
                dump_json(verify(CovariantRep(rep.sigma, rep.E, rep.T, tol=rep.tol)).to_json())
                for verify in WARM_VERIFIERS
            ]
            assert warm == [cold] * 3

    def test_caller_subspaces_are_not_cached(self):
        # T is upper triangular, so the span of e_1, ..., e_m is invariant
        rep = scalar_covrep(np.diag([2.0, 1.0, 0.5, 0.0]) + np.eye(4, k=1))
        wold_decompose(rep)
        # K = H is measured once per representation, whatever its basis
        verify_richter(rep, Subspace.full(rep.hdim))
        before = dict(rep._cache)
        rng = np.random.default_rng(5)
        dims = set()
        for _ in range(50):
            m = rng.integers(1, 5)
            v = np.zeros((4, 1), dtype=complex)
            v[:m] = rng.standard_normal((m, 1)) + 1j * rng.standard_normal((m, 1))
            K = invariant_closure(rep, image(v))
            verify_richter(rep, K)
            dims.add(K.dim)
            assert rep._cache.keys() == before.keys()
        assert dims == {1, 2, 3, 4}

    def test_theorem_reports_warm_equal_cold(self, count_calls):
        import covrep.product as product
        import covrep.wold as wold
        from covrep.examples import induced_product_representation, jordan_pair, two_colored_system
        from covrep.product import ProductRep, verify_T22, verify_T24_equivalence

        verifiers = (
            lambda rep: verify_muhly_solel(rep).to_json(),
            lambda rep: verify_richter(rep, Subspace.full(rep.hdim)).to_json(),
            lambda rep: verify_cauchy_dual_props(rep).to_json(),
            _check_suite,
            _u_bits,
        )
        calls = count_calls(wold, "FockHilbert", "check_wandering")
        # H_inf = 0, and an isometric instance with H_inf != 0
        for make in (lambda: graph_induced(G2), lambda: loop_plus_g1()[0]):
            cold = [dump_json(verify(make())) for verify in verifiers]
            rep = make()
            calls.clear()
            warm = [[dump_json(verify(rep)) for verify in verifiers] for _ in range(3)]
            assert warm == [cold] * 3
            assert calls == {"FockHilbert": 1, "check_wandering": 1}

        # T24 on the 2 x 2 commuting-square grid, and T22 on the Jordan pair,
        # whose coordinates take the direct hypothesis
        grid = lambda: induced_product_representation(  # noqa: E731
            two_colored_system(4, [(0, 1), (2, 3)], [(0, 2), (1, 3)])
        )
        calls = count_calls(product, "_generates")
        count_calls(ProductRep, "doubly_residual")
        for make, verify in ((grid, verify_T24_equivalence), (jordan_pair, verify_T22)):
            cold = dump_json(verify(make()).to_json())
            pr = make()
            calls.clear()
            warm = [dump_json(verify(pr).to_json())]
            once = dict(calls)
            warm += [dump_json(verify(pr).to_json()) for _ in range(2)]
            assert warm == [cold] * 3
            assert calls == once
            # the two ordered pairs of coordinates, once
            assert calls.pop("doubly_residual") == 2
            # the direct hypothesis, measured on the first call only
            assert bool(calls) == (verify is verify_T22)
        assert "hypothesis_strategy_direct" in cold

    def test_dual_and_restriction_have_their_own(self):
        rep = self.rep()
        W = wandering_subspace(rep)
        dual = rep.cauchy_dual()
        assert dual._cache is not rep._cache
        assert wandering_subspace(dual) is not W
        assert wandering_subspace(dual) is wandering_subspace(dual)
        H_u = wold_decompose(rep).H_u
        size = len(rep._cache)
        sub = rep.restrict(H_u.basis)
        assert sub._cache is not rep._cache
        assert wandering_subspace(sub).ambient_dim == H_u.dim
        assert h_infinity(sub) is h_infinity(sub)
        assert len(rep._cache) == size
