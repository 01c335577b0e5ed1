import json

import numpy as np
import pytest

from covrep.covrep import CovariantRep
from covrep.errors import CommutationViolation
from covrep.examples import (
    G1,
    G2,
    PROFILES,
    DirectedGraph,
    cycle_unitary_rep,
    direct_sum,
    graph_correspondence,
    graph_induced,
    induced_representation,
    jordan_pair,
    random_instance,
    scalar_tuple,
    weighted_graph_rep,
    write_corpus,
)
from covrep.product import ProductRep
from covrep.serialize import instance_from_json, instance_to_json
from covrep.wold import verify_muhly_solel

import oracles
from oracles import path_count


class TestDirectedGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            DirectedGraph(2, ((0, 5),))
        with pytest.raises(ValueError):
            DirectedGraph(2, ((0, 1),), (0.0,))
        g = DirectedGraph(3, ((0, 1), (0, 1)))
        assert oracles.adjacency(g)[0, 1] == 2

    def test_empty_edge_set_rejected(self):
        with pytest.raises(ValueError):
            graph_correspondence(DirectedGraph(2, ()))


class TestGraphCorrespondence:
    def test_g1_g2_dims(self):
        assert graph_correspondence(G1).dim == 1
        assert graph_correspondence(G2).dim == 2

    def test_tensor_powers_count_paths(self):
        from covrep.correspondence import ChainTower

        E = graph_correspondence(G2)
        chain = ChainTower([E], E.tol)
        adj = oracles.adjacency(G2)
        for n in range(1, 4):
            assert chain.corr((0,) * n).dim == path_count(adj, n)


class TestInducedRepresentation:
    def test_g1_is_the_three_dimensional_instance(self):
        rep = graph_induced(G1)
        assert rep.hdim == 3
        assert rep.meta["exact"] is True
        assert rep.check_isometric().passed
        assert rep.check_analytic().passed

    def test_g2_is_six_dimensional(self):
        rep = graph_induced(G2)
        assert rep.hdim == 6
        assert rep.check_isometric().passed

    def test_truncated_shift_flagged_non_exact(self):
        from covrep.examples import scalar_correspondence, scalar_representation

        rep = induced_representation(scalar_correspondence(), scalar_representation(1), 2)
        assert rep.meta["exact"] is False
        assert not rep.check_isometric().passed  # isometry fails at the top level

    def test_induced_satisfies_muhly_solel_with_trivial_h2(self):
        report = verify_muhly_solel(graph_induced(G2))
        assert report.passed and report.dims["H2"] == 0

    def test_product_exactness_matches_rank_one_on_a_sink(self):
        # sigma lives on vertex 3, the range of every edge and the source of
        # none, so every creation operator vanishes and depth 0 is exact
        from covrep.algebra import StarRepresentation
        from covrep.examples import induced_product_representation, two_colored_system

        system = two_colored_system(4, [(0, 1), (2, 3)], [(0, 2), (1, 3)])
        images = np.zeros((4, 1, 1))
        images[3, 0, 0] = 1.0
        pi = StarRepresentation(system.algebra, 1, images)
        pr = induced_product_representation(system, pi, depths=(0, 0))
        assert not any(r.T.any() for r in pr.reps)
        assert pr.meta["exact"] is True
        for E in system.correspondences:
            assert induced_representation(E, pi, 0).meta["exact"] is True

    def test_auto_depth_past_sixteen(self):
        # the directed path on 18 vertices has depth 17 over 18 central blocks
        from covrep.correspondence import ChainTower
        from covrep.examples import _auto_depth

        E = graph_correspondence(DirectedGraph(18, tuple((i, i + 1) for i in range(17))))
        assert _auto_depth(ChainTower([E], E.tol), 0) == 17

    def test_complete_dag_on_seven_vertices(self):
        # 21 edges, 127 paths; positivity of each level runs on the right
        # blocks of E, at most 35 * 6 wide instead of 35 * 21
        from covrep.wold import wold_decompose

        rep = graph_induced(DirectedGraph(7, tuple((s, t) for s in range(7) for t in range(s + 1, 7))))
        decomposition = wold_decompose(rep)
        assert decomposition.dims() == (7, 127, 0)
        assert decomposition.certified

    def test_depth_required_for_cycles(self):
        g = DirectedGraph(1, ((0, 0),))
        from covrep.algebra import StarRepresentation

        E = graph_correspondence(g)
        pi = StarRepresentation.identity(E.algebra)
        with pytest.raises(ValueError):
            induced_representation(E, pi)


class TestScalarTuple:
    def test_identity_pair(self):
        pr = scalar_tuple([np.eye(2), np.eye(2)])
        assert pr.is_doubly_commuting()

    def test_jordan_pair_properties(self):
        pr = jordan_pair()
        assert pr.is_doubly_commuting()
        assert all(pr.rep(i).check_analytic().passed for i in range(2))

    def test_s_s2_valid_but_not_doubly(self):
        S = np.zeros((3, 3), dtype=complex)
        S[0, 1] = S[1, 2] = 1.0
        pr = scalar_tuple([S, S @ S])
        assert not pr.is_doubly_commuting()

    def test_non_commuting_raises(self):
        with pytest.raises(CommutationViolation):
            scalar_tuple([np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [0.0, 0.0]])])


class TestWeightedGraphRep:
    def test_g1_half_properties(self):
        rep = weighted_graph_rep(G1, [0.5])
        conc = rep.check_concave()
        assert conc.passed and conc.vacuous
        assert rep.check_analytic().passed
        assert rep.left_invertible()
        np.testing.assert_allclose(rep.cauchy_dual().T, 2.0 * graph_induced(G1).T, atol=1e-10)

    def test_unit_weights_are_isometric(self):
        assert weighted_graph_rep(G2, [1.0, 1.0]).check_isometric().passed

    def test_concavity_counterexample_weights(self):
        rep = weighted_graph_rep(G2, [1.0, 1.5])
        assert not rep.check_concave().passed


class TestCycleUnitaryAndDirectSum:
    def test_cycle_rep_is_unitary_part(self):
        g = DirectedGraph(3, ((0, 1), (2, 2)))
        rep = cycle_unitary_rep(g, [1], [1j])
        assert rep.check_isometric().passed
        assert rep.check_fully_coisometric().passed

    def test_two_cycle(self):
        g = DirectedGraph(4, ((0, 1), (2, 3), (3, 2)))
        rep = cycle_unitary_rep(g, [1, 2])
        assert rep.hdim == 2
        assert rep.check_isometric().passed and rep.check_fully_coisometric().passed

    def test_rejects_leaking_cycle(self):
        g = DirectedGraph(3, ((2, 2), (2, 0)))
        with pytest.raises(ValueError):
            cycle_unitary_rep(g, [0])

    def test_direct_sum_dims(self):
        r1 = graph_induced(G1)
        r2 = graph_induced(G1)
        both = direct_sum(r1, r2)
        assert both.hdim == 6
        assert both.check_isometric().passed


class TestRandomInstance:
    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            random_instance(0, "nope")

    @pytest.mark.parametrize("profile", PROFILES)
    def test_deterministic_per_seed(self, profile):
        a = random_instance(7, profile)
        b = random_instance(7, profile)
        if isinstance(a, CovariantRep):
            np.testing.assert_array_equal(a.T, b.T)
            np.testing.assert_array_equal(a.sigma.images, b.sigma.images)
        else:
            for i in range(a.k):
                np.testing.assert_array_equal(a.reps[i].T, b.reps[i].T)

    def test_profiles_achieved(self):
        for seed in range(6):
            assert random_instance(seed, "isometric").check_isometric().passed
            conc = random_instance(seed, "concave")
            assert conc.check_concave().passed
            shim = random_instance(seed, "shimorin")
            assert shim.check_shimorin().passed
            pr = random_instance(seed, "doubly-commuting")
            assert isinstance(pr, ProductRep) and pr.is_doubly_commuting()
            generic = random_instance(seed, "generic")
            assert isinstance(generic, CovariantRep)


class TestCorpus:
    def test_expected_names(self, corpus):
        assert set(corpus) == {
            "g1-induced",
            "g2-induced",
            "g1-w-half",
            "scalar-unitary-3",
            "jordan-pair",
            "two-color-path",
        }

    def test_write_and_reload(self, tmp_path, corpus):
        paths = write_corpus(tmp_path)
        assert len(paths) == 6
        for path in paths:
            data = json.loads(path.read_text())
            inst = instance_from_json(data)
            again = instance_to_json(inst)
            assert json.dumps(again, sort_keys=True) == json.dumps(data, sort_keys=True)

    def test_two_color_path_shape(self, corpus):
        pr = corpus["two-color-path"]
        assert pr.hdim == 9
        assert pr.meta["exact"] is True
        assert pr.is_doubly_commuting()


class TestProductFockCreation:
    """Creation bubbles the new letter past lower letters with flips built once."""

    @staticmethod
    def per_vector_creation(pf, c, xi):
        """Reference: prepend xi, then apply each flip in turn, for every level."""
        from covrep._linalg import kron

        chain = pf.chain
        out = np.zeros((pf.dim, pf.dim), dtype=complex)
        for n in pf.indices:
            if n[c] == pf.depths[c]:
                continue
            target = pf._bump(n, c)
            mat = chain.prepend(pf.words[n], c, xi)
            cur = (c,) + pf.words[n]
            for p in range(sum(n[:c])):
                cur, f = chain.flip_at(cur, p, pf.flip(cur[p], cur[p + 1]))
                mat = f @ mat
            src, dst = pf.spaces[n], pf.spaces[target]
            block = dst.push @ kron(mat, np.eye(pf.sigma.hilbert_dim)) @ src.lift
            o_s, o_d = pf.offsets[n], pf.offsets[target]
            out[o_d : o_d + dst.quotient_dim, o_s : o_s + src.quotient_dim] = block
        return out

    def test_matches_per_vector_bubbling(self, rng):
        from covrep.algebra import StarRepresentation
        from covrep.correspondence import FockHilbert
        from covrep.examples import two_colored_system

        right = [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)]
        down = [(0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 8)]
        system = two_colored_system(9, right, down)
        pf = FockHilbert(
            system.chain, StarRepresentation.identity(system.algebra), {0: 2, 1: 2}, system.flip
        )
        for c in range(system.k):
            e_c = system.correspondences[c].dim
            creations = [pf.creation(c, np.eye(e_c)[:, i]) for i in range(e_c)]
            xi = rng.standard_normal(e_c) + 1j * rng.standard_normal(e_c)
            expected = self.per_vector_creation(pf, c, xi)
            np.testing.assert_allclose(pf.creation(c, xi), expected, atol=1e-12)
            np.testing.assert_allclose(np.tensordot(xi, creations, axes=(0, 0)), expected, atol=1e-12)
        # coordinate 1 passes coordinate-0 letters, so some bubbles are not identities
        bubbles = [b for (name, *_), b in pf._cache.items() if name == FockHilbert._bubble.__qualname__]
        assert any(not np.allclose(b, np.eye(len(b))) for b in bubbles)
        for array in [*bubbles, *(a for sp in pf.spaces.values() for a in (sp.push, sp.lift))]:
            with pytest.raises(ValueError):
                array[...] = 0
