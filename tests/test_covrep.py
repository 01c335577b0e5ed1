import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covrep.algebra import MatrixBlocksAlgebra, StarRepresentation
from covrep.correspondence import Correspondence, HilbertTower, algebra_correspondence, internal_tensor
import covrep.covrep as covrep_module
from covrep.covrep import CovariantRep, _bimodule_residual
from covrep._linalg import RANK_TOL, dagger, eye_like, null_cols, op_norm, orth_cols, random_complex, scale_of
from covrep.errors import (
    AlgebraMismatch,
    BimoduleViolation,
    IllDefinedTilde,
    NotConcave,
    NotInvariant,
    NotLeftInvertible,
    ShapeMismatch,
)
from covrep.examples import (
    G1,
    G2,
    DirectedGraph,
    corpus_instances,
    graph_correspondence,
    graph_induced,
    random_instance,
    scalar_covrep,
    scalar_representation,
    weighted_graph_rep,
)
from covrep.wold import Subspace, h_infinity

import oracles

from oracles import shimorin_vector_oracle


def random_scalar(rng, n=3, invertible=True):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if invertible:
        A = A + 2.0 * np.eye(n)
    return scalar_covrep(A)


def embed_product_vector(rep, xis, h):
    """Class of xi_1 (x) ... (x) xi_n (x) h in the quotient space."""
    x = np.ones(1, dtype=complex)
    for xi in xis:
        x = np.kron(x, xi)
    word = rep.word(len(xis))
    coords = rep.chain.fold_tail(word, 0) @ x
    return rep.space(len(xis)).push @ np.kron(coords, h)


def telescoping_residual(rep, n):
    """Largest deviation from I - T~_m L^m = sum_{j<m} T~_j (I (x) P) L^j, m <= n."""
    worst = 0.0
    for m in range(1, n + 1):
        lhs = np.eye(rep.hdim) - rep.tilde_n(m) @ rep.L_n(m)
        rhs = sum(
            rep.tilde_n(j) @ rep.hilb.tensor_op(rep.word(j), rep.P) @ rep.L_n(j) for j in range(m)
        )
        worst = max(worst, np.linalg.norm(lhs - rhs, 2))
    return worst


class TestConstruction:
    def test_scalar_tilde_collapses_to_matrix(self, rng):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rep = scalar_covrep(A)
        # theta recovered through the quotient equals [A]
        theta_back = rep.tilde @ rep.space(1).push
        np.testing.assert_allclose(theta_back, A, atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.svd(rep.tilde, compute_uv=False),
            np.linalg.svd(A, compute_uv=False),
            atol=1e-10,
        )

    def test_g1_induced_tilde_is_creation_matrix(self):
        rep = graph_induced(G1)
        assert rep.tilde.shape == (3, 1)
        for k in range(rep.E.algebra.dim):
            phik = oracles.dense_phi_on_tensor(rep, k)
            residual = np.linalg.norm(rep.tilde @ phik - rep.sigma.images[k] @ rep.tilde, 2)
            assert residual < 1e-12
        np.testing.assert_allclose(np.abs(rep.tilde).max(), 1.0, atol=1e-12)

    def test_bimodule_violation(self):
        E = graph_correspondence(G1)
        sigma = StarRepresentation.identity(E.algebra)
        bad_T = np.zeros((1, 2, 2), dtype=complex)
        bad_T[0, 0, 0] = 1.0  # supported at the source block instead of range->source
        with pytest.raises(BimoduleViolation):
            CovariantRep(sigma, E, bad_T)

    @pytest.mark.parametrize("weight,eps,raises", [(1.0, 1e-8, True), (1e3, 1e-8, False), (1e3, 1e-4, True)])
    def test_bimodule_bound_is_relative_to_the_scale(self, weight, eps, raises):
        # a perturbation off the bimodule structure passes exactly when it is
        # within tol * scale, also where it is above tol itself
        rep = graph_induced(G1)
        T = weight * rep.T + eps * np.ones_like(rep.T)
        if raises:
            with pytest.raises(BimoduleViolation):
                CovariantRep(rep.sigma, rep.E, T)
        else:
            CovariantRep(rep.sigma, rep.E, T)

    def test_ill_defined_tilde(self):
        # degenerate fiber: <f2, f2> = 0, so T(f2) must vanish on classes
        alg = MatrixBlocksAlgebra((1,))
        eye2 = np.eye(2, dtype=complex)[None, :, :]
        gram = np.zeros((2, 2, 1), dtype=complex)
        gram[0, 0, 0] = 1.0
        E = Correspondence(alg, 2, eye2, eye2, gram)
        sigma = scalar_representation(1)
        T = np.zeros((2, 1, 1), dtype=complex)
        T[1, 0, 0] = 1.0
        with pytest.raises(IllDefinedTilde):
            CovariantRep(sigma, E, T)

    @pytest.mark.parametrize("mults,extra", [((0, 2), 0), ((0, 1), 1)], ids=["dead", "dead-degenerate"])
    def test_sigma_killing_the_largest_block(self, rng, mults, extra):
        # M_2 (+) C over itself, T = sigma / 2, sigma zero on the M_2 block:
        # E (x)_sigma H is sigma(1)H
        alg = MatrixBlocksAlgebra((2, 1))
        sigma = oracles.multiplicity_representation(alg, mults, rng, extra)
        rep = CovariantRep(sigma, algebra_correspondence(alg), 0.5 * sigma.images)
        assert rep.space(1).quotient_dim == mults[1]
        np.testing.assert_allclose(rep.tilde @ rep.space(1).push, rep.theta, rtol=0, atol=1e-12)

    def test_lemma_bijection_round_trip(self, rng):
        # T -> T~ -> T recovers the algebraic map exactly
        rep = graph_induced(G2)
        theta_back = rep.tilde @ rep.space(1).push
        np.testing.assert_allclose(theta_back, rep.theta, atol=1e-10)


def degenerate_left_action(alg, sigma, z):
    """The algebra over itself with left action a -> a z for a central
    projection z, so phi(1) = z != 1, and the covariant T(xi) = sigma(z xi) / 2."""
    A = algebra_correspondence(alg)
    left = np.stack([A.phi(oracles.alg_mul(alg, oracles.unit_coords(alg, k), z)) for k in range(alg.dim)])
    E = Correspondence(alg, A.dim, A.right_action, left, A.gram, A.tol)
    T = np.stack([sigma.apply_coords(oracles.alg_mul(alg, z, oracles.unit_coords(alg, i))) for i in range(alg.dim)]) / 2.0
    return E, T


def dense_rows(alg, sigma, rng):
    """The algebra over itself in a random basis f_i = sum_a S[a, i] e_a, with
    the covariant T(f_i) = sigma(f_i) / 2: every b_k f_i and f_i b_k is
    nonzero, so no row of ``one_sided`` is zero."""
    A = algebra_correspondence(alg)
    S = random_complex(rng, (A.dim, A.dim)) + 2.0 * np.eye(A.dim)
    inv = np.linalg.inv(S)
    gram = np.einsum("ai,bj,abk->ijk", np.conj(S), S, A.gram)
    E = Correspondence(alg, A.dim, inv @ A.right_action @ S, inv @ A.left_action @ S, gram, A.tol)
    return E, np.einsum("ai,anm->inm", S, sigma.images) / 2.0


def bimodule_instances(corpus):
    """(label, sigma, E, T) of every corpus coordinate, of the random_instance
    profiles, of algebras with several blocks where sigma(1) != I,
    phi(1) != I, or both, and of algebras with a 2 x 2 block whose
    ``one_sided`` rows are all nonzero."""
    out = []
    named = dict(corpus)
    named.update({f"{p}-{s}": random_instance(s, p) for s in range(3)
                  for p in ("isometric", "concave", "shimorin", "generic", "doubly-commuting")})
    for name, inst in named.items():
        for rep in inst.reps if hasattr(inst, "reps") else (inst,):
            out.append((name, rep.sigma, rep.E, rep.T))
    rng = np.random.default_rng(11)
    for blocks, mults, extra in (((2, 1), (1, 2), 1), ((1, 2, 2), (2, 1, 1), 2)):
        alg = MatrixBlocksAlgebra(blocks)
        sigma = oracles.multiplicity_representation(alg, mults, rng, extra)
        out.append((f"sigma-degenerate-{blocks}", sigma, algebra_correspondence(alg), sigma.images / 2.0))
    for blocks, mults, extra, keep in (((2, 1), (2, 1), 0, (1,)), ((1, 2, 2), (1, 1, 1), 1, (0, 2))):
        alg = MatrixBlocksAlgebra(blocks)
        sigma = oracles.multiplicity_representation(alg, mults, rng, extra)
        z = alg.coords_from_blocks([np.eye(d) * (b in keep) for b, d in enumerate(blocks)])
        E, T = degenerate_left_action(alg, sigma, z)
        label = "phi-degenerate" if not extra else "phi-and-sigma-degenerate"
        out.append((f"{label}-{blocks}", sigma, E, T))
    for blocks, mults in (((2,), (2,)), ((2, 1), (1, 2))):
        alg = MatrixBlocksAlgebra(blocks)
        sigma = oracles.multiplicity_representation(alg, mults, rng)
        out.append((f"dense-rows-{blocks}", sigma, *dense_rows(alg, sigma, rng)))
    return out


def passes_bimodule(sigma, E, T):
    """Whether construction gets past the bimodule check (IllDefinedTilde
    comes after it)."""
    try:
        CovariantRep(sigma, E, T)
    except BimoduleViolation:
        return False
    except IllDefinedTilde:
        pass
    return True


class TestOneSidedBimodule:
    """The bimodule relation measured as its two one-sided halves against the
    relation over all unit pairs (``oracles.bimodule_residual_pairs``)."""

    def test_instances_are_covariant_both_ways(self, corpus):
        for label, sigma, E, T in bimodule_instances(corpus):
            assert oracles.bimodule_residual_pairs(sigma, E, T) < 1e-12, label
            assert _bimodule_residual(sigma, E, T, 1e-9) < 1e-12, label
            assert passes_bimodule(sigma, E, T), label

    def test_degenerate_instances_are_degenerate(self, corpus):
        kinds = {label.rsplit("-(", 1)[0]: (sigma, E) for label, sigma, E, _ in bimodule_instances(corpus)}
        for kind, (sigma, E) in kinds.items():
            alg = E.algebra
            sigma_one = np.linalg.norm(sigma.apply_coords(alg.one) - np.eye(sigma.hilbert_dim))
            phi_one = np.linalg.norm(E.phi(alg.one) - np.eye(E.dim))
            assert (sigma_one > 0.5) == ("sigma" in kind), kind
            assert (phi_one > 0.5) == ("phi" in kind), kind

    def test_two_sided_bound_and_decisions_agree(self, corpus):
        # r' <= N r and r <= (1 + (N + 1) c) r'; a perturbation whose two
        # residuals sit at 0.5x or 2x the bound is decided alike
        rng = np.random.default_rng(5)
        for label, sigma, E, T in bimodule_instances(corpus):
            alg, tol = E.algebra, min(E.tol, sigma.tol)
            N, c = alg.faithful_dim, np.abs(E.right_action).sum(axis=1).max()
            n = sigma.hilbert_dim
            # Y commutes with sigma(1): T Y breaks only (R), Y T only (L)
            one = sigma.apply_coords(alg.one)
            rest = np.eye(n) - one
            Y = one @ random_complex(rng, (n, n)) @ one + rest @ random_complex(rng, (n, n)) @ rest
            for X in (random_complex(rng, T.shape), T @ Y, Y @ T):
                pairs = oracles.bimodule_residual_pairs(sigma, E, T + 1e-3 * X) / 1e-3
                halves = _bimodule_residual(sigma, E, T + 1e-3 * X, tol) / 1e-3
                if pairs < 1e-9:
                    # still covariant (over C with sigma(1) = I and phi(1) = I
                    # every T is), so both ways
                    assert halves < 1e-9, label
                    continue
                assert halves <= N * pairs * (1 + 1e-9), label
                assert pairs <= (1 + (N + 1) * c) * halves * (1 + 1e-9), label
                bound = tol * max(scale_of(T.transpose(1, 0, 2).reshape(n, -1)), sigma.scale)
                for eps, passes in ((0.5 * bound / max(pairs, halves), True), (2.0 * bound / min(pairs, halves), False)):
                    Te = T + eps * X
                    scaled = tol * max(scale_of(Te.transpose(1, 0, 2).reshape(n, -1)), sigma.scale)
                    assert (oracles.bimodule_residual_pairs(sigma, E, Te) <= scaled) == passes, label
                    assert passes_bimodule(sigma, E, Te) == passes, label

    def test_terms_off_sigma_one_over_the_kernel_of_phi_one(self, corpus):
        # for xi in (1 - phi(1))E the relation asks only sigma(1) T(xi)
        # sigma(1) = 0, so T(xi) may map sigma(1)H off itself and back; the
        # sigma(1) and phi(1) factors of the halves let such a T pass
        rng = np.random.default_rng(3)
        for label, sigma, E, T in bimodule_instances(corpus):
            if not label.startswith("phi-and-sigma"):
                continue
            n, one = sigma.hilbert_dim, sigma.apply_coords(E.algebra.one)
            rest = np.eye(n) - one
            off = np.abs(np.diag(E.phi(E.algebra.one))) < 0.5
            assert off.any() and rest.any()
            X = np.zeros_like(T)
            X[off] = rest @ random_complex(rng, (n, n)) @ one + one @ random_complex(rng, (n, n)) @ rest
            assert oracles.bimodule_residual_pairs(sigma, E, T + X) < 1e-12, label
            assert _bimodule_residual(sigma, E, T + X, 1e-9) < 1e-12, label
            assert passes_bimodule(sigma, E, T + X), label

    @staticmethod
    def directions(rng, sigma, E, T):
        """Perturbation directions of T: random, T Y and Y T (which break
        only (R) or only (L)), and, where phi(1) != I, one that reaches only
        the dead pairs: T(f_i) moved inside sigma(1)H for the f_i that
        phi(1) kills, which no nonzero row of ``one_sided`` reads."""
        n, one = sigma.hilbert_dim, sigma.apply_coords(E.algebra.one)
        rest = np.eye(n) - one
        Y = one @ random_complex(rng, (n, n)) @ one + rest @ random_complex(rng, (n, n)) @ rest
        out = [("random", random_complex(rng, T.shape)), ("TY", T @ Y), ("YT", Y @ T)]
        off = np.abs(np.diag(E.phi(E.algebra.one))) < 0.5
        if off.any():
            X = np.zeros_like(T)
            X[off] = one @ random_complex(rng, (n, n)) @ one
            out.append(("dead-only", X))
        return out

    @pytest.mark.parametrize("dense_entries", [-1, None], ids=["split", "dense"])
    def test_halves_equal_the_stacked_halves(self, corpus, monkeypatch, dense_entries):
        # the halves, split on the zero rows of one_sided (every instance
        # here is small enough to be stacked whole unless the split is
        # forced) or stacked whole, return the stacked halves' value
        # (screened or spectral) and decide alike at 0.5x and 2x the bound
        if dense_entries is not None:
            monkeypatch.setattr(covrep_module, "_DENSE_ENTRIES", dense_entries)
        rng = np.random.default_rng(17)
        for label, sigma, E, T in bimodule_instances(corpus):
            tol, n = min(E.tol, sigma.tol), sigma.hilbert_dim
            if label.startswith("dense-rows"):
                assert max(E.algebra.block_dims) > 1, label
                assert all(live.dead is None for live in E.live_rows), label
            for kind, X in self.directions(rng, sigma, E, T):
                base = oracles.bimodule_residual_halves(sigma, E, T + 1e-3 * X, tol) / 1e-3
                if base < 1e-9:
                    assert _bimodule_residual(sigma, E, T + 1e-3 * X, tol) < 1e-9 * 1e-3, (label, kind)
                    continue
                bound = tol * max(scale_of(T.transpose(1, 0, 2).reshape(n, -1)), sigma.scale)
                for eps, passes in ((0.5 * bound / base, True), (2.0 * bound / base, False), (1e-3, False)):
                    Te = T + eps * X
                    want = oracles.bimodule_residual_halves(sigma, E, Te, tol)
                    got = _bimodule_residual(sigma, E, Te, tol)
                    assert abs(got - want) <= 1e-12 * want, (label, kind, eps, got, want)
                    scaled = tol * max(scale_of(Te.transpose(1, 0, 2).reshape(n, -1)), sigma.scale)
                    assert (want <= scaled) == (got <= scaled) == passes, (label, kind, eps)
                    assert passes_bimodule(sigma, E, Te) == passes, (label, kind, eps)

    def test_dead_only_perturbations_reach_no_live_row(self, corpus, monkeypatch):
        # the dead-only direction leaves every live pair's difference at 0,
        # so only the dead pairs' slices can see it
        monkeypatch.setattr(covrep_module, "_DENSE_ENTRIES", -1)
        rng = np.random.default_rng(19)
        seen = 0
        for label, sigma, E, T in bimodule_instances(corpus):
            for kind, X in self.directions(rng, sigma, E, T):
                if kind != "dead-only":
                    continue
                seen += 1
                dead = (np.abs(X) > 0).any(axis=(1, 2))
                for live in E.live_rows:
                    assert not live.action[:, dead].any() and not dead[live.vectors].any(), label
                assert _bimodule_residual(sigma, E, T + X, 1e-9) > 1e-3, label
        assert seen == 2

    def test_small_stacks_build_no_live_row_index(self):
        # a corpus-sized stack is formed whole; the live-row index is built
        # only where the stack is split
        small = graph_induced(G2)
        large = graph_induced(DirectedGraph(12, tuple((i, i + 1) for i in range(11))))
        key = (Correspondence.live_rows.fget.__qualname__,)
        assert key not in small.E._cache and key in large.E._cache

    def test_working_memory_stays_below_the_dense_stack(self):
        # the 12-vertex path: 8 e n^2 complex entries (8.2 MB) bound the
        # transient memory; the dense halves held d e n^2 of them each
        import tracemalloc

        rep = graph_induced(DirectedGraph(12, tuple((i, i + 1) for i in range(11))))
        sigma, E = rep.sigma, rep.E
        sigma.multiplicity, E.one_sided, E.live_rows
        e, n = E.dim, rep.hdim
        assert E.algebra.dim * e * n * n > covrep_module._DENSE_ENTRIES
        tracemalloc.start()
        try:
            _bimodule_residual(sigma, E, rep.T, rep.tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * e * n * n * 16, peak


class TestTildeN:
    def test_zero_is_identity(self):
        rep = graph_induced(G1)
        np.testing.assert_allclose(rep.tilde_n(0), np.eye(3))

    def test_scalar_powers(self, rng):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rep = scalar_covrep(A)
        for n in range(1, 4):
            np.testing.assert_allclose(
                np.linalg.svd(rep.tilde_n(n), compute_uv=False),
                np.linalg.svd(np.linalg.matrix_power(A, n), compute_uv=False),
                atol=1e-9,
            )

    def test_g2_square_is_rank_one(self):
        rep = graph_induced(G2)
        t2 = rep.tilde_n(2)
        assert rep.sdim(2) == 1
        assert np.linalg.matrix_rank(t2, tol=1e-10) == 1

    def test_agrees_with_direct_products(self, rng):
        rep = graph_induced(G2)
        for n in range(1, 3):
            for _ in range(5):
                xis = [
                    rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(n)
                ]
                h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
                vec = embed_product_vector(rep, xis, h)
                direct = h.copy()
                for xi in reversed(xis):
                    direct = np.tensordot(xi, rep.T, axes=(0, 0)) @ direct
                np.testing.assert_allclose(rep.tilde_n(n) @ vec, direct, atol=1e-9)


class TestPropertyChecks:
    def test_isometric_examples(self):
        assert graph_induced(G1).check_isometric().passed
        assert graph_induced(G2).check_isometric().passed
        res = weighted_graph_rep(G1, [0.5]).check_isometric()
        assert not res.passed
        assert res.residual == pytest.approx(0.75, abs=1e-12)

    def test_fully_coisometric_examples(self):
        U = np.roll(np.eye(3, dtype=complex), 1, axis=0)
        assert scalar_covrep(U).check_fully_coisometric().passed
        res = graph_induced(G1).check_fully_coisometric()
        assert not res.passed  # level 0 is not in the range
        zero = scalar_covrep(np.zeros((2, 2)))
        res0 = zero.check_fully_coisometric()
        assert not res0.passed
        assert res0.residual == pytest.approx(1.0)

    def test_concave_examples(self):
        assert graph_induced(G2).check_concave().passed  # isometric: both sides vanish
        res = scalar_covrep(np.diag([1.0, 2.0])).check_concave()
        assert not res.passed
        # per-eigenvalue oracle at t = 2: 2 t^2 - 1 - t^4 = -9
        assert res.min_eig == pytest.approx(-9.0, abs=1e-12)
        vac = weighted_graph_rep(G1, [0.7]).check_concave()
        assert vac.passed and vac.vacuous

    def test_expansive_examples(self):
        assert graph_induced(G2).check_expansive().passed
        res = weighted_graph_rep(G1, [0.5]).check_expansive()
        assert not res.passed
        assert res.min_eig == pytest.approx(-0.75, abs=1e-12)

    def test_concave_implies_expansive_and_growth(self):
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        conc = rep.check_concave()
        assert conc.passed and not conc.vacuous
        assert rep.check_expansive().passed
        for n in range(1, 5):
            assert rep.check_growth_bound(n).passed

    def test_truncation_breaks_concavity_lemma(self):
        # on the truncated Fock model the operator concavity inequality can
        # hold while expansivity fails: the lemma's padding argument needs
        # nonvanishing tensor powers, which the weight-0.5 fiber lacks
        rep = weighted_graph_rep(G2, [1.2, 0.5])
        conc = rep.check_concave()
        assert conc.passed and not conc.vacuous
        assert not rep.check_expansive().passed

    def test_concave_is_the_growth_bound_at_2(self, corpus):
        for inst in corpus.values():
            for rep in TestCachedConstants.coordinates(inst):
                conc, growth = rep.check_concave(), rep.check_growth_bound(2)
                assert conc.name == "concave"
                assert conc.residual == growth.residual and conc.min_eig == growth.min_eig
                assert (conc.passed, conc.vacuous) == (growth.passed, growth.vacuous)

    def test_growth_bound_n1_is_equality(self, rng):
        rep = random_scalar(rng)
        res = rep.check_growth_bound(1)
        assert res.passed
        assert abs(res.min_eig) < 1e-9

    def test_shimorin_examples(self, rng):
        assert graph_induced(G2).check_shimorin().passed
        uni = scalar_covrep(np.roll(np.eye(3, dtype=complex), 1, axis=0))
        res = uni.check_shimorin()
        assert res.passed
        assert abs(res.min_eig) < 1e-12  # equality
        bad = scalar_covrep(np.diag([1.0, 2.0])).check_shimorin()
        assert not bad.passed
        assert bad.min_eig == pytest.approx(2.0 - 4.25, abs=1e-12)

    def test_shimorin_not_left_invertible(self):
        S = np.array([[0.0, 1.0], [0.0, 0.0]])
        res = scalar_covrep(S).check_shimorin()
        assert not res.passed
        assert res.reason == "NotLeftInvertible"
        res13 = scalar_covrep(S).check_eq13()
        assert not res13.passed and res13.reason == "NotLeftInvertible"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_equivalence_chain_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        rep = random_scalar(rng, n=int(rng.integers(2, 5)))
        assert rep.left_invertible()
        a, b, c = rep.check_shimorin(), rep.check_eq13(), rep.check_eq12()
        assert a.passed == b.passed == c.passed

    def test_scalar_shimorin_matches_vector_oracle(self, rng):
        for _ in range(6):
            A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            A += 1.5 * np.eye(3)
            rep = scalar_covrep(A)
            if not rep.left_invertible():
                continue
            assert rep.check_shimorin().passed == shimorin_vector_oracle(A, rng)


class TestCauchyDual:
    def test_isometric_is_self_dual(self):
        rep = graph_induced(G2)
        dual = rep.cauchy_dual()
        np.testing.assert_allclose(dual.T, rep.T, atol=1e-10)

    def test_weighted_edge_inverts(self):
        rep = weighted_graph_rep(G1, [0.5])
        dual = rep.cauchy_dual()
        np.testing.assert_allclose(dual.T, 2.0 * graph_induced(G1).T, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_involution(self, seed):
        from hypothesis import assume

        rng = np.random.default_rng(seed)
        rep = random_scalar(rng, n=int(rng.integers(2, 5)))
        # the double-dual residual scales like eps * cond^2; keep the
        # property about the identity, not about extreme conditioning
        assume(np.linalg.cond(rep.gram_tilde) < 1e5)
        double = rep.cauchy_dual().cauchy_dual()
        assert np.linalg.norm(double.tilde - rep.tilde, 2) < 1e-8

    def test_dual_wandering_subspace_unchanged(self, rng):
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        dual = rep.cauchy_dual()
        from covrep.wold import wandering_subspace

        assert wandering_subspace(rep).equals(wandering_subspace(dual))

    def test_dual_tilde_n_is_adjoint_of_L_n(self, rng):
        rep = random_scalar(rng)
        dual = rep.cauchy_dual()
        for n in range(1, 4):
            np.testing.assert_allclose(
                dual.tilde_n(n), rep.L_n(n).conj().T, atol=1e-9
            )

    def test_not_left_invertible_raises(self):
        S = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotLeftInvertible):
            scalar_covrep(np.kron(S, np.eye(2))).cauchy_dual()

    def test_concavity_shimorin_duality_both_directions(self):
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        assert rep.check_concave().passed
        assert rep.cauchy_dual().check_shimorin().passed
        dual = rep.cauchy_dual()
        if dual.check_shimorin().passed:
            assert dual.cauchy_dual().check_concave().passed

    def test_duality_directions_on_generated_instances(self):
        from covrep.examples import random_instance

        for seed in range(8):
            shim = random_instance(seed, "shimorin")
            # proved direction: the Shimorin inequality passes to a concave dual
            assert shim.cauchy_dual().check_concave().passed, seed
            conc = random_instance(seed, "concave")
            if conc.left_invertible():
                assert conc.cauchy_dual().check_shimorin().passed, seed


class TestLeftInverseChain:
    def test_isometric_L_is_adjoint(self):
        rep = graph_induced(G1)
        np.testing.assert_allclose(rep.L, rep.tilde.conj().T, atol=1e-12)
        np.testing.assert_allclose(
            rep.P, np.eye(3) - rep.tilde @ rep.tilde.conj().T, atol=1e-12
        )

    def test_projections_and_telescoping(self, rng):
        rep = random_scalar(rng)
        for proj in (rep.P, rep.Q):
            assert np.linalg.norm(proj @ proj - proj, 2) < 1e-10
            assert np.linalg.norm(proj - proj.conj().T, 2) < 1e-10
        assert telescoping_residual(rep, 3) < 1e-9

    def test_nilpotent_chain_reconstructs_identity(self):
        rep = graph_induced(G2)
        n = 4  # beyond the nilpotency depth: T~_n L^n = 0
        assert np.linalg.norm(rep.tilde_n(n) @ rep.L_n(n)) < 1e-12
        total = sum(
            rep.tilde_n(j) @ rep.hilb.tensor_op(rep.word(j), rep.P) @ rep.L_n(j)
            for j in range(n)
        )
        np.testing.assert_allclose(total, np.eye(6), atol=1e-10)

    def test_ker_L_is_wandering_subspace(self):
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        from covrep.wold import kernel, wandering_subspace

        assert kernel(rep.L).equals(wandering_subspace(rep))

    def test_L_is_left_inverse(self):
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        np.testing.assert_allclose(rep.L @ rep.tilde, np.eye(rep.sdim(1)), atol=1e-11)


class TestDefectAndEnergy:
    def test_defect_squares_to_gram_minus_identity(self):
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        D = rep.defect_operator()
        np.testing.assert_allclose(
            D @ D, rep.gram_tilde - np.eye(rep.sdim(1)), atol=1e-10
        )

    def test_defect_requires_expansive(self):
        with pytest.raises(NotConcave):
            weighted_graph_rep(G1, [0.5]).defect_operator()

    def test_energy_identity_isometric_full_space(self):
        rep = graph_induced(G2)
        for n in range(1, 5):
            assert oracles.energy_identity(rep, np.eye(6, dtype=complex), n) < 1e-9

    def test_energy_identity_weighted_concave(self):
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        for n in range(1, 5):
            assert oracles.energy_identity(rep, np.eye(6, dtype=complex), n) < 1e-9

    def test_energy_identity_n1_independent_formula(self, rng):
        # |h|^2 = |Ph|^2 + |Lh|^2 + |D L h|^2 checked with raw numpy
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        tilde = rep.tilde
        gram = tilde.conj().T @ tilde
        L = np.linalg.solve(gram, tilde.conj().T)
        P = np.eye(6) - tilde @ L
        w, v = np.linalg.eigh(gram - np.eye(gram.shape[0]))
        D = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
        for _ in range(10):
            h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            lhs = np.linalg.norm(h) ** 2
            rhs = (
                np.linalg.norm(P @ h) ** 2
                + np.linalg.norm(L @ h) ** 2
                + np.linalg.norm(D @ L @ h) ** 2
            )
            assert lhs == pytest.approx(rhs, rel=1e-9)
        assert oracles.energy_identity(rep, np.eye(6, dtype=complex), 1) < 1e-10

    def test_energy_identity_rejects_vacuous_nonexpansive(self):
        with pytest.raises(NotConcave):
            oracles.energy_identity(weighted_graph_rep(G1, [0.5]), np.eye(3, dtype=complex), 1)

    def test_energy_identity_requires_invariant_subspace(self):
        rep = graph_induced(G2)
        from oracles import orth

        p0 = orth(rep.sigma.apply_coords(oracles.unit_coords(rep.sigma.algebra, 0)))
        p1 = orth(rep.sigma.apply_coords(oracles.unit_coords(rep.sigma.algebra, 1)))
        v = (p0[:, :1] + p1[:, :1]) / np.sqrt(2)
        with pytest.raises(NotInvariant):
            oracles.energy_identity(rep, v, 1)


class TestUOperator:
    def test_g1_unitary(self):
        u = graph_induced(G1).build_U()
        assert sum(u.level_dims) == 3
        assert u.isometry_residual < 1e-10
        assert u.coisometry_residual < 1e-10

    def test_g2_unitary(self):
        u = graph_induced(G2).build_U()
        assert u.isometry_residual < 1e-9
        assert u.coisometry_residual < 1e-9

    def test_scalar_unitary_gives_zero_map(self):
        rep = scalar_covrep(np.roll(np.eye(3, dtype=complex), 1, axis=0))
        u = rep.build_U()
        assert u.matrix.shape[0] == 0
        assert u.kernel.shape[1] == 3  # ker U = H = H_inf

    def test_kernel_is_h_infinity(self, corpus):
        for name in ("g1-induced", "g2-induced", "g1-w-half", "scalar-unitary-3"):
            rep = corpus[name]
            u = rep.build_U()
            assert Subspace(rep.hdim, u.kernel).equals(h_infinity(rep)), name

    def test_contraction_under_real_hypotheses(self):
        # non-vacuously concave: |U| <= 1; only-vacuously concave and
        # non-expansive instances are excluded from the paper's claim
        assert weighted_graph_rep(G2, [1.25, 1.1]).build_U().norm <= 1.0 + 1e-9
        assert graph_induced(G2).build_U().norm <= 1.0 + 1e-9

    def test_zero_levels_are_not_built(self, count_calls):
        # the induced 9-vertex path: dim H = 45, and only levels 0..8 are nonzero
        rep = graph_induced(DirectedGraph(9, tuple((i, i + 1) for i in range(8))))
        n = rep.hdim
        calls = count_calls(HilbertTower, "tensor_op")
        u = rep.build_U()
        nonzero = [k for k in range(n + 1) if rep.sdim(k)]
        assert (n, len(nonzero)) == (45, 9)
        assert calls == {"tensor_op": len(nonzero)}
        assert len(u.level_dims) == n + 1
        # the loop over all dim H + 1 levels, which it replaced
        blocks, dims = [], []
        for k in range(n + 1):
            pk = rep.hilb.tensor_op(rep.word(k), rep.P)
            bk = orth_cols(pk, 0.5)
            dims.append(bk.shape[1])
            blocks.append(dagger(bk) @ pk @ rep.L_n(k))
        U = np.vstack(blocks)
        assert u.level_dims == tuple(dims)
        assert np.array_equal(u.matrix, U)
        assert np.array_equal(u.kernel, null_cols(U))
        assert u.isometry_residual == op_norm(dagger(U) @ U - eye_like(n))
        assert u.coisometry_residual == op_norm(U @ dagger(U) - eye_like(U.shape[0]))

    def test_preconditions(self):
        S = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotLeftInvertible):
            scalar_covrep(np.kron(S, np.eye(2))).build_U()
        with pytest.raises(NotConcave):
            scalar_covrep(np.diag([1.0, 2.0])).build_U()


class TestRestriction:
    def test_restrict_to_level_tail(self):
        rep = graph_induced(G2)
        basis = np.eye(6, dtype=complex)[:, 3:]
        sub = rep.restrict(basis)
        assert sub.hdim == 3
        assert sub.check_isometric().passed  # restriction stays covariant
        assert sub.tilde.shape[0] == 3

    def test_restrict_rejects_non_invariant(self):
        # mixing the ranges of two different vertex projections is never
        # sigma(M)-invariant, whatever basis the quotients picked
        rep = graph_induced(G2)
        from oracles import orth

        p0 = orth(rep.sigma.apply_coords(oracles.unit_coords(rep.sigma.algebra, 0)))
        p1 = orth(rep.sigma.apply_coords(oracles.unit_coords(rep.sigma.algebra, 1)))
        v = (p0[:, :1] + p1[:, :1]) / np.sqrt(2)
        with pytest.raises(NotInvariant):
            rep.restrict(v)

    def test_restrict_rejects_non_orthonormal_basis(self):
        # the span is all of H, which is invariant; the basis is what is wrong
        rep = scalar_covrep(np.roll(np.eye(3), 1, axis=0))
        with pytest.raises(ShapeMismatch, match="orthonormal"):
            rep.restrict(2 * np.eye(3))
        assert rep.restrict(np.eye(3)).hdim == 3
        assert rep.restrict(np.zeros((3, 0))).hdim == 0


class TestCachedConstants:
    """scale, cauchy_dual() and factor(word) are computed once per instance."""

    @staticmethod
    def coordinates(inst):
        return inst.reps if hasattr(inst, "reps") else (inst,)

    def test_scale_equals_joint_scale(self, corpus):
        for inst in corpus.values():
            reps = self.coordinates(inst)
            for rep in reps:
                assert rep.scale == scale_of(rep.theta)
                assert max(rep.scale, rep.sigma.scale) == scale_of(rep.theta, *rep.sigma.images)
            if hasattr(inst, "reps"):
                assert inst.scale == scale_of(*(r.theta for r in reps))

    def test_cauchy_dual_built_once(self):
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        dual = rep.cauchy_dual()
        assert dual is rep.cauchy_dual()
        fresh = weighted_graph_rep(G2, [1.25, 1.1]).cauchy_dual()
        np.testing.assert_array_equal(dual.T, fresh.T)

    def test_factor_matches_tower(self, corpus):
        for inst in corpus.values():
            reps = self.coordinates(inst)
            letters = range(len(reps))
            for rep in reps:
                for length in range(1, 4):
                    for head in itertools.product(letters, repeat=length - 1):
                        word = head + (rep.letter,)
                        fac = rep.factor(word)
                        np.testing.assert_array_equal(fac, rep.hilb.factor(word, rep.theta))
                        assert rep.factor(word) is fac
                assert rep.fac(0) is rep.tilde
                assert rep.fac(2) is rep.factor(rep.word(3))

    def test_factor_rejects_foreign_last_letter(self, corpus):
        pr = corpus["jordan-pair"]
        with pytest.raises(ShapeMismatch):
            pr.rep(0).factor((0, 1))
        with pytest.raises(ShapeMismatch):
            pr.rep(0).factor(())


class TestLeftInvertibleCheck:
    def test_measured_from_the_gram(self):
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        res = rep.check_left_invertible()
        assert res is rep.check_left_invertible()
        assert res.passed and rep.left_invertible()
        assert res.residual == 0.0
        assert res.min_eig == pytest.approx(np.linalg.eigvalsh(rep.gram_tilde)[0], abs=1e-12)

    def test_failure_reports_shortfall(self):
        S = np.array([[0.0, 1.0], [0.0, 0.0]])
        rep = scalar_covrep(np.kron(S, np.eye(2)))
        res = rep.check_left_invertible()
        w = np.linalg.eigvalsh(rep.gram_tilde)
        assert not res.passed and not rep.left_invertible()
        assert res.residual == pytest.approx(RANK_TOL * max(1.0, w[-1]) - w[0], abs=1e-15)
        assert res.residual > 0.0


class TestFrozenInstances:
    """An instance cannot be written after construction, so its caches stay true."""

    def test_writing_T_after_the_caches_are_filled_raises(self):
        from covrep.wold import wandering_subspace

        rep = corpus_instances()["g1-w-half"]
        assert wandering_subspace(rep).dim == 2
        isometric = rep.check_isometric().passed
        arrays = [rep.T, rep.theta, rep.sigma.images]
        if rep.left_invertible():
            arrays += [rep.cauchy_dual().T, rep.cauchy_dual().theta]
        for array in arrays:
            with pytest.raises(ValueError):
                array[...] = 0
        assert wandering_subspace(rep).dim == 2
        assert rep.check_isometric().passed == isometric

    def test_shared_tower_and_algebra_arrays_are_read_only(self):
        # a write here would change every later representation on the tower:
        # zeroing space(1).lift made the next construction raise
        # IllDefinedTilde, and zeroing algebra.one emptied internal tensors
        for name in ("g1-w-half", "g2-induced"):
            rep = corpus_instances()[name]
            mult = rep.sigma.multiplicity
            step = rep.chain.step(rep.word(2))
            arrays = [rep.space(1).push, rep.space(1).lift, step.push, step.lift, mult.basis, mult.moves]
            arrays += [g.columns for g in mult.groups] + [rep.E.algebra.one]
            for array in arrays:
                with pytest.raises(ValueError):
                    array[...] = 0
            CovariantRep(rep.sigma, rep.E, rep.T, chain=rep.chain, hilb=rep.hilb)
            assert internal_tensor(rep.E, rep.E)[0].dim == rep.chain.corr(rep.word(2)).dim == (name == "g2-induced")

    def test_a_tower_of_another_sigma_or_chain_is_refused(self):
        corpus = corpus_instances()
        rep, other = corpus["g1-induced"], corpus["g1-w-half"]
        with pytest.raises(AlgebraMismatch):
            CovariantRep(rep.sigma, rep.E, rep.T, hilb=other.hilb)
        with pytest.raises(AlgebraMismatch):
            CovariantRep(rep.sigma, rep.E, rep.T, hilb=HilbertTower(rep.chain, rep.sigma))
        with pytest.raises(AlgebraMismatch):
            CovariantRep(rep.sigma, rep.E, rep.T, chain=rep.chain, hilb=HilbertTower(rep.chain, other.sigma))
        shared = CovariantRep(rep.sigma, rep.E, rep.T, chain=rep.chain, hilb=rep.hilb)
        assert shared.hilb is rep.hilb

    def test_correspondence_arrays_are_read_only(self):
        rep = corpus_instances()["g2-induced"]
        E = rep.E
        one_sided, live = E.one_sided.copy(), E.live_rows
        for array in (E.left_action, E.right_action, E.gram):
            with pytest.raises(ValueError):
                array[...] = 0
        np.testing.assert_array_equal(E.one_sided, one_sided)
        assert E.live_rows is live
        CovariantRep(rep.sigma, E, rep.T)
        # the caller's arrays are copied, not frozen
        left = np.array(E.left_action)
        F = Correspondence(E.algebra, E.dim, E.right_action, left, E.gram)
        left[...] = 0
        np.testing.assert_array_equal(F.left_action, E.left_action)
        assert left.flags.writeable

    def test_writing_a_flip_after_the_checks_raises(self):
        from covrep.product import check_T24_condition_b, validate_product_system

        pr = corpus_instances()["two-color-path"]
        assert check_T24_condition_b(pr).passed and pr.check_doubly_commuting().passed
        for flip in pr.system.flips.values():
            with pytest.raises(ValueError):
                flip[...] = 0
        assert validate_product_system(pr.system).passed
        assert check_T24_condition_b(pr).passed and pr.check_doubly_commuting().passed

    def test_the_callers_arrays_are_copied(self):
        T = np.roll(np.eye(3, dtype=complex), 1, axis=0)
        images = np.eye(3, dtype=complex)[None]
        sigma = StarRepresentation(MatrixBlocksAlgebra((1,)), 3, images)
        rep = CovariantRep(sigma, scalar_covrep(T).E, T[None])
        T[...] = 0
        images[...] = 0
        assert rep.check_isometric().passed
        np.testing.assert_array_equal(rep.T[0], np.roll(np.eye(3), 1, axis=0))
        np.testing.assert_array_equal(sigma.images[0], np.eye(3))
        assert T.flags.writeable and images.flags.writeable


class TestCachingAndThreads:
    """Derived operators are cached write-once and instances are shareable."""

    @staticmethod
    def tasks(rep):
        from covrep.wold import wold_decompose

        return {
            "isometric": rep.check_isometric,
            "fully_coisometric": rep.check_fully_coisometric,
            "concave": rep.check_concave,
            "expansive": rep.check_expansive,
            "growth_2": lambda: rep.check_growth_bound(2),
            "shimorin": rep.check_shimorin,
            "eq12": rep.check_eq12,
            "eq13": rep.check_eq13,
            "analytic": rep.check_analytic,
            "left_invertible": rep.left_invertible,
            "wold": lambda: wold_decompose(rep).to_json(),
            "chain": lambda: telescoping_residual(rep, 2),
        }

    def test_derived_operators_computed_once(self):
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        for name in ("gram_tilde", "L", "P", "Q"):
            assert getattr(rep, name) is getattr(rep, name)
        # T and theta hold the same numbers in one array
        assert np.shares_memory(rep.T, rep.theta)
        np.testing.assert_array_equal(rep.theta, rep.T.transpose(1, 0, 2).reshape(rep.hdim, -1))
        np.testing.assert_allclose(rep.P + rep.Q, np.eye(rep.hdim), atol=1e-15)

    def test_not_left_invertible_is_not_cached_as_L(self):
        S = np.array([[0.0, 1.0], [0.0, 0.0]])
        rep = scalar_covrep(np.kron(S, np.eye(2)))
        for _ in range(2):
            assert not rep.left_invertible()
            with pytest.raises(NotLeftInvertible):
                rep.L
            with pytest.raises(NotLeftInvertible):
                rep.build_U()
        assert {key[0] for key in rep._cache}.isdisjoint(
            f.__qualname__ for f in (CovariantRep.lfac, CovariantRep.build_U)
        )

    #: The checks and the operator that ``_cache`` keeps under (method name, *args).
    CACHED_READS = {
        "isometric": lambda rep: rep.check_isometric(),
        "fully_coisometric": lambda rep: rep.check_fully_coisometric(),
        "expansive": lambda rep: rep.check_expansive(),
        "growth_2": lambda rep: rep.check_growth_bound(2),
        "growth_3": lambda rep: rep.check_growth_bound(3),
        "concave": lambda rep: rep.check_concave(),
        "shimorin": lambda rep: rep.check_shimorin(),
        "eq13": lambda rep: rep.check_eq13(),
        "eq12": lambda rep: rep.check_eq12(),
        "analytic": lambda rep: rep.check_analytic(),
        "build_U": lambda rep: rep.build_U(),
    }

    def test_checks_computed_once(self):
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        first = {name: read(rep) for name, read in self.CACHED_READS.items()}
        for name, read in self.CACHED_READS.items():
            assert read(rep) is first[name], name
        # concavity is one object, named for itself, beside the growth bound at n = 2
        assert first["concave"] is not first["growth_2"]
        assert (first["concave"].name, first["growth_2"].name) == ("concave", "growth_bound_2")
        u = first["build_U"]
        for array in (u.matrix, u.kernel):
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_cache_never_hides_a_failure(self):
        # left invertible and not concave: U is undefined on every call
        rep = scalar_covrep(np.diag([2.0, 0.5]))
        assert rep.left_invertible()
        for _ in range(2):
            with pytest.raises(NotConcave):
                rep.build_U()
            assert CovariantRep.build_U.__qualname__ not in {key[0] for key in rep._cache}
            assert not rep.check_concave().passed
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        for _ in range(2):
            iso = rep.check_isometric()
            assert not iso.passed and iso.residual == 0.5625

    def test_dual_has_its_own_checks(self):
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        dual = rep.cauchy_dual()
        assert dual.chain is rep.chain and dual.hilb is rep.hilb
        assert dual._cache is not rep._cache
        for _ in range(2):
            assert rep.check_concave().passed and not dual.check_concave().passed
            assert rep.check_isometric().residual == 0.5625
            assert dual.check_isometric().residual == pytest.approx(0.36, abs=1e-12)

    @staticmethod
    def verifier_tasks(rep, pr):
        """Verifiers that read the cached dual, L^n chain and product factors."""
        from covrep.product import verify_P21, verify_T22, verify_T24_equivalence
        from covrep.wold import verify_cauchy_dual_props, verify_ker_Ln

        return {
            "cauchy_dual": lambda: verify_cauchy_dual_props(rep).to_json(),
            "ker_L3": lambda: verify_ker_Ln(rep, 3).to_json(),
            "T22": lambda: verify_T22(pr).to_json(),
            "T24": lambda: verify_T24_equivalence(pr).to_json(),
            **{
                f"P21_{alpha}": (lambda alpha=alpha: verify_P21(pr, alpha).to_json())
                for alpha in ((0,), (1,), (0, 1))
            },
        }

    @staticmethod
    def grid3():
        """The 3 x 3 commuting-square grid: color 1 steps right, color 2 down."""
        from covrep.examples import induced_product_representation, two_colored_system

        right = [(3 * i + j, 3 * i + j + 1) for i in range(3) for j in range(2)]
        down = [(3 * i + j, 3 * i + j + 3) for i in range(2) for j in range(3)]
        return induced_product_representation(two_colored_system(9, right, down))

    @staticmethod
    def run_in_pool(tasks):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = {name: pool.submit(task) for name, task in tasks.items()}
                return {name: fut.result(timeout=60) for name, fut in futures.items()}
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("weights", [[1.25, 1.1], [1.0, 1.0]])
    def test_shared_instance_from_thread_pool(self, weights):
        serial = {name: task() for name, task in self.tasks(weighted_graph_rep(G2, weights)).items()}
        threaded = self.run_in_pool(self.tasks(weighted_graph_rep(G2, weights)))
        assert threaded == serial

    @staticmethod
    def lattice_tasks(rep, pr):
        """First touches of the lattice caches of ``rep``, of the coordinates of
        ``pr`` and of ``pr`` itself; a multiple of four tasks, so that every
        generation of the barrier releases four of them together."""
        from covrep.product import verify_P21_all, verify_T22, verify_T24_equivalence, wandering_alpha
        from covrep.wold import (
            check_dual_reducing_implication,
            h_infinity,
            verify_cauchy_dual_props,
            verify_ker_Ln,
            wandering_subspace,
            wold_decompose,
        )

        reps = (rep, *pr.reps)

        def bases(spaces):
            return [(s.basis.shape, s.basis.tobytes()) for s in spaces]

        return {
            "W": lambda: bases(wandering_subspace(r) for r in reps),
            "H_inf": lambda: bases(h_infinity(r) for r in reps),
            "W_alpha": lambda: bases(wandering_alpha(pr, a) for a in ((0, 1), (0,), (1,))),
            "wold": lambda: [
                (bases((d.W, d.H_u, d.H_inf)), d.to_json()) for d in map(wold_decompose, reps)
            ],
            # the translates, closures and reducing checks of every W_alpha
            "T22": lambda: verify_T22(pr).to_json(),
            "T24": lambda: verify_T24_equivalence(pr).to_json(),
            "P21": lambda: verify_P21_all(pr).to_json(),
            # the dual span of W, the sigma-invariance of W and the dual's reducing H_inf
            "dual": lambda: [
                verify_cauchy_dual_props(rep).to_json(),
                verify_ker_Ln(rep, 3).to_json(),
                check_dual_reducing_implication(rep).to_json(),
            ],
        }

    def test_first_touch_of_lattice_from_threads(self):
        import threading

        def fresh():
            return self.lattice_tasks(weighted_graph_rep(G2, [1.25, 1.1]), self.grid3())

        serial = {name: task() for name, task in fresh().items()}
        # four tasks at a time start together, on caches no thread has filled yet
        start = threading.Barrier(4, timeout=60)

        def at_barrier(task):
            def run():
                start.wait()
                return task()

            return run

        threaded = self.run_in_pool({name: at_barrier(task) for name, task in fresh().items()})
        assert threaded == serial

    def test_racing_threads_get_one_object(self):
        import threading

        from covrep.wold import wandering_subspace

        reads = [
            ("cauchy_dual", lambda rep: rep.cauchy_dual()),
            ("L", lambda rep: rep.L),
            ("P", lambda rep: rep.P),
            ("Q", lambda rep: rep.Q),
            ("tilde", lambda rep: rep.tilde),
            ("tilde_n_3", lambda rep: rep.tilde_n(3)),
            ("L_n_2", lambda rep: rep.L_n(2)),
            ("left_invertible", lambda rep: rep.check_left_invertible()),
            ("W", wandering_subspace),
            *self.CACHED_READS.items(),
        ]

        def reader(rep, start, offset):
            # each thread starts at its own constant, so that each is raced for
            def run():
                start.wait()
                order = reads[offset:] + reads[:offset]
                return {name: read(rep) for name, read in order}

            return run

        for trial in range(20):
            rep = weighted_graph_rep(G2, [1.25, 1.1])
            start = threading.Barrier(4, timeout=60)
            step = len(reads) // 4
            seen = self.run_in_pool({i: reader(rep, start, step * i) for i in range(4)})
            for name, _ in reads:
                first = seen[0][name]
                assert all(got[name] is first for got in seen.values()), (trial, name)

    def test_racing_threads_get_one_certificate(self):
        import threading

        from covrep.examples import jordan_pair, two_color_path_rep
        from covrep.product import _gws_items, check_T24_condition_b, verify_T22
        from covrep.wold import verify_cauchy_dual_props, verify_muhly_solel, verify_richter

        def reads(rep, pr, jp):
            """The certificates kept per representation and per tuple, as the
            verifiers return them; the Jordan pair takes T22's direct hypothesis."""
            return [
                ("muhly_solel", lambda: verify_muhly_solel(rep).conclusions[-1]),
                ("richter", lambda: verify_richter(rep, Subspace.full(rep.hdim)).conclusions),
                ("cauchy_dual", lambda: verify_cauchy_dual_props(rep).conclusions),
                *((f"gws_{alpha}", lambda alpha=alpha: _gws_items(pr, alpha))
                  for alpha in ((0,), (1,), (0, 1))),
                ("doubly_commuting", pr.check_doubly_commuting),
                ("condition_b", lambda: check_T24_condition_b(pr)),
                ("direct", lambda: verify_T22(jp).hypotheses[1]),
            ]

        def reader(order, start):
            def run():
                start.wait()
                return {name: read() for name, read in order}

            return run

        for trial in range(10):
            rep, pr, jp = graph_induced(G2), two_color_path_rep(), jordan_pair()
            order = reads(rep, pr, jp)
            start = threading.Barrier(4, timeout=60)
            # each thread starts at its own certificate, so that each is raced for
            seen = self.run_in_pool({i: reader(order[i:] + order[:i], start) for i in range(4)})
            for name, _ in order:
                first = seen[0][name]
                assert all(got[name] is first for got in seen.values()), (trial, name)

    def test_shared_verifiers_from_thread_pool(self):
        def fresh():
            return self.verifier_tasks(weighted_graph_rep(G2, [1.25, 1.1]), self.grid3())

        serial = {name: task() for name, task in fresh().items()}
        threaded = self.run_in_pool(fresh())
        assert threaded == serial
