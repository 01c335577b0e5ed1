from functools import partial
from itertools import combinations, product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covrep._linalg import _CACHED, ANGLE_TOL
from covrep.errors import CommutationViolation, ShapeMismatch
from covrep.examples import (
    induced_product_representation,
    jordan_pair,
    random_instance,
    scalar_tuple,
    two_color_path_rep,
    two_colored_system,
)
from covrep.product import (
    ProductRep,
    ProductSystem,
    _direct_hypothesis,
    alpha_translates,
    check_T24_condition_b,
    doubly_flag,
    invariant_closure_alpha,
    multi_word,
    script_L_alpha,
    validate_alpha,
    validate_product_system,
    verify_P21,
    verify_P21_all,
    verify_T22,
    verify_T24_equivalence,
    wandering_alpha,
)
from covrep.serialize import dump_json
from covrep.wold import Subspace, wandering_subspace

import oracles
from oracles import doubly_commuting_oracle
from test_cache import _bits

S2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
S3 = np.zeros((3, 3), dtype=complex)
S3[0, 1] = S3[1, 2] = 1.0


def unitary_pair():
    return scalar_tuple([np.diag([1.0, 1j]), np.diag([1j, -1.0])])


def jordan_with_unitary():
    # doubly commuting by construction; coordinate 2 is unitary, not analytic
    U = np.diag([1.0, 1j])
    return scalar_tuple([np.kron(S2, np.eye(2)), np.kron(np.eye(2), U)])


class TestMultiIndex:
    def test_validate_alpha(self):
        assert validate_alpha((1, 0), 2) == (0, 1)
        with pytest.raises(ShapeMismatch):
            validate_alpha((), 2)
        with pytest.raises(ShapeMismatch):
            validate_alpha((2,), 2)

    def test_multi_word_order(self):
        assert multi_word((0, 1), (2, 1)) == (0, 0, 1)
        with pytest.raises(ShapeMismatch):
            multi_word((0, 1), (1,))
        with pytest.raises(ShapeMismatch):
            multi_word((0,), (-1,))


class TestProductSystemValidation:
    def test_trivial_scalar_system_passes(self):
        pr = scalar_tuple([np.eye(2), np.eye(2)])
        assert validate_product_system(pr.system).passed

    def test_scaled_flip_fails_unitarity(self):
        pr = scalar_tuple([np.eye(2), np.eye(2)])
        chain = pr.system.chain
        bad = ProductSystem(
            pr.system.correspondences,
            {(1, 0): 2.0 * pr.system.flip(1, 0)},
            chain=chain,
        )
        report = validate_product_system(bad)
        assert not report.passed
        assert any("unitary" in i.name and not i.passed for i in report.items)

    def test_two_colored_system_passes(self):
        system = two_colored_system(4, [(0, 1), (2, 3)], [(0, 2), (1, 3)])
        assert validate_product_system(system).passed

    def test_two_colored_rejects_mismatched_paths(self):
        # 1 -> 2 colored then 2 -> 3: one 21-path, no 12-paths
        with pytest.raises(ValueError):
            two_colored_system(3, [(0, 1)], [(1, 2)])

    def test_missing_flip_rejected(self):
        pr = scalar_tuple([np.eye(2), np.eye(2)])
        with pytest.raises(ShapeMismatch):
            ProductSystem(pr.system.correspondences, {}, chain=pr.system.chain)


class TestProductRep:
    def test_commuting_pair_valid(self):
        pr = scalar_tuple([S3, S3 @ S3])
        assert pr.validate_commutation().passed

    def test_non_commuting_rejected(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(CommutationViolation):
            scalar_tuple([A, B])

    # T~ at a full multi-index, through the word composite of ``oracles``
    # that TestTranslatesAgainstTheWordSweep compares the library against

    def test_tilde_multi_zero_is_identity(self):
        pr = jordan_pair()
        np.testing.assert_allclose(oracles.tilde_word(pr, multi_word((0, 1), (0, 0))), np.eye(4))

    def test_tilde_multi_scalar_collapse(self, rng):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = A @ A + 0.5 * np.eye(3)  # commutes with A
        pr = scalar_tuple([A, B])
        t = oracles.tilde_word(pr, multi_word((0, 1), (2, 1)))
        np.testing.assert_allclose(
            np.linalg.svd(t, compute_uv=False),
            np.linalg.svd(A @ A @ B, compute_uv=False),
            atol=1e-8,
        )

    def test_two_color_composite_partial_isometry(self):
        pr = two_color_path_rep()
        t = oracles.tilde_word(pr, multi_word((0, 1), (1, 1)))
        # one two-colored length-2 path: rank-one partial isometry
        assert np.linalg.matrix_rank(t, tol=1e-9) == 1
        np.testing.assert_allclose(np.linalg.svd(t, compute_uv=False)[0], 1.0, atol=1e-10)


class TestDoublyCommuting:
    def test_jordan_pair_true(self):
        pr = jordan_pair()
        assert pr.is_doubly_commuting()
        report = pr.check_doubly_commuting()
        assert report.passed  # includes the derived defect-commutation identity

    def test_same_jordan_block_false(self):
        pr = scalar_tuple([S2, S2])
        assert not pr.is_doubly_commuting()

    def test_s_s2_fails_with_large_residual(self):
        pr = scalar_tuple([S3, S3 @ S3])
        report = pr.check_doubly_commuting()
        worst = max(i.residual for i in report.items if i.name.startswith("doubly"))
        assert worst > 1e-3

    def test_k1_vacuous(self):
        pr = scalar_tuple([S2])
        assert pr.is_doubly_commuting()
        assert pr.check_doubly_commuting().passed

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_classical_oracle_on_commuting_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        kind = rng.integers(0, 3)
        if kind == 0:
            B = A @ A
        elif kind == 1:
            B = A + 2.0 * np.eye(n)
        else:
            A = np.kron(A, np.eye(2))
            B = np.kron(np.eye(n), rng.standard_normal((2, 2)))
        pr = scalar_tuple([A, B])
        assert pr.is_doubly_commuting() == doubly_commuting_oracle(A, B)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_doubly_implies_defect_commutation(self, seed):
        pr = random_instance(seed, "doubly-commuting")
        report = pr.check_doubly_commuting()
        assert pr.is_doubly_commuting()
        assert report.passed
        # doubly commuting tuples are consistent with the commutation relation
        assert pr.validate_commutation().passed


@pytest.fixture
def doubly_calls(monkeypatch):
    """Counts ProductRep.check_doubly_commuting calls from here on."""
    count = [0]
    original = ProductRep.check_doubly_commuting

    def counted(self):
        count[0] += 1
        return original(self)

    monkeypatch.setattr(ProductRep, "check_doubly_commuting", counted)
    return count


class TestDoublyHypothesisOnce:
    """The verifiers evaluate the doubly-commuting hypothesis once per call."""

    INSTANCES = [jordan_pair, lambda: scalar_tuple([S3, S3 @ S3]), two_color_path_rep]

    @pytest.mark.parametrize("make", INSTANCES)
    def test_verify_P21_one_call(self, make, doubly_calls):
        pr = make()
        doubly_calls[0] = 0
        report = verify_P21(pr, (0,))
        assert doubly_calls[0] == 1
        assert report.hypotheses[0].passed == doubly_flag(pr.check_doubly_commuting())

    @pytest.mark.parametrize("make", INSTANCES)
    def test_verify_T22_one_call(self, make, doubly_calls):
        pr = make()
        doubly_calls[0] = 0
        report = verify_T22(pr)
        assert doubly_calls[0] == 1
        assert report.hypotheses[0].passed == pr.is_doubly_commuting()

    @pytest.mark.parametrize("make", INSTANCES)
    def test_verify_P21_all_one_call(self, make, doubly_calls):
        pr = make()
        doubly_calls[0] = 0
        report = verify_P21_all(pr)
        assert doubly_calls[0] == 1
        for alpha in ((0,), (1,), (0, 1)):
            single = verify_P21(pr, alpha)
            assert report.hypotheses == single.hypotheses
            tag = "{" + ",".join(str(i + 1) for i in alpha) + "}"
            assert report.dims[f"W_{tag}"] == single.dims["W_alpha"]
            tagged = [i for i in report.conclusions if i.name.startswith(tag + ":")]
            assert [(i.name, i.passed) for i in tagged] == [
                (f"{tag}:{i.name}", i.passed) for i in single.conclusions
            ]

    def test_flag_reads_the_pair_items(self):
        assert doubly_flag(jordan_pair().check_doubly_commuting())
        assert not doubly_flag(scalar_tuple([S3, S3 @ S3]).check_doubly_commuting())


#: The verifiers that read the alpha-indexed lattice constants.
ALPHA_VERIFIERS = (
    verify_T22,
    verify_T24_equivalence,
    lambda pr: verify_P21(pr, (0,)),
    lambda pr: verify_P21(pr, (1,)),
    lambda pr: verify_P21(pr, (1, 0)),
    verify_P21_all,
)


def _certify(pr):
    """One warm-path pass over ``ALPHA_VERIFIERS``, as report bytes."""
    return [dump_json(verify(pr).to_json()) for verify in ALPHA_VERIFIERS]


def _fresh(pr):
    return ProductRep(pr.system, pr.sigma, [r.T for r in pr.reps], tol=pr.tol)


class TestAlphaLatticeCache:
    """W_alpha, its reducing checks and its GWS items, the doubly-commuting
    and condition-(b) reports and T22's direct hypothesis are computed once
    per product representation; ``tests/test_cache.py`` checks the rule on
    every verifier."""

    @staticmethod
    def instances():
        return [two_color_path_rep(), jordan_pair()]

    def test_computed_once_and_read_only(self):
        for pr in self.instances():
            alphas = [(0,), (1,), (0, 1)]
            first = {alpha: wandering_alpha(pr, alpha) for alpha in alphas}
            for alpha in alphas:
                assert wandering_alpha(pr, alpha) is first[alpha]
                assert wandering_alpha(pr, reversed(alpha)) is first[alpha]
                with pytest.raises(ValueError):
                    first[alpha].basis[...] = 0.0
            # a single coordinate's W_alpha is that coordinate's own W
            for i in range(2):
                assert first[(i,)] is wandering_subspace(pr.rep(i))
            _certify(pr)
            cached = dict(pr._cache)
            _certify(pr)
            assert pr._cache.keys() == cached.keys()
            assert all(pr._cache[key] is value for key, value in cached.items())
            for value in pr._cache.values():
                if isinstance(value, Subspace):
                    with pytest.raises(ValueError):
                        value.basis[...] = 0.0
        # the Jordan pair takes T22's direct hypothesis, the path pair does not
        assert verify_T22(pr).evaluated[0].name == "hypothesis_strategy_direct"

    def test_sweeps_run_once(self, count_calls):
        import covrep.product as product

        calls = count_calls(product, "alpha_translates", "invariant_closure", "check_reducing")
        for pr in self.instances():
            calls.clear()
            _certify(pr)
            once = dict(calls)
            _certify(pr)
            _certify(pr)
            assert calls == once
            # [W_alpha]_{T_alpha} once per alpha, one closure per coordinate
            # of alpha; its first step is also the stepwise closure of W_{1,2}
            # that drops coordinate 2, so only the one that drops coordinate 1
            # is added
            assert once == {"invariant_closure": 5, "check_reducing": 2}

    def test_bit_equal_to_a_fresh_instance(self):
        for pr in self.instances():
            _certify(pr)
            fresh = _fresh(pr)
            for alpha in [(0, 1), (1,), (0,)]:
                assert wandering_alpha(pr, alpha).basis.tobytes() == wandering_alpha(fresh, alpha).basis.tobytes()
            W0, W1 = (wandering_subspace(fresh.rep(i)) for i in range(2))
            assert wandering_alpha(pr, (0, 1)).basis.tobytes() == W0.intersect(W1).basis.tobytes()
            # every cached value, from its function run uncached on a fresh instance
            build = {f.__qualname__: f for f in _CACHED}
            for (name, *args), value in pr._cache.items():
                assert _bits(value) == _bits(build[name](_fresh(pr), *args)), name

    def test_warm_reports_equal_cold_reports(self):
        for pr in self.instances():
            warm = [_certify(pr) for _ in range(3)]
            # each verifier's first call, on an instance of its own
            cold = [dump_json(verify(_fresh(pr)).to_json()) for verify in ALPHA_VERIFIERS]
            assert warm == [cold] * 3

    def test_coordinates_keep_their_own_caches(self):
        pr = two_color_path_rep()
        W01 = wandering_alpha(pr, (0, 1))
        assert pr.rep(0)._cache is not pr.rep(1)._cache
        assert wandering_subspace(pr.rep(0)) is not wandering_subspace(pr.rep(1))
        assert any(value is W01 for value in pr._cache.values())
        assert not any(value is W01 for r in pr.reps for value in r._cache.values())


class TestAlphaSubspaces:
    def test_singleton_is_coordinate_wandering(self):
        pr = jordan_pair()
        for i in range(2):
            assert wandering_alpha(pr, (i,)).equals(wandering_subspace(pr.rep(i)))

    def test_jordan_joint_wandering(self):
        pr = jordan_pair()
        W = wandering_alpha(pr, (0, 1))
        assert W.dim == 1

    def test_intersection_identity(self):
        pr = two_color_path_rep()
        W01 = wandering_alpha(pr, (0, 1))
        assert W01.equals(
            wandering_subspace(pr.rep(0)).intersect(wandering_subspace(pr.rep(1)))
        )

    def test_unitary_pair_no_wandering(self):
        assert wandering_alpha(unitary_pair(), (0, 1)).dim == 0

    def test_script_L_alpha(self):
        pr = jordan_pair()
        W = wandering_alpha(pr, (0, 1))
        assert script_L_alpha(pr, (0, 1), (0, 0), W) is W
        assert script_L_alpha(pr, (0, 1), (1, 1), W).dim == 1

    def test_script_L_alpha_rejects_non_sigma_invariant(self):
        from covrep.errors import NotSigmaInvariant

        pr = two_color_path_rep()
        from oracles import orth

        p0 = orth(pr.sigma.apply_coords(oracles.unit_coords(pr.sigma.algebra, 0)))
        p1 = orth(pr.sigma.apply_coords(oracles.unit_coords(pr.sigma.algebra, 1)))
        bad = Subspace(pr.hdim, (p0[:, :1] + p1[:, :1]) / np.sqrt(2))
        with pytest.raises(NotSigmaInvariant):
            script_L_alpha(pr, (0,), (1,), bad)
        with pytest.raises(NotSigmaInvariant):
            alpha_translates(pr, (0, 1), bad)
        # an all-zero multi-index returns K unchecked
        assert script_L_alpha(pr, (0, 1), (0, 0), bad) is bad

    def test_script_L_alpha_checks_sigma_once(self, count_calls):
        import covrep.product as product
        import covrep.wold as wold

        pr = jordan_pair()
        W = wandering_alpha(pr, (0, 1))
        calls = count_calls(product, "_sigma_check")
        count_calls(wold, "_sigma_check")
        script_L_alpha(pr, (0, 1), (2, 1), W)
        assert calls == {"_sigma_check": 1}

    def test_closure_generates(self):
        pr = jordan_pair()
        W = wandering_alpha(pr, (0, 1))
        closure = invariant_closure_alpha(pr, (0, 1), W)
        assert closure.dim == 4
        assert invariant_closure_alpha(pr, (0, 1), Subspace.zero(4)).dim == 0

    def test_closure_order_independent(self):
        pr = two_color_path_rep()
        W = wandering_alpha(pr, (0, 1))
        fwd = invariant_closure_alpha(pr, (0, 1), W)
        from covrep.wold import invariant_closure

        rev = invariant_closure(pr.rep(1), invariant_closure(pr.rep(0), W))
        assert fwd.equals(rev)

    def test_stepwise_recursion_two_steps(self):
        pr = jordan_pair()
        from covrep.wold import invariant_closure

        W12 = wandering_alpha(pr, (0, 1))
        step1 = invariant_closure(pr.rep(0), W12)
        step2 = invariant_closure(pr.rep(1), step1)
        assert step2.equals(Subspace.full(4))


def grid_product(m):
    """The commuting-square m x m grid with seed-permuted vertex labels, as the
    benchmark's grid workload draws it: color 1 steps right, color 2 steps down."""
    perm = np.random.default_rng(m).permutation(m * m)
    at = lambda i, j: int(perm[i * m + j])  # noqa: E731
    right = [(at(i, j), at(i, j + 1)) for i in range(m) for j in range(m - 1)]
    down = [(at(i, j), at(i + 1, j)) for i in range(m - 1) for j in range(m)]
    return induced_product_representation(two_colored_system(m * m, right, down))


U3 = np.roll(np.eye(3, dtype=complex), 1, axis=0)

#: Product instances whose rank-k translates are compared against the word sweep:
#: doubly commuting, commuting only (S3, S3^2), unitary (U3, U3^2), and grids.
TRANSLATE_INSTANCES = {
    "two-color-path": two_color_path_rep,
    "jordan-pair": jordan_pair,
    "grid-3": partial(grid_product, 3),
    "grid-4": partial(grid_product, 4),
    "S3-S3^2": lambda: scalar_tuple([S3, S3 @ S3]),
    "U3-U3^2": lambda: scalar_tuple([U3, U3 @ U3]),
    **{f"doubly-commuting-{s}": partial(random_instance, s, "doubly-commuting") for s in range(12)},
}


class TestTranslatesAgainstTheWordSweep:
    """``script_L_alpha`` (iterated coordinate translates) and
    ``alpha_translates`` (the coordinates' first translates of [K]_{T_alpha})
    against the word-based definitions they replaced (``oracles``), for every
    alpha, K in {W_alpha, H} and m in {0, 1, 2}^|alpha|."""

    @pytest.mark.parametrize("name", list(TRANSLATE_INSTANCES))
    def test_same_subspaces(self, name):
        pr = TRANSLATE_INSTANCES[name]()
        for size in range(1, pr.k + 1):
            for alpha in combinations(range(pr.k), size):
                for K in (wandering_alpha(pr, alpha), Subspace.full(pr.hdim)):
                    pairs = [(alpha_translates(pr, alpha, K), oracles.alpha_translates_sweep(pr, alpha, K))]
                    for m in iter_product(range(3), repeat=size):
                        pairs.append(
                            (script_L_alpha(pr, alpha, m, K), oracles.script_L_alpha_word(pr, alpha, m, K))
                        )
                    for got, want in pairs:
                        assert got.dim == want.dim, (alpha, K.dim)
                        assert got.angle_gap(want) <= ANGLE_TOL, (alpha, K.dim)


F2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

DIRECT_INSTANCES = {
    "jordan-pair": jordan_pair,
    "two-color-path": two_color_path_rep,
    # (S3, S3^2): W_{2} is not invariant for coordinate 1, nor W_{1} for 2
    "S3-S3^2": lambda: scalar_tuple([S3, S3 @ S3]),
    # (U3, U3^2): unitary coordinates, W = 0, so neither generates H
    "U3-U3^2": lambda: scalar_tuple([U3, U3 @ U3]),
    # (S3 (x) I, I (x) F): the flip coordinate is unitary on every K
    "S3xI-IxF": lambda: scalar_tuple([np.kron(S3, np.eye(2)), np.kron(np.eye(3), F2)]),
    **{f"doubly-commuting-{s}": partial(random_instance, s, "doubly-commuting") for s in range(60)},
}


class TestDirectHypothesisAgainstRestriction:
    """T22's direct hypothesis, which measures Richter's W_K inside H,
    against the reference that restricts each coordinate to K (``oracles``):
    the same item names, flags, vacuous marks and details."""

    @staticmethod
    def flags(items):
        return [(i.name, i.passed, i.vacuous, i.detail) for i in items]

    @pytest.mark.parametrize("name", list(DIRECT_INSTANCES))
    def test_same_items(self, name):
        pr = DIRECT_INSTANCES[name]()
        got = self.flags(_direct_hypothesis(pr))
        assert got == self.flags(oracles.direct_hypothesis_restricted(pr))

    def test_branches_reached(self):
        def failed(name):
            return {i.name: i.detail for i in _direct_hypothesis(DIRECT_INSTANCES[name]()) if not i.passed}

        assert failed("S3-S3^2") == {
            "gws_1_on_W_{2}": "subspace not invariant",
            "gws_2_on_W_{1}": "subspace not invariant",
        }
        assert failed("U3-U3^2") == {"gws_1_on_H": "", "gws_2_on_H": ""}
        assert set(failed("S3xI-IxF")) == {"gws_2_on_H", "gws_2_on_W_{1}"}
        assert failed("jordan-pair") == failed("two-color-path") == {}


@pytest.fixture(scope="module")
def grid():
    def v(i, j):
        return 2 * i + j

    ex = [(v(i, j), v(i + 1, j)) for i in range(2) for j in range(2)]
    ey = [(v(i, 0), v(i, 1)) for i in range(3)]
    system = two_colored_system(6, ex, ey)
    return system, induced_product_representation(system), ex, ey


class TestGridSystem:
    """2x3 grid with x-steps and y-steps: depth (2, 1), so creation by the
    second color bubbles through two interior flips."""

    def test_system_and_relation(self, grid):
        system, pr, _, _ = grid
        assert validate_product_system(system).passed
        assert pr.validate_commutation().passed
        assert pr.meta["exact"] is True
        assert pr.is_doubly_commuting()

    def test_level_dims_match_adjacency_oracle(self, grid):
        system, pr, ex, ey = grid
        ax = np.zeros((6, 6), dtype=int)
        ay = np.zeros((6, 6), dtype=int)
        for s, t in ex:
            ax[s, t] += 1
        for s, t in ey:
            ay[s, t] += 1
        # dim E(n1, n2) = #(y-path then x-path) composable pairs
        total = 6  # the (0,0) level carries M (x) H = C^6
        for n1, n2 in [(1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]:
            expect = int(
                np.sum(
                    np.linalg.matrix_power(ay, n2) @ np.linalg.matrix_power(ax, n1)
                )
            )
            word = (0,) * n1 + (1,) * n2
            assert system.chain.corr(word).dim == expect, (n1, n2)
            total += expect
        assert pr.hdim == total == 18

    def test_theorems(self, grid):
        _, pr, _, _ = grid
        assert verify_T22(pr).passed
        t24 = verify_T24_equivalence(pr)
        assert t24.passed and all(i.passed for i in t24.evaluated)


class TestP21:
    def test_jordan_alpha1(self):
        report = verify_P21(jordan_pair(), (0,))
        assert report.passed and report.hypotheses_met

    def test_full_alpha_vacuous(self):
        report = verify_P21(jordan_pair(), (0, 1))
        assert report.passed
        assert report.conclusions[0].vacuous

    def test_non_doubly_pair_flagged(self):
        report = verify_P21(scalar_tuple([S3, S3 @ S3]), (0,))
        assert not report.hypotheses_met
        # conclusion evaluated anyway; for this pair it happens to fail
        assert not report.conclusions[0].passed


class TestT22:
    def test_jordan_gws_all_alpha(self):
        report = verify_T22(jordan_pair())
        assert report.passed
        assert report.hypotheses_met  # via the direct strategy fallback
        assert any("direct" in i.name for i in report.evaluated)

    def test_two_color_gws(self):
        report = verify_T22(two_color_path_rep())
        assert report.passed and report.hypotheses_met

    def test_unitary_pair_fails_hypotheses_and_conclusions(self):
        report = verify_T22(unitary_pair())
        assert not report.hypotheses_met  # unitaries are not analytic
        generating = [i for i in report.conclusions if i.name.startswith("generating")]
        assert generating and all(not i.passed for i in generating)

    def test_strategy_c23_on_two_color(self):
        report = verify_T22(two_color_path_rep())
        assert report.hypotheses_met and report.passed
        assert "hypothesis_strategy_c23" in [i.name for i in report.evaluated]


class TestT24:
    def test_condition_b_doubly_commuting(self):
        assert check_T24_condition_b(jordan_pair()).passed
        assert check_T24_condition_b(two_color_path_rep()).passed

    def test_condition_b_isometric_tuple(self):
        report = check_T24_condition_b(two_color_path_rep())
        assert report.max_violation < 1e-10

    def test_condition_b_non_commuting_pair_fails(self):
        # (S3, S3^2) commutes but is not doubly commuting
        report = check_T24_condition_b(scalar_tuple([S3, S3 @ S3]))
        assert not report.passed
        assert report.max_violation == pytest.approx(1.0, abs=1e-12)

    def test_jordan_all_four_true(self):
        report = verify_T24_equivalence(jordan_pair())
        assert report.passed
        assert all(i.passed for i in report.evaluated)

    def test_unitary_pair_equivalence_preserved(self):
        report = verify_T24_equivalence(unitary_pair())
        booleans = {i.name: i.passed for i in report.evaluated}
        assert not booleans["(2)_coordinates_analytic"]
        assert not booleans["(a)_gws_all_alpha"]
        assert report.passed  # both sides false

    def test_one_unitary_coordinate(self):
        report = verify_T24_equivalence(jordan_with_unitary())
        booleans = {i.name: i.passed for i in report.evaluated}
        assert booleans["(1)_doubly_commuting"]
        assert not booleans["(2)_coordinates_analytic"]
        assert not booleans["(a)_gws_all_alpha"]
        assert report.passed

    def test_s_s2_independent_b_and_equivalence(self):
        report = verify_T24_equivalence(scalar_tuple([S3, S3 @ S3]))
        booleans = {i.name: i.passed for i in report.evaluated}
        assert not booleans["(1)_doubly_commuting"]
        assert not booleans["(b)_flip_intertwining"]
        assert report.passed


def cube3(a, b, c):
    return np.kron(np.kron(a, b), c)


class TestRankThree:
    """Scalar tuples of rank 3, so every alpha-loop runs with |alpha| = 3."""

    @staticmethod
    def shifts():
        # one 2 x 2 shift per tensor factor: doubly commuting, coordinatewise analytic
        I2 = np.eye(2)
        return scalar_tuple([cube3(S2, I2, I2), cube3(I2, S2, I2), cube3(I2, I2, S2)])

    def test_shifts_pass_every_alpha(self):
        pr = self.shifts()
        assert pr.is_doubly_commuting()
        t22 = verify_T22(pr)
        assert t22.passed and t22.hypotheses_met
        assert verify_T24_equivalence(pr).passed
        assert check_T24_condition_b(pr).passed
        alphas = [a for size in range(1, 4) for a in combinations(range(3), size)]
        for alpha in alphas:
            assert verify_P21(pr, alpha).passed, alpha
        # W_alpha is the span of e_0 in each tensor factor of alpha
        assert t22.dims == {f"W_{{{','.join(str(i + 1) for i in a)}}}": 2 ** (3 - len(a)) for a in alphas}

    def test_commuting_not_doubly_fails_condition_b(self):
        # a coordinate repeated commutes with itself, but S* S != S S*
        I2 = np.eye(2)
        pr = scalar_tuple([cube3(S2, I2, I2), cube3(S2, I2, I2), cube3(I2, I2, S2)])
        assert not pr.is_doubly_commuting()
        report = check_T24_condition_b(pr)
        assert [i.passed for i in report.items] == [False, True, True]
        t24 = verify_T24_equivalence(pr)
        booleans = {i.name: i.passed for i in t24.evaluated}
        assert not booleans["(1)_doubly_commuting"] and not booleans["(b)_flip_intertwining"]
        assert t24.passed

    def test_t24_builds_no_tower_level(self, count_calls):
        from covrep.correspondence import HilbertTower

        calls = count_calls(HilbertTower, "tensor_op")
        assert verify_T24_equivalence(grid_product(3)).passed
        assert calls == {}
