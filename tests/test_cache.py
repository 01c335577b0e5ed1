"""The one cache rule, checked on every verifier and instance kind.

``_linalg._cached`` keeps each per-instance value in its owner's one store
under (qualified function name, *args); the owners are the covariant and
product representations and everything they reach: sigma, the
correspondences, the algebra, the chain and Hilbert towers.  These tests
read the stores as they are, without naming a key: for each CLI theorem,
``wold_decompose``, ``verify_ker_Ln`` and the ``check_*`` family, on the
corpus and on seeds of every ``random_instance`` profile, a warm result
equals a fresh instance's bit for bit, a second pass adds no key and keeps
every object, every array reachable from a store is read-only, racing
threads get one object, a build that raises stores nothing, and no key
holds a caller's subspace or an array.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from covrep import cli
from covrep._linalg import _CACHED, _cached
from covrep.algebra import MatrixBlocksAlgebra, StarRepresentation
from covrep.correspondence import ChainTower, Correspondence, HilbertTower
from covrep.covrep import CovariantRep
from covrep.errors import CovrepError, NotIsometric, NotLeftInvertible
from covrep.examples import PROFILES, G2, corpus_instances, random_instance, scalar_covrep, weighted_graph_rep
from covrep.product import ProductRep, ProductSystem, check_T24_condition_b
from covrep.wold import (
    Subspace,
    _induced_model_item,
    image,
    invariant_closure,
    verify_ker_Ln,
    verify_muhly_solel,
    verify_richter,
    wold_decompose,
)


def _each_rep(f):
    """``f`` on a covariant representation, or on each coordinate of a tuple."""
    return lambda inst: [f(rep) for rep in getattr(inst, "reps", (inst,))]


def _theorem(name):
    kind, verify = cli._THEOREMS[name]
    return lambda inst: verify(inst) if isinstance(inst, kind) else None


def _product_only(f):
    return lambda inst: f(inst) if isinstance(inst, ProductRep) else None


_CHECKS = ("left_invertible", "isometric", "fully_coisometric", "concave", "expansive",
           "shimorin", "eq13", "eq12", "analytic")

#: Every verifier that reads the caches, by name: the CLI theorems, the
#: decomposition, ker L^3 and the ``check_*`` family with ``build_U``.
VERIFIERS = {
    **{f"theorem_{name}": _theorem(name) for name in cli.THEOREMS},
    "wold_decompose": _each_rep(wold_decompose),
    "ker_L3": _each_rep(lambda rep: verify_ker_Ln(rep, 3)),
    **{f"check_{name}": _each_rep(lambda rep, name=name: getattr(rep, f"check_{name}")()) for name in _CHECKS},
    "check_growth_bound_3": _each_rep(lambda rep: rep.check_growth_bound(3)),
    "build_U": _each_rep(lambda rep: rep.build_U()),
    "check_doubly_commuting": _product_only(lambda pr: pr.check_doubly_commuting()),
    "check_T24_condition_b": _product_only(check_T24_condition_b),
}


def _run(verify, inst):
    """The verifier's result, or the name of the library error it raised."""
    try:
        return verify(inst)
    except CovrepError as exc:
        return type(exc).__name__


def _twin(owner, twins):
    """A new object on the same data as ``owner``, with empty stores all the
    way down: every algebra, representation, correspondence and tower it
    reaches is new too, once each (``twins`` maps id to twin)."""
    if id(owner) in twins:
        return twins[id(owner)][1]
    twin = lambda x: _twin(x, twins)
    if isinstance(owner, MatrixBlocksAlgebra):
        new = MatrixBlocksAlgebra(owner.block_dims)
    elif isinstance(owner, StarRepresentation):
        new = StarRepresentation(twin(owner.algebra), owner.hilbert_dim, owner.images, owner.tol)
    elif isinstance(owner, Correspondence):
        new = Correspondence(twin(owner.algebra), owner.dim, owner.right_action, owner.left_action, owner.gram, owner.tol)
    elif isinstance(owner, ChainTower):
        new = ChainTower([twin(E) for E in owner.family], owner.tol)
    elif isinstance(owner, HilbertTower):
        new = HilbertTower(twin(owner.chain), twin(owner.sigma))
    elif isinstance(owner, ProductRep):
        system = ProductSystem(twin(owner.system.chain).family, owner.system.flips, owner.system.tol, twin(owner.system.chain))
        new = ProductRep(system, twin(owner.sigma), [r.T for r in owner.reps], tol=owner.tol, meta=owner.meta)
        twins.update({id(r): (r, t) for r, t in zip((owner.hilb, *owner.reps), (new.hilb, *new.reps))})
    else:
        new = CovariantRep(
            twin(owner.sigma), twin(owner.E), owner.T, tol=owner.tol, chain=twin(owner.chain),
            hilb=twin(owner.hilb), letter=owner.letter, meta=owner.meta,
        )
    # the owner is kept beside its twin, so its id is not reused
    twins[id(owner)] = owner, new
    return new


def _fresh(inst):
    """A new instance on the same data, with empty stores all the way down."""
    return _twin(inst, {})


def _instances(source):
    if source == "corpus":
        return list(corpus_instances().values())
    return [random_instance(seed, source) for seed in range(3)]


SOURCES = ["corpus", *PROFILES]


#: the attributes through which one store's owner reaches another's
_LINKS = ("sigma", "E", "algebra", "chain", "hilb")


def _stores(inst):
    """Every store reachable from an instance, in a fixed order: its own,
    its coordinates', those of its sigma, correspondences, algebra and
    towers, and, recursively, those of the owners its stores hold (a
    Cauchy dual, the chain's quotient correspondences)."""
    out, todo = [], [inst]
    while todo:
        owner = todo.pop(0)
        if any(owner is seen for seen, _ in out):
            continue
        out.append((owner, owner._cache))
        links = [getattr(owner, name, None) for name in _LINKS]
        links += [*getattr(owner, "reps", ()), *getattr(owner, "family", ())]
        for value in list(owner._cache.values()):
            links += value if isinstance(value, tuple) else (value,)
        todo += [x for x in links if isinstance(getattr(x, "_cache", None), dict)]
    return out


def _snapshot(inst):
    return [(id(owner), dict(store)) for owner, store in _stores(inst)]


def _keys(inst):
    return [(id(owner), set(store)) for owner, store in _stores(inst)]


def _assert_kept(before, inst):
    """No key added since the snapshot ``before``, and every object kept."""
    after = _snapshot(inst)
    assert [(owner, set(store)) for owner, store in after] == [(o, set(old)) for o, old in before]
    for (_, old), (_, new) in zip(before, after):
        assert all(new[key] is value for key, value in old.items())


def _bits(value):
    """A value as exact data: arrays by their bytes, floats by repr, records
    field by field, a representation by its T."""
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, Subspace):
        return _bits(value.basis)
    if isinstance(value, CovariantRep):
        return _bits(value.theta)
    if isinstance(value, (tuple, list)):
        return tuple(_bits(part) for part in value)
    if isinstance(value, dict):
        return tuple((key, _bits(part)) for key, part in value.items())
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple((f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    return repr(value)


def _arrays(value):
    """The arrays a stored value holds: itself, in tuples and named tuples,
    in the fields of records (a subspace, an interior tensor space, sigma's
    multiplicity, U, a correspondence) and the data of a representation."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, CovariantRep):
        yield from (value.theta, value.T, value.sigma.images)
    elif isinstance(value, tuple):
        for part in value:
            yield from _arrays(part)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("name", VERIFIERS)
class TestOneCacheRule:
    def test_warm_equals_fresh(self, name, source):
        verify = VERIFIERS[name]
        for inst in _instances(source):
            for other in VERIFIERS.values():
                _run(other, inst)
            warm = _run(verify, inst)
            cold = _run(verify, _fresh(inst))
            assert _bits(warm) == _bits(cold)
            if hasattr(warm, "to_json"):
                assert warm.to_json() == cold.to_json()

    def test_second_pass_adds_nothing(self, name, source):
        verify = VERIFIERS[name]
        for inst in _instances(source):
            first = _run(verify, inst)
            before = _snapshot(inst)
            again = _run(verify, inst)
            _assert_kept(before, inst)
            assert _bits(again) == _bits(first)
            if name.startswith(("check_", "build_U")):
                # a cached check returns the stored object itself
                pairs = zip(*(r if isinstance(r, list) else [r] for r in (again, first)))
                assert all(a is b for a, b in pairs if not isinstance(a, str))

    def test_stored_arrays_are_read_only_and_keys_hold_no_subspace(self, name, source):
        verify = VERIFIERS[name]
        for inst in _instances(source):
            _run(verify, inst)
            for _, store in _stores(inst):
                for key, value in store.items():
                    assert not any(isinstance(arg, (Subspace, np.ndarray)) for arg in key), key
                    assert not isinstance(value, BaseException), key
                    for array in _arrays(value):
                        assert not array.flags.writeable, key

    def test_racing_threads_get_one_object(self, name, source):
        verify = VERIFIERS[name]
        for inst in _instances(source):
            serial = _bits(_run(verify, _fresh(inst)))
            shared = _fresh(inst)
            start = threading.Barrier(4, timeout=60)

            def run():
                start.wait()
                return _run(verify, shared), _snapshot(shared)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    outs = [f.result(timeout=60) for f in [pool.submit(run) for _ in range(4)]]
            finally:
                sys.setswitchinterval(interval)
            final = dict(_snapshot(shared))
            if name.startswith(("check_", "build_U")):
                # a cached check is one object in every thread
                for results in zip(*(r if isinstance(r, list) else [r] for r, _ in outs)):
                    assert all(r is results[0] for r in results if not isinstance(r, str))
            for result, snapshot in outs:
                assert _bits(result) == serial
                # each thread saw the stored objects that every thread now reads
                for owner, store in snapshot:
                    assert all(final[owner][key] is value for key, value in store.items())


class TestCacheRegistry:
    def test_no_two_cached_functions_share_a_name(self):
        names = [f.__qualname__ for f in _CACHED]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("source", SOURCES)
    def test_second_full_pass_adds_no_key(self, source):
        names = {f.__qualname__ for f in _CACHED}
        for inst in _instances(source):
            first = [_run(verify, inst) for verify in VERIFIERS.values()]
            before = _snapshot(inst)
            again = [_run(verify, inst) for verify in VERIFIERS.values()]
            _assert_kept(before, inst)
            assert _bits(again) == _bits(first)
            for _, store in _stores(inst):
                assert {key[0] for key in store} <= names


    @pytest.mark.parametrize("source", SOURCES)
    def test_every_value_equals_its_uncached_build(self, source):
        # each entry (name, *args) against its function run on a fresh
        # instance, where it fills a cache of its own in another order
        build = {f.__qualname__: f for f in _CACHED}
        for inst in _instances(source):
            for verify in VERIFIERS.values():
                _run(verify, inst)
            twins = {}
            for owner, store in _stores(inst):
                twin = _twin(owner, twins)
                for (name, *args), value in store.items():
                    assert _bits(value) == _bits(build[name](twin, *args)), name


@pytest.mark.parametrize("source", SOURCES)
def test_shared_values_live_in_the_stores(source):
    # the algebra, sigma, the correspondences and both towers keep their
    # values in the stores that the rules above read
    owners = {MatrixBlocksAlgebra, StarRepresentation, Correspondence, ChainTower, HilbertTower}
    for inst in _instances(source):
        for verify in VERIFIERS.values():
            _run(verify, inst)
        assert owners <= {type(owner) for owner, store in _stores(inst) if store}


def test_a_stored_none_is_read_not_built_again():
    builds = []

    class Owner:
        def nothing(self):
            builds.append(self)

    read = _cached(Owner.nothing)
    _CACHED.remove(Owner.nothing)
    owner = Owner()
    owner._cache = {}
    assert read(owner) is None and read(owner) is None
    assert builds == [owner] and owner._cache == {(Owner.nothing.__qualname__,): None}
    # over C the right blocks are None, stored like any value
    E = scalar_covrep(np.eye(2)).E
    assert E.right_blocks is None and (Correspondence.right_blocks.fget.__qualname__,) in E._cache


class TestFailedBuildsStoreNothing:
    """A build that raises stores nothing and raises again on the next call;
    the builds it made before raising stay."""

    @staticmethod
    def _check(inst, call, error, builds):
        for _ in range(2):
            before = _keys(inst)
            with pytest.raises(error):
                call()
            stored = {key[0] for _, store in _stores(inst) for key in store}
            assert stored.isdisjoint(f.__qualname__ for f in builds)
        assert _keys(inst) == before

    def test_muhly_solel_on_a_non_isometric_rep(self):
        rep = weighted_graph_rep(G2, [1.25, 1.1])
        self._check(rep, lambda: verify_muhly_solel(rep), NotIsometric, [_induced_model_item])

    def test_ker_Ln_on_a_rep_that_is_not_left_invertible(self):
        rep = scalar_covrep(np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)))
        for n in (1, 3):
            self._check(rep, lambda: verify_ker_Ln(rep, n), NotLeftInvertible, [CovariantRep.L_n])
        self._check(rep, lambda: rep.L, NotLeftInvertible, [CovariantRep.lfac])
        self._check(rep, rep.build_U, NotLeftInvertible, [CovariantRep.build_U])
        self._check(rep, rep.cauchy_dual, NotLeftInvertible, [CovariantRep.cauchy_dual])


def test_caller_subspaces_add_no_key():
    # T is upper triangular, so the span of e_1, ..., e_m is invariant
    rep = scalar_covrep(np.diag([2.0, 1.0, 0.5, 0.0]) + np.eye(4, k=1))
    verify_richter(rep, Subspace.full(rep.hdim))
    keys = set(rep._cache)
    rng = np.random.default_rng(5)
    dims = set()
    for _ in range(20):
        m = int(rng.integers(1, 4))
        v = np.zeros((4, 1), dtype=complex)
        v[:m] = rng.standard_normal((m, 1)) + 1j * rng.standard_normal((m, 1))
        K = invariant_closure(rep, image(v))
        assert K.dim < rep.hdim
        verify_richter(rep, K)
        dims.add(K.dim)
        assert set(rep._cache) == keys
    assert dims == {1, 2, 3}
