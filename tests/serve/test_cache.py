"""PlanCache: compile once per structure, LRU eviction, honest counters."""

import numpy as np
import pytest

from repro.perf import plan_compile_count
from repro.serve import PlanCache
from repro.sparse import CSRMatrix


def _system(n, seed):
    gen = np.random.default_rng(seed)
    dense = gen.standard_normal((n, n))
    dense[np.abs(dense) < 1.0] = 0.0
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return CSRMatrix.from_dense(dense)


def test_hit_returns_same_artifacts(small_spd):
    cache = PlanCache()
    e1, hit1 = cache.lookup(small_spd, "uniform", 10)
    e2, hit2 = cache.lookup(small_spd, "uniform", 10)
    assert (hit1, hit2) == (False, True)
    assert e2 is e1
    assert e2.view is e1.view and e2.plan is e1.plan
    assert e1.hits == 1
    assert cache.stats()["hit_rate"] == 0.5


def test_plan_compiled_exactly_once_per_structure(small_spd):
    # The whole point of the cache: repeat lookups — including from a
    # different but content-identical matrix object — must not recompile.
    cache = PlanCache()
    clone = CSRMatrix(
        small_spd.indptr.copy(), small_spd.indices.copy(),
        small_spd.data.copy(), small_spd.shape,
    )
    before = plan_compile_count()
    cache.lookup(small_spd, "uniform", 10)
    assert plan_compile_count() == before + 1
    _, hit = cache.lookup(clone, "uniform", 10)
    assert hit is True
    assert plan_compile_count() == before + 1  # no second compilation


def test_distinct_decompositions_are_distinct_entries(small_spd):
    cache = PlanCache()
    e1, _ = cache.lookup(small_spd, "uniform", 10)
    e2, hit = cache.lookup(small_spd, "uniform", 20)
    assert hit is False and e2 is not e1
    e3, hit = cache.lookup(small_spd, "work_balanced:6", 10)
    assert hit is False and e3 is not e1
    assert len(cache) == 3


def test_lru_eviction(small_spd):
    cache = PlanCache(capacity=2)
    a, b, c = _system(40, 1), _system(40, 2), _system(40, 3)
    cache.lookup(a, "uniform", 10)
    cache.lookup(b, "uniform", 10)
    cache.lookup(a, "uniform", 10)  # refresh a: b is now LRU
    cache.lookup(c, "uniform", 10)  # evicts b
    assert cache.evictions == 1
    _, hit = cache.lookup(a, "uniform", 10)
    assert hit is True
    _, hit = cache.lookup(b, "uniform", 10)  # recompiled
    assert hit is False


def test_permuting_partitions_rejected(small_spd):
    cache = PlanCache()
    with pytest.raises(ValueError, match="non-permuting"):
        cache.lookup(small_spd, "rcm", 10)


def test_validation():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


def test_backend_is_part_of_the_cache_key(small_spd):
    # A plan compiled under auto (stencil-eligible) dispatch must never be
    # served to a request that forced a specific backend, and vice versa:
    # the requested backend is part of the key.
    cache = PlanCache()
    e_auto, hit = cache.lookup(small_spd, "uniform", 10, backend="auto")
    assert hit is False
    e_ref, hit = cache.lookup(small_spd, "uniform", 10, backend="reference")
    assert hit is False and e_ref is not e_auto
    assert e_auto.key[3] == "auto" and e_ref.key[3] == "reference"
    # Same backend again is a hit on its own entry.
    e2, hit = cache.lookup(small_spd, "uniform", 10, backend="reference")
    assert hit is True and e2 is e_ref
    assert len(cache) == 2


def test_backend_defaults_to_auto(small_spd):
    cache = PlanCache()
    e1, _ = cache.lookup(small_spd, "uniform", 10)
    e2, hit = cache.lookup(small_spd, "uniform", 10, backend="auto")
    assert hit is True and e2 is e1


def test_service_routes_forced_backend_to_its_own_entry(small_spd):
    from repro.core import AsyncConfig
    from repro.serve import SolveService

    b = small_spd.matvec(np.ones(small_spd.shape[0]))
    service = SolveService()
    cfg = dict(local_iterations=2, block_size=10)
    r1 = service.solve(small_spd, b, config=AsyncConfig(**cfg))
    r2 = service.solve(small_spd, b, config=AsyncConfig(backend="reference", **cfg))
    assert r1.completed and r2.completed
    # Different requested backends → different cache entries, no false hit.
    assert service.cache.stats()["misses"] == 2
    assert service.cache.stats()["hits"] == 0
    r3 = service.solve(small_spd, b, config=AsyncConfig(backend="reference", **cfg))
    assert r3.completed and service.cache.stats()["hits"] == 1
    # Identical iterates regardless of which entry served the request.
    assert np.array_equal(r2.result.x, r3.result.x)


def test_overlap_is_part_of_the_cache_key(small_spd):
    # Two requests differing only in the +oK overlap suffix compile
    # different extended block systems and must never share a plan.
    cache = PlanCache()
    before = plan_compile_count()
    e0, hit = cache.lookup(small_spd, "uniform:10", 10)
    assert hit is False and plan_compile_count() == before + 1
    e2, hit = cache.lookup(small_spd, "uniform:10+o2", 10)
    assert hit is False and e2 is not e0
    assert plan_compile_count() == before + 2  # second compilation happened
    assert e0.key[4] == 0 and e2.key[4] == 2
    assert e2.partition.overlap == 2
    # Each spec still hits its own entry.
    _, hit = cache.lookup(small_spd, "uniform:10+o2", 10)
    assert hit is True
    assert plan_compile_count() == before + 2
    assert len(cache) == 2


def test_service_jobs_differing_only_in_overlap_compile_separately(small_spd):
    from repro.core import AsyncConfig
    from repro.serve import SolveService

    b = small_spd.matvec(np.ones(small_spd.shape[0]))
    service = SolveService()
    cfg = dict(local_iterations=2, block_size=10)
    r1 = service.solve(small_spd, b, config=AsyncConfig(partition="uniform:10", **cfg))
    r2 = service.solve(
        small_spd, b,
        config=AsyncConfig(partition="uniform:10+o3", **cfg),
    )
    assert r1.completed and r2.completed
    assert service.cache.stats()["misses"] == 2
    assert service.cache.stats()["hits"] == 0
