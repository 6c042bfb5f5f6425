"""The level executor is the per-block loop, bitwise (:mod:`repro.perf.backends`).

``"levels"`` runs a sweep as a few dependency levels of independent blocks;
forced ``"reference"`` is the per-block loop it must reproduce.  Every test
compares the iterates after every sweep and the generator states at the
end, across the regimes auto sends to the block loop, relaxation, a
right-hand side with ``-0.0`` entries, non-uniform partitions, a sparsity
pattern that is not symmetric (where a γ = 1 reader must run before the
later blocks it couples to write), and batched lanes with a per-replica
right-hand-side stack swept in part.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core import AsyncConfig, AsyncEngine, BatchedAsyncEngine, FaultScenario
from repro.partition import make_partition
from repro.sparse import BlockRowView, CSRMatrix


def _regimes(name):
    path = Path(__file__).resolve().parents[1] / "core" / "test_backends.py"
    spec = importlib.util.spec_from_file_location("_backend_regimes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)


#: The regimes in which auto finds no whole-sweep path (test_backends).
NON_ENGAGING = _regimes("NON_ENGAGING")

#: Further block-loop regimes: relaxation, a γ = 1 tail with deferred
#: writes, live random orders with deferred writes.
MORE = {
    "omega": AsyncConfig(order="gpu", local_iterations=3, omega=0.85, block_size=32),
    "tail-defer-omega": AsyncConfig(
        order="gpu", local_iterations=2, block_size=32, concurrency=4,
        deferred_write_prob=0.4, omega=0.85,
    ),
    "random-live-defer": AsyncConfig(
        order="random", stale_read_prob=0.0, local_iterations=3, block_size=32,
        deferred_write_prob=0.3,
    ),
}

ALL = {**NON_ENGAGING, **MORE}


def _rhs(A, seed=2):
    return np.random.default_rng(seed).standard_normal(A.shape[0])


def _sweeps(view, b, config, backend, *, sweeps=4, seed=0):
    engine = AsyncEngine(view, b, dataclasses.replace(config, backend=backend, seed=seed))
    x = np.zeros(view.n)
    iterates = []
    for _ in range(sweeps):
        engine.sweep(x)
        iterates.append(x.copy())
    return engine, iterates, engine.rng.random(8)


def assert_levels_match_reference(view, b, config, **kw):
    lev, it_l, probe_l = _sweeps(view, b, config, "auto", **kw)
    ref, it_r, probe_r = _sweeps(view, b, config, "reference", **kw)
    assert lev.backend == "levels" and ref.backend == "reference"
    for t, (xl, xr) in enumerate(zip(it_l, it_r)):
        assert np.array_equal(xl, xr), f"levels diverged from reference at sweep {t + 1}"
    assert np.array_equal(probe_l, probe_r), "generator states diverged"
    return lev


@pytest.fixture(scope="module")
def nonsymmetric():
    """Diagonally dominant, with a block coupling that is not symmetric.

    In blocks of 16 rows, every row reads the next two blocks, but only
    odd blocks read the block before.  In sequential order an odd block
    therefore sits a level above the even block after it, which it reads:
    that block must not have written yet when the odd block reads.
    """
    gen = np.random.default_rng(3)
    n = 160
    dense = np.zeros((n, n))
    i = np.arange(n)
    for shift in (16, 32):
        dense[i[:-shift], i[:-shift] + shift] = gen.standard_normal(n - shift)
    odd = i[(i // 16) % 2 == 1]
    dense[odd, odd - 16] = gen.standard_normal(len(odd))
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    inner = i[i % 16 != 0]
    dense[inner, inner - 1] += 0.1  # local coupling inside every block
    return CSRMatrix.from_dense(dense)


@pytest.mark.parametrize("regime", sorted(ALL), ids=sorted(ALL))
def test_levels_match_reference(trefethen_small, regime):
    cfg = ALL[regime]
    view = BlockRowView(trefethen_small, block_size=cfg.block_size)
    assert_levels_match_reference(view, _rhs(trefethen_small), cfg)


@pytest.mark.parametrize("regime", sorted(ALL), ids=sorted(ALL))
def test_levels_match_reference_nonsymmetric(nonsymmetric, regime):
    cfg = dataclasses.replace(ALL[regime], block_size=16)
    view = BlockRowView(nonsymmetric, block_size=cfg.block_size)
    assert_levels_match_reference(view, _rhs(nonsymmetric), cfg, sweeps=5)


def test_levels_match_reference_on_fv1(fv1):
    cfg = AsyncConfig(order="gpu", local_iterations=5, block_size=128)
    view = BlockRowView(fv1, block_size=cfg.block_size)
    lev = assert_levels_match_reference(view, _rhs(fv1), cfg, sweeps=3, seed=11)
    # Decision telemetry: a handful of levels per sweep, not one per block.
    assert 1.0 < lev.decisions()["levels_mean"] < view.nblocks / 4


@pytest.mark.parametrize("regime", ["partial-stale", "partial-defer"])
def test_negative_zero_rhs(trefethen_small, regime):
    # The reference loop takes its np.add.at fallback here; the level
    # executor's in-place fold must agree with it.
    b = _rhs(trefethen_small)
    b[[5, 40, 41, 200]] = -0.0
    view = BlockRowView(trefethen_small, block_size=32)
    assert_levels_match_reference(view, b, ALL[regime])


@pytest.mark.parametrize("spec", ["work_balanced:32", "clustered:32"])
@pytest.mark.parametrize("regime", ["gpu-default", "live-reads", "partial-defer"])
def test_non_uniform_partitions(trefethen_small, spec, regime):
    cfg = ALL[regime]
    view = BlockRowView(trefethen_small, partition=make_partition(trefethen_small, spec))
    assert_levels_match_reference(view, _rhs(trefethen_small), cfg)


@pytest.mark.parametrize("regime", ["gpu-default", "tail-defer-omega", "live-reads"])
def test_batched_lanes_with_rhs_stack_and_subset(trefethen_small, regime):
    A = trefethen_small
    cfg = ALL[regime]
    seeds = [4, 9, 13]
    B = np.stack([_rhs(A, seed) for seed in (1, 2, 3)])
    view = BlockRowView(A, block_size=cfg.block_size)
    batched = BatchedAsyncEngine(view, B, cfg, 3, seeds=seeds)
    assert batched.backend == "levels"
    refs = [
        AsyncEngine(view, B[r], dataclasses.replace(cfg, backend="reference", seed=seeds[r]))
        for r in range(3)
    ]
    X = np.zeros((3, A.shape[0]))
    xs = [np.zeros(A.shape[0]) for _ in range(3)]
    # A shrinking active set, as the batched run loop freezes replicas.
    for reps in ([0, 1, 2], [0, 1, 2], [0, 2], [2]):
        batched.sweep(X, replicas=np.array(reps))
        for r in range(3):
            if r in reps:
                refs[r].sweep(xs[r])
            assert np.array_equal(X[r], xs[r]), f"replica {r} diverged after sweeping {reps}"
    for r in range(3):
        assert np.array_equal(batched.rngs[r].random(8), refs[r].rng.random(8))


def test_faults_resolve_to_reference(trefethen_small):
    fault = FaultScenario(fraction=0.2, t0=1, recovery=None, seed=3)
    view = BlockRowView(trefethen_small, block_size=32)
    for cfg in ALL.values():
        engine = AsyncEngine(view, _rhs(trefethen_small), cfg, fault=fault)
        assert engine.backend == "reference"


def test_levels_build_their_structures_instead_of_the_per_block_plans(trefethen_small):
    view = BlockRowView(trefethen_small, block_size=32)
    mixed = AsyncEngine(view, _rhs(trefethen_small), NON_ENGAGING["gpu-default"])
    plan = mixed.plan
    assert mixed.backend == "levels"
    assert plan._padded is not None
    # No γ = 1 position: no padded external panels.
    assert plan._padded_ext is None
    live = AsyncEngine(view, _rhs(trefethen_small), NON_ENGAGING["live-reads"])
    assert live.plan is plan and plan._padded_ext is not None
    # Compiled once: sweeps build no further gather plans ...
    x = np.zeros(view.n)
    mixed.sweep(x)
    built = plan.ell_plans_built
    for _ in range(3):
        mixed.sweep(x)
        live.sweep(x)
    assert plan.ell_plans_built == built and plan.external._ell_builds == 1
    # ... and none of the reference loop's per-block ones.
    assert plan._local_c is None
    assert all(blk.external._ell_builds == 0 for blk in view.blocks)
