"""BatchedAsyncEngine: bitwise equivalence with the sequential engine.

The batched engine's whole contract is that replica *r* reproduces, bit for
bit, the iterates the sequential :class:`AsyncEngine` produces for seed
``seed0 + r`` — batching is an execution strategy, not an approximation.
These tests drive both engines over every scheduling regime (orders,
staleness, deferred writes, pipeline tails, relaxation) and compare raw
iterates with ``np.array_equal``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    AsyncConfig,
    AsyncEngine,
    BatchedAsyncEngine,
    replica_rngs,
)
from repro.sparse import BlockRowView


def _sequential_iterates(A, b, config, seed, sweeps):
    view = BlockRowView(A, block_size=config.block_size)
    engine = AsyncEngine(view, b, dataclasses.replace(config, seed=seed))
    x = np.zeros(A.shape[0])
    out = []
    for _ in range(sweeps):
        engine.sweep(x)
        out.append(x.copy())
    return out


def _batched_iterates(A, b, config, nreplicas, sweeps, seed0):
    view = BlockRowView(A, block_size=config.block_size)
    engine = BatchedAsyncEngine(view, b, config, nreplicas, seed0=seed0)
    X = np.zeros((nreplicas, A.shape[0]))
    out = []
    for _ in range(sweeps):
        engine.sweep(X)
        out.append(X.copy())
    return out


def _rhs(A):
    return np.random.default_rng(1).standard_normal(A.shape[0])


def assert_batched_equivalent(A, b, config, *, nreplicas=4, sweeps=4, seed0=3):
    batched = _batched_iterates(A, b, config, nreplicas, sweeps, seed0)
    for r in range(nreplicas):
        seq = _sequential_iterates(A, b, config, seed0 + r, sweeps)
        for t in range(sweeps):
            assert np.array_equal(batched[t][r], seq[t]), (
                f"replica {r} diverged from sequential at sweep {t + 1}"
            )


#: One config per scheduling regime the engine distinguishes.
REGIMES = {
    "gpu-k1": AsyncConfig(order="gpu", local_iterations=1, block_size=32),
    "gpu-k5": AsyncConfig(order="gpu", local_iterations=5, block_size=32),
    "random-k2": AsyncConfig(order="random", local_iterations=2, block_size=32),
    "synchronous": AsyncConfig(order="synchronous", local_iterations=2, block_size=32),
    "deferred-writes": AsyncConfig(
        order="gpu", local_iterations=2, block_size=32, deferred_write_prob=0.3
    ),
    "pipeline-tail": AsyncConfig(
        order="sequential", local_iterations=1, block_size=32, concurrency=2
    ),
    "gpu-tail": AsyncConfig(
        order="gpu", local_iterations=2, block_size=32, concurrency=4
    ),
    "omega-defer": AsyncConfig(
        order="gpu", local_iterations=2, block_size=32, omega=0.9,
        deferred_write_prob=0.2,
    ),
    "live-reads": AsyncConfig(order="sequential", local_iterations=1, block_size=32),
    "stale-override": AsyncConfig(
        order="gpu", local_iterations=1, block_size=32, stale_read_prob=0.5
    ),
    "shared-order-races": AsyncConfig(
        order="sequential", local_iterations=2, block_size=32, stale_read_prob=0.5
    ),
    # All-deferred writes: the whole-sweep collapse engages (mixed γ and
    # live γ flavours) — one-level regimes of repro.perf.
    "all-deferred-mixed": AsyncConfig(
        order="gpu", local_iterations=2, block_size=32, deferred_write_prob=1.0
    ),
    "all-deferred-live": AsyncConfig(
        order="sequential", local_iterations=2, block_size=32, stale_read_prob=0.0,
        deferred_write_prob=1.0,
    ),
    "all-deferred-reference": AsyncConfig(
        order="gpu", local_iterations=2, block_size=32, deferred_write_prob=1.0,
        backend="reference",
    ),
}


@pytest.mark.parametrize("regime", sorted(REGIMES), ids=sorted(REGIMES))
def test_batched_matches_sequential_trefethen(trefethen_small, regime):
    cfg = REGIMES[regime]
    assert_batched_equivalent(trefethen_small, _rhs(trefethen_small), cfg)


@pytest.mark.parametrize("k", [1, 5])
def test_batched_matches_sequential_fv1(fv1, k):
    cfg = AsyncConfig(order="gpu", local_iterations=k, block_size=448)
    assert_batched_equivalent(fv1, _rhs(fv1), cfg, nreplicas=3, sweeps=3)


def test_batched_replica_subset_freezes_rows(trefethen_small):
    # Sweeping only a subset of replicas must not touch (or consume RNG
    # for) the others, matching sequential runs that stopped early.
    A = trefethen_small
    b = _rhs(A)
    cfg = AsyncConfig(order="gpu", local_iterations=2, block_size=32)
    view = BlockRowView(A, block_size=cfg.block_size)
    engine = BatchedAsyncEngine(view, b, cfg, 3, seed0=0)
    X = np.zeros((3, A.shape[0]))
    engine.sweep(X)
    frozen = X[1].copy()
    engine.sweep(X, replicas=np.array([0, 2]))
    assert np.array_equal(X[1], frozen)
    # Replicas 0 and 2 still track their sequential runs.
    for r in (0, 2):
        seq = _sequential_iterates(A, b, cfg, r, 2)
        assert np.array_equal(X[r], seq[1])


def test_batched_update_counts(trefethen_small):
    cfg = AsyncConfig(order="gpu", local_iterations=1, block_size=32)
    view = BlockRowView(trefethen_small, block_size=cfg.block_size)
    engine = BatchedAsyncEngine(view, _rhs(trefethen_small), cfg, 2, seed0=0)
    X = np.zeros((2, trefethen_small.shape[0]))
    engine.sweep(X)
    engine.sweep(X, replicas=np.array([1]))
    assert engine.update_counts[0].tolist() == [1] * view.nblocks
    assert engine.update_counts[1].tolist() == [2] * view.nblocks
    assert engine.min_updates() == 1
    assert engine.staleness_bound() == 2


def test_batched_rejects_bad_shape(trefethen_small):
    cfg = AsyncConfig(block_size=32)
    view = BlockRowView(trefethen_small, block_size=32)
    engine = BatchedAsyncEngine(view, _rhs(trefethen_small), cfg, 2)
    with pytest.raises(ValueError, match="shape"):
        engine.sweep(np.zeros((3, trefethen_small.shape[0])))


@pytest.mark.parametrize("kwargs", [{}, {"seeds": []}], ids=["seed0", "seeds"])
def test_batched_rejects_empty_ensemble(trefethen_small, kwargs):
    view = BlockRowView(trefethen_small, block_size=32)
    with pytest.raises(ValueError, match="nreplicas must be >= 1"):
        BatchedAsyncEngine(view, _rhs(trefethen_small), AsyncConfig(block_size=32), 0, **kwargs)


@pytest.mark.parametrize("regime", ["gpu-k1", "deferred-writes", "synchronous"])
def test_single_replica_runs_the_sequential_executor(trefethen_small, regime):
    # R = 1 runs the sequential engine's executor and is bitwise the
    # sequential engine.
    cfg = REGIMES[regime]
    assert_batched_equivalent(trefethen_small, _rhs(trefethen_small), cfg, nreplicas=1)
    view = BlockRowView(trefethen_small, block_size=cfg.block_size)
    engine = BatchedAsyncEngine(view, _rhs(trefethen_small), cfg, 1)
    sequential = AsyncEngine(view, _rhs(trefethen_small), cfg)
    assert engine.backend == sequential.backend
    assert type(engine._executor) is type(sequential._executor)


def test_replica_rngs_match_sequential_seeds():
    streams = replica_rngs(10, 3)
    for r, rng in enumerate(streams):
        expected = np.random.default_rng(10 + r).random(5)
        assert np.array_equal(rng.random(5), expected)
    with pytest.raises(ValueError):
        replica_rngs(0, 0)


# --------------------------------------------------------------------- #
# Multi-rhs batching: R independent requests on one matrix (repro.serve)


def _multi_rhs(A, R):
    gen = np.random.default_rng(7)
    return np.stack([A.matvec(gen.standard_normal(A.shape[0])) for _ in range(R)])


@pytest.mark.parametrize(
    "regime", ["gpu-k5", "random-k2", "synchronous", "deferred-writes", "live-reads"]
)
def test_multi_rhs_matches_per_request_sequential(trefethen_small, regime):
    # Replica r of a multi-rhs batch must be bitwise the sequential engine
    # solving (A, b_r) alone with replica r's seed — the exactness the
    # serving layer's admission batching relies on.
    A = trefethen_small
    cfg = REGIMES[regime]
    R, sweeps = 3, 4
    B = _multi_rhs(A, R)
    seeds = [11, 2, 29]
    view = BlockRowView(A, block_size=cfg.block_size)
    engine = BatchedAsyncEngine(view, B, cfg, R, seeds=seeds)
    X = np.zeros((R, A.shape[0]))
    batched = []
    for _ in range(sweeps):
        engine.sweep(X)
        batched.append(X.copy())
    for r in range(R):
        seq = _sequential_iterates(A, B[r], cfg, seeds[r], sweeps)
        for t in range(sweeps):
            assert np.array_equal(batched[t][r], seq[t]), (
                f"multi-rhs replica {r} diverged from sequential at sweep {t + 1}"
            )


def test_multi_rhs_run_matches_per_request_runs(trefethen_small):
    # Full run(): per-replica ||b_r||-relative stopping, histories and
    # final iterates must all match R independent sequential runs.
    from repro.runtime import StoppingCriterion

    A = trefethen_small
    cfg = AsyncConfig(order="gpu", local_iterations=3, block_size=32)
    st = StoppingCriterion(tol=1e-9, maxiter=300)
    R = 3
    B = _multi_rhs(A, R)
    seeds = [4, 0, 17]
    view = BlockRowView(A, block_size=cfg.block_size)
    out = BatchedAsyncEngine(view, B, cfg, R, seeds=seeds).run(stopping=st)
    for r in range(R):
        seq_view = BlockRowView(A, block_size=cfg.block_size)
        seq = AsyncEngine(
            seq_view, B[r], dataclasses.replace(cfg, seed=seeds[r])
        ).run(stopping=st)
        assert bool(out.converged[r]) == seq.converged
        assert np.array_equal(out.X[r], seq.x)
        assert np.array_equal(out.histories[r], seq.residuals)


def test_multi_rhs_shape_and_seeds_validation(trefethen_small):
    A = trefethen_small
    cfg = AsyncConfig(block_size=32)
    view = BlockRowView(A, block_size=32)
    with pytest.raises(ValueError, match="multi-rhs"):
        BatchedAsyncEngine(view, np.zeros((3, A.shape[0])), cfg, 2)
    with pytest.raises(ValueError, match="seeds"):
        BatchedAsyncEngine(view, _rhs(A), cfg, 2, seeds=[1, 2, 3])


def test_seeds_override_matches_seed0_arithmetic(trefethen_small):
    # seeds=[s0, s0+1, ...] must be bitwise the seed0=s0 default.
    A = trefethen_small
    b = _rhs(A)
    cfg = AsyncConfig(order="gpu", local_iterations=2, block_size=32)
    view = BlockRowView(A, block_size=32)
    e1 = BatchedAsyncEngine(view, b, cfg, 3, seed0=5)
    e2 = BatchedAsyncEngine(view, b, cfg, 3, seeds=[5, 6, 7])
    X1 = np.zeros((3, A.shape[0]))
    X2 = np.zeros((3, A.shape[0]))
    for _ in range(3):
        e1.sweep(X1)
        e2.sweep(X2)
    assert np.array_equal(X1, X2)
