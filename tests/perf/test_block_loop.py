"""The one per-block loop against the two loops it replaced.

:class:`repro.perf.ReferenceSweepExecutor` runs the paper's disjoint
blocks and, over the extended blocks of an ``+oK`` partition, the
async-RAS sweep.  Before
that merge each had its own loop, and both folded the race corrections
through an ``np.bincount`` segment sum wherever the right-hand side has
no ``-0.0`` entry (``np.add.at`` otherwise).  Those two loops are kept
here verbatim as oracles: the merged loop must reproduce their iterates
and generator states bit for bit.
"""

import numpy as np
import pytest

from repro.core import AsyncConfig
from repro.core.engine import AsyncEngine
from repro.core.fault import FaultScenario
from repro.matrices import default_rhs
from repro.partition import make_partition
from repro.perf import ReferenceSweepExecutor, rhs_preserves_fold
from repro.sparse import BlockRowView, CSRMatrix

BLOCK = 32
SWEEPS = 6


def _bincount_fold(base, ids, weights):
    """The old ``np.add.at`` replacement: one seeded ``np.bincount``."""
    n = len(base)
    return np.bincount(
        np.concatenate([np.arange(n, dtype=np.int64), ids]),
        weights=np.concatenate([base, weights]),
        minlength=n,
    )


def _fold(ext, ids, delta, fold_safe):
    if fold_safe:
        return _bincount_fold(ext, ids, delta)
    np.add.at(ext, ids, delta)
    return ext


class _DisjointOracle:
    """The reference loop before the merge (disjoint blocks, faults)."""

    def __init__(self, view, config):
        self.view, self.config = view, config
        self.local_c = [blk.local_off_compressed() for blk in view.blocks]

    def sweep(self, X, lanes, reps):
        cfg = self.config
        for r in reps:
            x, rng, b = X[r], lanes.rngs[r], lanes.rhs(r)
            fold_safe = rhs_preserves_fold(b)
            frozen = lanes.frozen_blocks()
            order, gamma = lanes.schedulers[r].plan_for_sweep(lanes.sweep_index, rng)
            snapshot = x if np.all(gamma >= 1.0) else x.copy()
            deferred = []
            for pos, bid in enumerate(order):
                blk = self.view.blocks[bid]
                rows = blk.rows
                g = gamma[pos]
                if g <= 0.0:
                    ext = blk.external.matvec(snapshot)
                elif g >= 1.0:
                    ext = blk.external.matvec(x)
                else:
                    ext = blk.external.matvec(snapshot)
                    e = blk.external
                    fresh = rng.random(e.nnz) < g
                    if fresh.any():
                        cols = e.indices[fresh]
                        delta = e.data[fresh] * (x[cols] - snapshot[cols])
                        ext = _fold(ext, e._expanded_rows()[fresh], delta, fold_safe)
                s = b[rows] - ext
                frozen_local = frozen[bid] if frozen is not None else None
                defer = cfg.deferred_write_prob > 0.0 and rng.random() < cfg.deferred_write_prob
                z = x[rows]
                for _ in range(cfg.local_iterations):
                    new = (s - self.local_c[bid].matvec(z)) / blk.diag
                    if cfg.omega != 1.0:
                        new = (1.0 - cfg.omega) * z + cfg.omega * new
                    if frozen_local is not None and len(frozen_local):
                        if lanes.fault.kind == "silent":
                            new[frozen_local] *= lanes.fault.corruption
                        else:
                            new[frozen_local] = z[frozen_local]
                    z = new
                if defer:
                    deferred.append((rows, z))
                else:
                    x[rows] = z
            for rows, vals in deferred:
                x[rows] = vals


class _RASOracle:
    """The extended-block async-RAS loop before the merge."""

    def __init__(self, view, config):
        self.blocks, self.config = view.ras_blocks(), config

    def sweep(self, X, lanes, reps):
        cfg = self.config
        for r in reps:
            x, rng, b = X[r], lanes.rngs[r], lanes.rhs(r)
            fold_safe = rhs_preserves_fold(b)
            order, gamma = lanes.schedulers[r].plan_for_sweep(lanes.sweep_index, rng)
            snapshot = x if np.all(gamma >= 1.0) else x.copy()
            deferred = []
            for pos, bid in enumerate(order):
                blk = self.blocks[bid]
                g = gamma[pos]
                if g <= 0.0:
                    ext = blk.external.matvec(snapshot)
                    read = snapshot
                elif g >= 1.0:
                    ext = blk.external.matvec(x)
                    read = x
                else:
                    ext = blk.external.matvec(snapshot)
                    e = blk.external
                    fresh = rng.random(e.nnz) < g
                    if fresh.any():
                        cols = e.indices[fresh]
                        delta = e.data[fresh] * (x[cols] - snapshot[cols])
                        ext = _fold(ext, e._expanded_rows()[fresh], delta, fold_safe)
                    read = snapshot
                s = b[blk.elo : blk.ehi] - ext
                z = read[blk.elo : blk.ehi]
                for _ in range(cfg.local_iterations):
                    new = (s - blk.local_off.matvec(z)) / blk.diag
                    if cfg.omega != 1.0:
                        new = (1.0 - cfg.omega) * z + cfg.omega * new
                    z = new
                owned = z[blk.owned]
                if cfg.deferred_write_prob > 0.0 and rng.random() < cfg.deferred_write_prob:
                    deferred.append((slice(blk.start, blk.stop), owned))
                else:
                    x[blk.start : blk.stop] = owned
            for rows, vals in deferred:
                x[rows] = vals


def _cfg(**over):
    base = dict(
        order="gpu", concurrency=3, stale_read_prob=0.6, local_iterations=3,
        block_size=BLOCK, seed=5,
    )
    base.update(over)
    return AsyncConfig(**base)


def _rhs(A, negative_zeros):
    b = default_rhs(A).copy()
    if negative_zeros:
        b[::7] = -0.0
    return b


def _assert_same_run(view, b, cfg, oracle_cls, *, fault=None, backend="reference"):
    engine = AsyncEngine(view, b, cfg, fault=fault)
    oracle = AsyncEngine(view, b, cfg, fault=fault)
    assert engine.backend == backend
    assert isinstance(engine._executor, ReferenceSweepExecutor)
    oracle._executor = oracle_cls(view, cfg)
    x = np.zeros(view.n)
    x_oracle = np.zeros(view.n)
    for _ in range(SWEEPS):
        engine.sweep(x)
        oracle.sweep(x_oracle)
        assert np.array_equal(x.view(np.int64), x_oracle.view(np.int64))
        assert engine.rng.bit_generator.state == oracle.rng.bit_generator.state
    # The run moved: the comparison is not between two untouched zeros.
    assert np.any(x != 0.0)


def _gamma_is_mixed(engine):
    g = engine.scheduler.gamma_profile()
    return bool(np.any((g > 0.0) & (g < 1.0))) and bool(np.any(g >= 1.0))


@pytest.mark.parametrize("overlap", [1, 2, 32])
@pytest.mark.parametrize("deferred", [0.0, 0.3, 1.0])
def test_ras_matches_the_old_extended_loop(trefethen_small, overlap, deferred):
    A = trefethen_small
    view = BlockRowView(A, partition=make_partition(A, f"uniform:{BLOCK}+o{overlap}", block_size=BLOCK))
    assert view.n % BLOCK  # an uneven last block
    cfg = _cfg(deferred_write_prob=deferred)
    _assert_same_run(view, _rhs(A, False), cfg, _RASOracle, backend="ras")


@pytest.mark.parametrize("negative_zeros", [False, True])
@pytest.mark.parametrize("omega", [1.0, 0.7])
def test_ras_matches_with_relaxation_and_signed_zero_rhs(trefethen_small, omega, negative_zeros):
    A = trefethen_small
    view = BlockRowView(A, partition=make_partition(A, f"uniform:{BLOCK}+o2", block_size=BLOCK))
    b = _rhs(A, negative_zeros)
    assert rhs_preserves_fold(b) is not negative_zeros
    cfg = _cfg(omega=omega, deferred_write_prob=0.3)
    _assert_same_run(view, b, cfg, _RASOracle, backend="ras")


@pytest.mark.parametrize("deferred", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("negative_zeros", [False, True])
def test_disjoint_matches_the_old_reference_loop(trefethen_small, deferred, negative_zeros):
    A = trefethen_small
    view = BlockRowView(A, block_size=BLOCK)
    cfg = _cfg(deferred_write_prob=deferred, backend="reference")
    engine = AsyncEngine(view, _rhs(A, negative_zeros), cfg)
    assert _gamma_is_mixed(engine)
    _assert_same_run(view, _rhs(A, negative_zeros), cfg, _DisjointOracle)


def test_signed_zero_rhs_keeps_the_in_place_fold():
    # One-row blocks of a 1-D Laplacian: no local entries, two negative
    # external ones.  From x0 = 0 a row's off-block sum is -0.0, and where
    # b holds -0.0 its sign survives into x unless the fold keeps it: a
    # seeded segment sum (0.0 + base) would write +0.0 instead.
    n = 40
    dense = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    A = CSRMatrix.from_dense(dense)
    b = np.ones(n)
    b[::3] = -0.0
    view = BlockRowView(A, block_size=1)
    cfg = _cfg(block_size=1, concurrency=8, stale_read_prob=0.5, local_iterations=1, backend="reference")
    _assert_same_run(view, b, cfg, _DisjointOracle)


@pytest.mark.parametrize("order", ["synchronous", "random", "gpu"])
def test_disjoint_matches_with_relaxation(trefethen_small, order):
    A = trefethen_small
    view = BlockRowView(A, block_size=BLOCK)
    cfg = _cfg(order=order, omega=1.3, deferred_write_prob=0.3, backend="reference")
    _assert_same_run(view, _rhs(A, False), cfg, _DisjointOracle)


@pytest.mark.parametrize("kind", ["freeze", "silent"])
def test_disjoint_matches_under_faults(trefethen_small, kind):
    A = trefethen_small
    view = BlockRowView(A, block_size=BLOCK)
    fault = FaultScenario(fraction=0.2, t0=2, recovery=2, kind=kind, corruption=1.05, seed=3)
    cfg = _cfg(deferred_write_prob=0.3)
    # A fault keeps auto on the reference loop.
    _assert_same_run(view, _rhs(A, False), cfg, _DisjointOracle, fault=fault)
