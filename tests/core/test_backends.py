"""Backend dispatch and whole-sweep exactness (:mod:`repro.perf`).

Backends are execution strategies, never approximations: wherever a
sweep runs whole — the level executor's one-level path, or the stencil
kernels — its iterates and the scheduler RNG state it leaves behind are
bitwise the reference loop's.  These tests pin that contract across
every engaging regime (orders, k, ω, deferred writes), the dispatch
rules of ``AsyncConfig.backend``, and the compile-once guarantee of the
shared sweep plan.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import AsyncConfig, AsyncEngine, FaultScenario
from repro.perf import (
    BACKENDS,
    compile_sweep_plan,
    rhs_preserves_fold,
)
from repro.sparse import BlockRowView


def _rhs(A):
    return np.random.default_rng(2).standard_normal(A.shape[0])


def _run(A, b, config, *, sweeps=4, seed=0, fault=None):
    """Iterates after each sweep plus an RNG-state probe, for one backend."""
    view = BlockRowView(A, block_size=config.block_size)
    engine = AsyncEngine(view, b, dataclasses.replace(config, seed=seed), fault=fault)
    x = np.zeros(A.shape[0])
    iterates = []
    for _ in range(sweeps):
        engine.sweep(x)
        iterates.append(x.copy())
    # Equal post-run draws == equal generator state: a whole sweep must
    # consume exactly the doubles the reference loop would have.
    probe = engine.rng.random(8)
    return engine, iterates, probe


#: Every regime in which a sweep runs whole, spanning order, k, ω and
#: deferred writes.
ENGAGING = {
    "synchronous-k1": AsyncConfig(order="synchronous", local_iterations=1, block_size=32),
    "synchronous-k5-omega": AsyncConfig(
        order="synchronous", local_iterations=5, omega=0.8, block_size=32
    ),
    "snapshot-gpu-k1": AsyncConfig(
        order="gpu", stale_read_prob=1.0, local_iterations=1, block_size=32
    ),
    "snapshot-gpu-k5": AsyncConfig(
        order="gpu", stale_read_prob=1.0, local_iterations=5, block_size=32
    ),
    "snapshot-random-k2-omega": AsyncConfig(
        order="random", stale_read_prob=1.0, local_iterations=2, omega=0.9, block_size=32
    ),
    "alldefer-mixed-k2": AsyncConfig(
        order="gpu", deferred_write_prob=1.0, local_iterations=2, block_size=32
    ),
    "alldefer-live-k1": AsyncConfig(
        order="sequential", stale_read_prob=0.0, deferred_write_prob=1.0,
        local_iterations=1, block_size=32,
    ),
    "alldefer-omega-k5": AsyncConfig(
        order="gpu", deferred_write_prob=1.0, local_iterations=5, omega=0.85, block_size=32
    ),
}

#: Regimes where a whole sweep would change the iterates (current-sweep
#: reads are observable), so sweeps run as dependency levels.
NON_ENGAGING = {
    "gpu-default": AsyncConfig(order="gpu", local_iterations=2, block_size=32),
    "live-reads": AsyncConfig(
        order="sequential", stale_read_prob=0.0, local_iterations=1, block_size=32
    ),
    "partial-stale": AsyncConfig(
        order="gpu", stale_read_prob=0.5, local_iterations=1, block_size=32
    ),
    "partial-defer": AsyncConfig(
        order="gpu", deferred_write_prob=0.3, local_iterations=2, block_size=32
    ),
    "pipeline-tail": AsyncConfig(
        order="gpu", stale_read_prob=1.0, local_iterations=1, block_size=32, concurrency=2
    ),
}


@pytest.mark.parametrize("regime", sorted(ENGAGING), ids=sorted(ENGAGING))
def test_fused_bitwise_matches_reference(trefethen_small, regime):
    # A fused sweep: the level executor runs the whole sweep as one level.
    A = trefethen_small
    b = _rhs(A)
    cfg = ENGAGING[regime]
    eng_l, iters_l, probe_l = _run(A, b, dataclasses.replace(cfg, backend="levels"))
    eng_r, iters_r, probe_r = _run(A, b, dataclasses.replace(cfg, backend="reference"))
    assert eng_l.backend == "levels" and eng_r.backend == "reference"
    assert eng_l.decisions() == {"backend": "levels", "levels_mean": 1.0}
    for t, (xl, xr) in enumerate(zip(iters_l, iters_r)):
        assert np.array_equal(xl, xr), f"backends diverged at sweep {t + 1}"
    assert np.array_equal(probe_l, probe_r), "generator states diverged"


@pytest.mark.parametrize("regime", sorted(ENGAGING), ids=sorted(ENGAGING))
def test_auto_engages_fused(small_spd, regime):
    # 107 column offsets: the stencil gate refuses the matrix, so auto's
    # whole sweeps run on the level executor, one level each.
    eng, _, _ = _run(small_spd, _rhs(small_spd), ENGAGING[regime], sweeps=2)
    assert eng.decisions() == {"backend": "levels", "levels_mean": 1.0}


@pytest.mark.parametrize("regime", sorted(ENGAGING), ids=sorted(ENGAGING))
def test_stencil_bitwise_matches_reference_on_trefethen(trefethen_small, regime):
    # Trefethen's power-of-two band passes the offset-plane gate, so auto
    # runs its whole sweeps on the stencil kernels — bit for bit the
    # reference loop's iterates and generator state.
    A = trefethen_small
    b = _rhs(A)
    cfg = ENGAGING[regime]
    eng_a, iters_a, probe_a = _run(A, b, cfg)
    _, iters_r, probe_r = _run(A, b, dataclasses.replace(cfg, backend="reference"))
    assert eng_a.backend == "stencil"
    for t, (xa, xr) in enumerate(zip(iters_a, iters_r)):
        assert np.array_equal(xa.view(np.int64), xr.view(np.int64)), f"diverged at sweep {t + 1}"
    assert np.array_equal(probe_a.view(np.int64), probe_r.view(np.int64)), "generator states diverged"


@pytest.mark.parametrize("regime", sorted(NON_ENGAGING), ids=sorted(NON_ENGAGING))
def test_auto_falls_back_to_reference(trefethen_small, regime):
    # Outside the whole-sweep regimes auto runs the block loop — as
    # dependency levels; the per-block loop is only ever forced.
    eng, _, _ = _run(trefethen_small, _rhs(trefethen_small), NON_ENGAGING[regime], sweeps=1)
    assert eng.backend == "levels"


@pytest.mark.parametrize("regime", sorted(NON_ENGAGING), ids=sorted(NON_ENGAGING))
def test_forced_fused_refuses_inexact_regime(trefethen_small, regime):
    # The forced whole-sweep backend is the stencil one (Trefethen passes
    # its gate); it refuses where a whole sweep would change the iterates.
    cfg = dataclasses.replace(NON_ENGAGING[regime], backend="stencil")
    view = BlockRowView(trefethen_small, block_size=cfg.block_size)
    with pytest.raises(ValueError, match="not exact"):
        AsyncEngine(view, _rhs(trefethen_small), cfg)


@pytest.mark.parametrize("regime", sorted(NON_ENGAGING), ids=sorted(NON_ENGAGING))
def test_forced_levels_runs_inexact_regime(trefethen_small, regime):
    # Forced levels runs every regime, as dependency levels where a whole
    # sweep would not be exact.
    A = trefethen_small
    b = _rhs(A)
    cfg = NON_ENGAGING[regime]
    eng_l, iters_l, probe_l = _run(A, b, dataclasses.replace(cfg, backend="levels"), sweeps=2)
    _, iters_r, probe_r = _run(A, b, dataclasses.replace(cfg, backend="reference"), sweeps=2)
    assert eng_l.backend == "levels" and not eng_l._executor.whole
    for xl, xr in zip(iters_l, iters_r):
        assert np.array_equal(xl, xr)
    assert np.array_equal(probe_l, probe_r)


def test_forced_reference_honoured_in_engaging_regime(trefethen_small):
    cfg = dataclasses.replace(ENGAGING["synchronous-k1"], backend="reference")
    eng, _, _ = _run(trefethen_small, _rhs(trefethen_small), cfg, sweeps=1)
    assert eng.backend == "reference"


def test_fault_forces_reference(trefethen_small):
    # Faulty components need the per-block loop's freeze/corrupt logic
    # even in an otherwise whole-sweep-exact regime.
    fault = FaultScenario(fraction=0.2, t0=1, recovery=None, seed=3)
    cfg = ENGAGING["synchronous-k1"]
    eng, _, _ = _run(trefethen_small, _rhs(trefethen_small), cfg, sweeps=2, fault=fault)
    assert eng.backend == "reference"
    view = BlockRowView(trefethen_small, block_size=cfg.block_size)
    with pytest.raises(ValueError, match="fault"):
        AsyncEngine(
            view,
            _rhs(trefethen_small),
            dataclasses.replace(cfg, backend="levels"),
            fault=fault,
        )


def test_config_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        AsyncConfig(backend="turbo")
    for name in BACKENDS:
        AsyncConfig(backend=name)


def test_negative_zero_rhs_disables_mixed_gamma_fusion(small_spd):
    # The segment-sum scatter flips a -0.0 base to +0.0; with a rhs
    # carrying -0.0 entries the mixed-γ all-deferred collapse is no longer
    # bitwise, so the level executor runs its general levels there —
    # while the γ-uniform all-deferred regime stays whole (no race
    # corrections at all).
    b = _rhs(small_spd)
    b[5] = -0.0
    assert not rhs_preserves_fold(b)
    assert rhs_preserves_fold(np.abs(b) + 1.0)
    mixed = ENGAGING["alldefer-mixed-k2"]
    eng, _, _ = _run(small_spd, b, mixed, sweeps=1)
    assert eng.backend == "levels" and not eng._executor.whole
    live = ENGAGING["alldefer-live-k1"]
    eng, _, _ = _run(small_spd, b, live, sweeps=1)
    assert eng.backend == "levels" and eng._executor.whole


# --------------------------------------------------------------------- #
# plan compilation and reuse
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["levels", "reference"])
def test_ell_plans_built_once_across_sweeps(trefethen_small, backend):
    # Satellite: gather plans are compiled once per block at engine
    # construction and reused by every subsequent sweep.
    cfg = AsyncConfig(
        order="gpu", stale_read_prob=1.0, local_iterations=2, block_size=32,
        backend=backend,
    )
    view = BlockRowView(trefethen_small, block_size=cfg.block_size)
    engine = AsyncEngine(view, _rhs(trefethen_small), cfg)
    x = np.zeros(trefethen_small.shape[0])
    engine.sweep(x)
    built_after_first = engine.plan.ell_plans_built
    assert built_after_first > 0
    for _ in range(3):
        engine.sweep(x)
    assert engine.plan.ell_plans_built == built_after_first
    if backend == "reference":
        for blk, lc in zip(view.blocks, engine.plan.local_c):
            assert blk.external._ell_builds == 1
            assert lc._ell_builds == 1
        # Nothing of the other backends: no stencil detection, no stacked
        # whole-system matrices, no padded-ELL panels of the level loop.
        assert not engine.plan.stencil_attempted
        assert view._ext_matrix is None and view._local_matrix is None
        assert engine.plan._padded is None
    else:
        assert engine.plan.external._ell_builds == 1
        # ... and no per-block ELL plans of the reference loop.
        assert engine.plan._local_c is None
        assert all(blk.external._ell_builds == 0 for blk in view.blocks)


def test_sweep_plan_shared_across_engines(trefethen_small):
    # One view, many engines (sequential reruns, preconditioner-internal
    # engines): all of them must reuse the same compiled plan object.
    view = BlockRowView(trefethen_small, block_size=32)
    b = _rhs(trefethen_small)
    e1 = AsyncEngine(view, b, AsyncConfig(order="synchronous", block_size=32))
    e2 = AsyncEngine(view, b, AsyncConfig(order="gpu", block_size=32))
    assert e1.plan is e2.plan
    assert compile_sweep_plan(view) is e1.plan
