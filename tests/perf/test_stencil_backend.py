"""The stencil backend: bitwise equivalence and dispatch rules.

The stencil path is an execution strategy, never an approximation:
wherever it may run, its iterates — and the scheduler RNG state it
leaves behind — are bitwise the reference loop's.  These tests pin that
contract across the whole-sweep-exact regimes, the auto preference
order (stencil > levels > reference), the refusal semantics of a forced
``backend="stencil"``, the batched stacked variant, and the telemetry
trail that makes every dispatch decision explainable.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import AsyncConfig, AsyncEngine, BatchedAsyncEngine
from repro.matrices import get_matrix
from repro.matrices.grids import stencil_laplacian_2d
from repro.matrices.grids3d import stencil_laplacian_3d
from repro.perf import compile_sweep_plan
from repro.solvers import StoppingCriterion
from repro.sparse import BlockRowView
from tests.conftest import TILE_IDS, TILE_ROWS, tiled


@pytest.fixture(scope="module")
def lap3d():
    """10^3 7-point Laplacian (n=1000) — small enough for k=5 regimes."""
    return stencil_laplacian_3d(10)


def _rhs(A):
    return np.random.default_rng(2).standard_normal(A.shape[0])


def _run(A, b, config, *, sweeps=3, seed=0):
    view = BlockRowView(A, block_size=config.block_size)
    engine = AsyncEngine(view, b, dataclasses.replace(config, seed=seed))
    x = np.zeros(A.shape[0])
    iterates = []
    for _ in range(sweeps):
        engine.sweep(x)
        iterates.append(x.copy())
    # Equal post-run draws == equal generator state: the stencil path must
    # consume exactly the doubles the reference loop would have.
    probe = engine.rng.random(8)
    return engine, iterates, probe


def _history(A, b, config, *, sweeps=4, seed=0):
    """Residual history of a solve driven through ``AsyncEngine.run``."""
    view = BlockRowView(A, block_size=config.block_size)
    engine = AsyncEngine(view, b, dataclasses.replace(config, seed=seed))
    return engine.run(stopping=StoppingCriterion(tol=0.0, maxiter=sweeps)).residuals


#: Whole-sweep-exact regimes (the ones tests/core/test_backends.py pins),
#: spanning order, k, omega and deferred writes.
ENGAGING = {
    "synchronous-k1": AsyncConfig(order="synchronous", local_iterations=1, block_size=32),
    "synchronous-k5-omega": AsyncConfig(
        order="synchronous", local_iterations=5, omega=0.8, block_size=32
    ),
    "snapshot-gpu-k1": AsyncConfig(
        order="gpu", stale_read_prob=1.0, local_iterations=1, block_size=32
    ),
    "snapshot-random-k2-omega": AsyncConfig(
        order="random", stale_read_prob=1.0, local_iterations=2, omega=0.9, block_size=32
    ),
    "alldefer-mixed-k2": AsyncConfig(
        order="gpu", deferred_write_prob=1.0, local_iterations=2, block_size=32
    ),
    "alldefer-omega-k3": AsyncConfig(
        order="gpu", deferred_write_prob=1.0, local_iterations=3, omega=0.85,
        block_size=32,
    ),
}


@pytest.mark.parametrize("regime, tile", tiled(sorted(ENGAGING)), indirect=["tile"])
def test_stencil_bitwise_matches_reference(lap3d, regime, tile):
    b = _rhs(lap3d)
    cfg = ENGAGING[regime]
    eng_s, iters_s, probe_s = _run(lap3d, b, dataclasses.replace(cfg, backend="stencil"))
    eng_r, iters_r, probe_r = _run(lap3d, b, dataclasses.replace(cfg, backend="reference"))
    assert eng_s.backend == "stencil"
    assert eng_r.backend == "reference"
    for t, (xs, xr) in enumerate(zip(iters_s, iters_r)):
        assert np.array_equal(xs, xr), f"backends diverged at sweep {t + 1}"
    assert np.array_equal(probe_s, probe_r), "generator states diverged"
    hist_s = _history(lap3d, b, dataclasses.replace(cfg, backend="stencil"))
    hist_r = _history(lap3d, b, dataclasses.replace(cfg, backend="reference"))
    assert len(hist_s) == 5
    assert np.array_equal(hist_s, hist_r), "solve residual histories diverged"


@pytest.mark.parametrize("regime", sorted(ENGAGING), ids=sorted(ENGAGING))
def test_auto_prefers_stencil_on_grids(lap3d, regime):
    eng, _, _ = _run(lap3d, _rhs(lap3d), ENGAGING[regime], sweeps=1)
    assert eng.backend == "stencil"


def test_auto_still_fuses_irregular_matrices(small_spd):
    # The offset-plane gate refuses these; auto runs their whole sweeps
    # on the level executor, one level each, not on the per-block loop.
    for A in (small_spd, get_matrix("Chem97ZtZ"), get_matrix("s1rmt3m1")):
        eng, _, _ = _run(A, _rhs(A), ENGAGING["snapshot-gpu-k1"], sweeps=1)
        assert eng.decisions() == {"backend": "levels", "levels_mean": 1.0}


def test_forced_stencil_refuses_inexact_regime(lap3d):
    # Live-read gpu order: whole-sweep execution would change iterates.
    cfg = AsyncConfig(order="gpu", local_iterations=2, block_size=32, backend="stencil")
    view = BlockRowView(lap3d, block_size=cfg.block_size)
    with pytest.raises(ValueError, match="not.*exact"):
        AsyncEngine(view, _rhs(lap3d), cfg)


def test_forced_stencil_refuses_irregular_matrix():
    A = get_matrix("Chem97ZtZ")
    cfg = dataclasses.replace(ENGAGING["snapshot-gpu-k1"], backend="stencil")
    view = BlockRowView(A, block_size=cfg.block_size)
    with pytest.raises(ValueError, match="stencil gate refused .* distinct offsets"):
        AsyncEngine(view, _rhs(A), cfg)


@pytest.mark.parametrize("tile", TILE_ROWS, ids=TILE_IDS, indirect=True)
def test_one_row_blocks_bitwise(tile):
    # Degenerate decomposition: every block is one row, every coupling is
    # external.  The stencil executor must still match the per-block loop;
    # with no local planes, each tile must still zero its accumulator.
    A = stencil_laplacian_2d(16)
    b = _rhs(A)
    cfg = AsyncConfig(order="gpu", stale_read_prob=1.0, local_iterations=2, block_size=1)
    eng_s, iters_s, probe_s = _run(A, b, dataclasses.replace(cfg, backend="stencil"))
    _, iters_r, probe_r = _run(A, b, dataclasses.replace(cfg, backend="reference"))
    assert eng_s.backend == "stencil"
    for xs, xr in zip(iters_s, iters_r):
        assert np.array_equal(xs, xr)
    assert np.array_equal(probe_s, probe_r)


@pytest.mark.parametrize("stencil, tile", tiled(["19pt", "27pt"]), indirect=["tile"])
def test_wide_stencils_bitwise(stencil, tile):
    A = stencil_laplacian_3d(12, stencil=stencil)
    b = _rhs(A)
    cfg = ENGAGING["snapshot-gpu-k1"]
    eng_s, iters_s, _ = _run(A, b, cfg, sweeps=2)
    _, iters_r, _ = _run(A, b, dataclasses.replace(cfg, backend="reference"), sweeps=2)
    assert eng_s.backend == "stencil"
    for xs, xr in zip(iters_s, iters_r):
        assert np.array_equal(xs, xr)


@pytest.mark.parametrize("tile", TILE_ROWS, ids=TILE_IDS, indirect=True)
def test_batched_stacked_variant_bitwise(lap3d, tile):
    # The batched engine runs the weight planes over an (R, n) stack; each
    # replica must reproduce the sequential engine for seed0 + r, bit for
    # bit, exactly like the level executor's one-level sweeps.
    b = _rhs(lap3d)
    cfg = ENGAGING["alldefer-mixed-k2"]
    nreplicas, sweeps, seed0 = 3, 3, 5
    view = BlockRowView(lap3d, block_size=cfg.block_size)
    engine = BatchedAsyncEngine(view, b, cfg, nreplicas, seed0=seed0)
    assert engine.backend == "stencil"
    X = np.zeros((nreplicas, lap3d.shape[0]))
    stacked = []
    for _ in range(sweeps):
        engine.sweep(X)
        stacked.append(X.copy())
    for r in range(nreplicas):
        _, seq, _ = _run(lap3d, b, cfg, sweeps=sweeps, seed=seed0 + r)
        for t in range(sweeps):
            assert np.array_equal(stacked[t][r], seq[t]), (
                f"replica {r} diverged at sweep {t + 1}"
            )


def test_telemetry_records_detection_outcome(lap3d, small_spd):
    cfg = ENGAGING["snapshot-gpu-k1"]
    eng, _, _ = _run(lap3d, _rhs(lap3d), cfg, sweeps=1)
    blob = eng.view.partition_telemetry()["stencil"]
    # Plane modes ride along: a 10-row grid line puts ±1 holes at 10% of
    # rows, over the constant cut-off, and 32-row blocks cut more.
    assert blob == {
        "detected": True,
        "offsets": [-100, -10, -1, 0, 1, 10, 100],
        "fill": lap3d.nnz / (7 * 1000),
        "residual": {
            "planes": 7,
            "constant": 3,
            "gather": 0,
            "deviation": {
                "-100": 0.0, "-10": 0.0909, "-1": 0.0991, "0": 0.0,
                "1": 0.0991, "10": 0.0909, "100": 0.0,
            },
        },
        "sweep": {
            "external": {
                "planes": 6,
                "constant": 2,
                "gather": 2,
                "deviation": {"-100": 0.0, "-10": 0.2851, "10": 0.2851, "100": 0.0},
            },
            "local": {
                "planes": 4,
                "constant": 0,
                "gather": 0,
                "deviation": {"-10": 0.3646, "-1": 0.1241, "1": 0.1241, "10": 0.3646},
            },
        },
    }
    eng, _, _ = _run(small_spd, _rhs(small_spd), cfg, sweeps=1)
    blob = eng.view.partition_telemetry()["stencil"]
    assert blob["detected"] is False and "distinct offsets" in blob["reason"]


def test_detection_not_forced_without_stencil_dispatch(lap3d):
    # A view whose engines never considered stencil dispatch reports plain
    # partition telemetry: detection is lazy, paid only when consulted.
    view = BlockRowView(lap3d, block_size=32)
    plan = compile_sweep_plan(view)
    assert not plan.stencil_attempted
    assert "stencil" not in view.partition_telemetry()
    plan.stencil  # first consult runs the detector
    assert plan.stencil_attempted
    assert view.partition_telemetry()["stencil"]["detected"] is True


def test_stencil_kernels_compiled_once(lap3d):
    view = BlockRowView(lap3d, block_size=32)
    plan = compile_sweep_plan(view)
    k1 = plan.stencil_kernels()
    assert plan.stencil_kernels() is k1
    ext, loc = k1.n_diagonals
    assert ext > 0 and loc > 0
