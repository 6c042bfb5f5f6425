"""Whole sweeps against the per-block loop, over random systems and regimes.

Where no block reads another's current-sweep write — snapshot reads, or
every write deferred — ``backend="auto"`` runs each sweep whole: on the
stencil kernels where the matrix passes the offset-plane gate, else as one
level of the level executor.  The systems here fail that gate, so ``auto``
runs the level executor, and after every sweep its iterates and every
lane's generator state must be bitwise those of the forced per-block
``reference`` loop.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AsyncConfig, AsyncEngine, BatchedAsyncEngine
from repro.partition import make_partition
from repro.perf import compile_sweep_plan
from repro.sparse import BlockRowView, CSRMatrix

#: The whole-sweep regimes: snapshot reads (synchronous order, full
#: staleness) and all-deferred writes with mixed and with live γ.
REGIMES = {
    "synchronous": dict(order="synchronous"),
    "stale": dict(order="gpu", stale_read_prob=1.0),
    "alldefer-mixed": dict(order="gpu", deferred_write_prob=1.0),
    "alldefer-live": dict(order="sequential", stale_read_prob=0.0, deferred_write_prob=1.0),
}


def _system(seed: int, n: int, density: float) -> CSRMatrix:
    """A random sparse, strictly diagonally dominant system (fails the plane gate)."""
    gen = np.random.default_rng(seed)
    dense = gen.standard_normal((n, n)) * (gen.random((n, n)) < density)
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return CSRMatrix.from_dense(dense)


def _lanes(A, b, config, R, seed0):
    view = BlockRowView(A, partition=make_partition(A, config.partition, block_size=config.block_size))
    engine = BatchedAsyncEngine(view, b, config, R, seed0=seed0)
    return engine, np.zeros((R, A.shape[0]))


def _states(engine):
    return [rng.bit_generator.state for rng in engine.rngs]


def _assert_lockstep(A, b, config, R, *, seed0=3, sweeps=3):
    """Run auto and forced reference side by side; returns auto's engine."""
    auto, X = _lanes(A, b, config, R, seed0)
    ref, Y = _lanes(A, b, dataclasses.replace(config, backend="reference"), R, seed0)
    for t in range(sweeps):
        auto.sweep(X)
        ref.sweep(Y)
        assert np.array_equal(X.view(np.int64), Y.view(np.int64)), f"iterates diverged at sweep {t + 1}"
        assert _states(auto) == _states(ref), f"generator states diverged at sweep {t + 1}"
    return auto


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(12, 70),
    density=st.sampled_from([0.08, 0.2, 0.4]),
    regime=st.sampled_from(sorted(REGIMES)),
    k=st.sampled_from([1, 2, 5]),
    omega=st.sampled_from([1.0, 0.7]),
    block_size=st.sampled_from([1, 3, 8, 16]),
    # work_balanced cuts uneven blocks: rows off the slot layout's prefix.
    strategy=st.sampled_from(["uniform", "work_balanced"]),
    R=st.sampled_from([1, 2]),
    stacked=st.booleans(),
)
def test_auto_whole_sweeps_match_reference(seed, n, density, regime, k, omega, block_size, strategy, R, stacked):
    A = _system(seed, n, density)
    gen = np.random.default_rng(seed + 1)
    b = gen.standard_normal((R, n) if stacked else n)
    config = AsyncConfig(
        local_iterations=k, omega=omega, block_size=block_size, partition=strategy, **REGIMES[regime]
    )
    auto = _assert_lockstep(A, b, config, R)
    assert compile_sweep_plan(auto.view).stencil[0] is None
    assert auto.decisions() == {"backend": "levels", "levels_mean": 1.0}


@pytest.mark.parametrize("R", [1, 2])
def test_negative_zero_rhs_takes_the_general_level_path(R):
    # With mixed γ and every write deferred, the loop's race corrections
    # are signed zeros, and its fold turns a -0.0 off-block sum into +0.0.
    # Against a -0.0 right-hand side that changes the sign of s = b - ext,
    # so the regime is no whole sweep: the level executor's general path
    # runs and still matches.  Positive couplings make x all -0.0 after
    # one sweep, and every later off-block sum -0.0 before the fold.
    A = _system(11, 40, 0.2)
    A = CSRMatrix(A.indptr, A.indices, np.abs(A.data), A.shape)
    b = -np.zeros(40)
    config = AsyncConfig(local_iterations=2, block_size=4, **REGIMES["alldefer-mixed"])
    auto = _assert_lockstep(A, b, config, R)
    assert auto.backend == "levels" and not auto._executor.whole


def test_rows_wider_than_the_panels_run_the_reference_loop():
    # 69 in-block entries per row of the first block: past the 64-entry
    # panel cap, so auto keeps the per-block loop and forced levels refuses.
    A = _system(4, 90, 1.0)
    b = np.ones(90)
    config = AsyncConfig(order="synchronous", block_size=70)
    view = BlockRowView(A, block_size=70)
    assert AsyncEngine(view, b, config).backend == "reference"
    with pytest.raises(ValueError, match="wider than the level executor's padded panels"):
        AsyncEngine(view, b, dataclasses.replace(config, backend="levels"))


@pytest.mark.parametrize("regime", ["synchronous", "stale"])
@pytest.mark.parametrize("omega", [1.0, 0.7])
def test_empty_local_panels_on_chem97ztz(regime, omega):
    # Chem97ZtZ has no in-block entries at block 32: its local panels are
    # one all-pad lane, whose product the whole sweep subtracts as the
    # constant +0.0 instead of gathering it.  Against a right-hand side
    # with -0.0 entries the result must keep every zero sign.
    from repro.matrices import get_matrix

    A = get_matrix("Chem97ZtZ")
    b = np.random.default_rng(6).standard_normal(A.shape[0])
    b[::7] = -0.0
    config = AsyncConfig(local_iterations=3, omega=omega, block_size=32, **REGIMES[regime])
    auto = _assert_lockstep(A, b, config, 1, sweeps=4)
    assert auto.plan.local_off.nnz == 0
    assert auto.decisions() == {"backend": "levels", "levels_mean": 1.0}
    assert auto._executor._panels[0] is None
