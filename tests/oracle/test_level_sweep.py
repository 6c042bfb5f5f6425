"""The level executor's mixed-γ path against the per-block loop, over random systems.

Where a block reads some of its neighbours' current-sweep writes — the
``gpu`` and ``random`` orders' per-entry races, or the live pipeline tail
of a ``sequential`` order with a ``concurrency`` cap — ``backend="auto"``
runs the block loop as dependency levels.  The systems here fail the
offset-plane gate, so after every sweep ``auto``'s iterates and every
lane's generator state must be bitwise those of the forced per-block
``reference`` loop.  The configurations cover deferred writes (none, some,
all), relaxation, several local iterations, block slots that pad (1-row
and outsized blocks), uneven partitions, and one to three lanes sharing a
right-hand side or each with its own, with ``-0.0`` entries, their levels
run whole or cut into lane groups of a few rows.
"""

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AsyncConfig, BatchedAsyncEngine
from repro.partition import Partition, make_partition
from repro.perf import compile_sweep_plan
from repro.sparse import BlockRowView, CSRMatrix

#: The mixed-γ orders: races everywhere, or a live tail behind resident blocks.
ORDERS = {
    "gpu": dict(order="gpu"),
    "random": dict(order="random"),
    "sequential-tail": dict(order="sequential", concurrency=3),
}


def _system(seed: int, n: int, density: float) -> CSRMatrix:
    """A random sparse, strictly diagonally dominant system (fails the plane gate)."""
    gen = np.random.default_rng(seed)
    dense = gen.standard_normal((n, n)) * (gen.random((n, n)) < density)
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return CSRMatrix.from_dense(dense)


def _partition(A, layout: str, block_size: int, seed: int) -> Partition:
    """A uniform or work-balanced cut, or explicit blocks that pad their slots."""
    if layout != "padded":
        return make_partition(A, layout, block_size=block_size)
    # 1-row blocks beside ordinary ones and one block several times their height.
    n = A.shape[0]
    gen = np.random.default_rng(seed)
    sizes, total = [], 0
    while total < n:
        size = int(gen.choice([1, block_size, 4 * block_size]))
        sizes.append(min(size, n - total))
        total += sizes[-1]
    return Partition(np.concatenate([[0], np.cumsum(sizes)]))


def _rhs(n: int, R: int, stacked: bool, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    b = gen.standard_normal((R, n) if stacked else n)
    b[..., ::5] = -0.0
    return b


def _states(engine):
    return [rng.bit_generator.state for rng in engine.rngs]


def assert_lockstep(A, partition, b, config, R, *, group_rows=None, sweeps=3, seed0=7):
    """Sweep auto and forced reference side by side; returns auto's engine.

    *group_rows* overrides the rows per lane group of auto's level executor.
    """
    view = BlockRowView(A, partition=partition)
    auto = BatchedAsyncEngine(view, b, config, R, seed0=seed0)
    if group_rows is not None:
        auto._executor._GROUP_ROWS = group_rows
    ref = BatchedAsyncEngine(view, b, dataclasses.replace(config, backend="reference"), R, seed0=seed0)
    assert ref.backend == "reference"
    X, Y = np.zeros((R, A.shape[0])), np.zeros((R, A.shape[0]))
    for t in range(sweeps):
        auto.sweep(X)
        ref.sweep(Y)
        assert np.array_equal(X.view(np.int64), Y.view(np.int64)), f"iterates diverged at sweep {t + 1}"
        assert _states(auto) == _states(ref), f"generator states diverged at sweep {t + 1}"
    return auto


@settings(max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(12, 60),
    density=st.sampled_from([0.08, 0.2, 0.4]),
    order=st.sampled_from(sorted(ORDERS)),
    stale=st.sampled_from([0.3, 0.9, 0.97]),
    defer=st.sampled_from([0.0, 0.35, 1.0]),
    k=st.sampled_from([1, 2, 5]),
    omega=st.sampled_from([1.0, 0.7]),
    block_size=st.sampled_from([1, 3, 8]),
    layout=st.sampled_from(["uniform", "work_balanced", "padded"]),
    R=st.sampled_from([1, 2, 3]),
    stacked=st.booleans(),
    group_rows=st.sampled_from([None, 1, 7]),
)
def test_auto_level_sweeps_match_reference(
    seed, n, density, order, stale, defer, k, omega, block_size, layout, R, stacked, group_rows
):
    A = _system(seed, n, density)
    partition = _partition(A, layout, block_size, seed)
    config = AsyncConfig(
        local_iterations=k, omega=omega, stale_read_prob=stale, deferred_write_prob=defer,
        **ORDERS[order],
    )
    auto = assert_lockstep(A, partition, _rhs(n, R, stacked, seed + 1), config, R, group_rows=group_rows)
    assert compile_sweep_plan(auto.view).stencil[0] is None
    assert auto.backend == "levels"
