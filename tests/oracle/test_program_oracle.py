"""Level programs against the per-block loop, over random systems and orders.

A :class:`repro.perf.program.LevelProgram` runs a straight-line sequence
of live block updates — any number of sweeps, each in any block order —
as dependency levels that cross sweep boundaries, every product one call
of the compiled panel kernel.  Whatever the system, the orders, *k*, ω
and the partition's shape, its result must be bitwise the same orders run
one sweep at a time through an engine forced onto the per-block
``reference`` loop.  The systems fail the offset-plane gate; the
partitions are uniform, all 1-row blocks, or 1-row and ordinary blocks
beside one several times their height, so slots pad; right-hand sides
and nonzero starting iterates hold ``-0.0`` entries.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import AsyncConfig, AsyncEngine
from repro.partition import Partition
from repro.perf import compile_sweep_plan
from repro.perf.program import LevelProgram
from repro.sparse import BlockRowView, CSRMatrix


def _system(seed: int, n: int, density: float) -> CSRMatrix:
    """A random sparse, strictly diagonally dominant system (fails the plane gate)."""
    gen = np.random.default_rng(seed)
    dense = gen.standard_normal((n, n)) * (gen.random((n, n)) < density)
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return CSRMatrix.from_dense(dense)


def _partition(n: int, layout: str, block_size: int, gen) -> Partition:
    """Uniform blocks, 1-row blocks, or 1-row and ordinary blocks beside an outsized one."""
    if layout == "uniform":
        sizes = [block_size] * (n // block_size) + ([n % block_size] if n % block_size else [])
    elif layout == "rows":
        sizes = [1] * n
    else:
        sizes, total = [4 * block_size], 4 * block_size
        while total < n:
            sizes.append(int(gen.choice([1, block_size])))
            total += sizes[-1]
        sizes[-1] -= total - n
        gen.shuffle(sizes)
    return Partition(np.concatenate([[0], np.cumsum(sizes)]))


def _with_negative_zeros(v: np.ndarray, gen) -> np.ndarray:
    v[gen.random(len(v)) < 0.25] = -0.0
    return v


def _reference(view, orders, b, x, k, omega):
    """The orders run sweep by sweep on the forced per-block loop, live reads only."""
    config = AsyncConfig(
        order="sequential", stale_read_prob=0.0, local_iterations=k, omega=omega, backend="reference"
    )
    engine = AsyncEngine(view, b, config)
    assert engine.backend == "reference"
    assert np.all(engine.scheduler.gamma_profile() >= 1.0)
    for order in orders:
        engine.scheduler.order_for_sweep = lambda sweep, rng, order=order: order
        engine.sweep(x)
    return x


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(8, 48),
    density=st.sampled_from([0.08, 0.2, 0.4]),
    layout=st.sampled_from(["uniform", "rows", "outsized"]),
    block_size=st.sampled_from([2, 3, 8]),
    sweeps=st.integers(1, 4),
    k=st.sampled_from([1, 2, 5]),
    omega=st.sampled_from([1.0, 0.7]),
    zero_start=st.booleans(),
)
def test_program_matches_reference_sweeps(seed, n, density, layout, block_size, sweeps, k, omega, zero_start):
    gen = np.random.default_rng(seed)
    A = _system(seed, n, density)
    view = BlockRowView(A, partition=_partition(n, layout, block_size, gen))
    plan = compile_sweep_plan(view)
    # A sparse enough system passes the plane gate and would run stencil.
    assume(plan.stencil[0] is None)
    assert plan.block_panels is not None
    orders = [gen.permutation(view.nblocks) for _ in range(sweeps)]
    b = _with_negative_zeros(gen.standard_normal(n), gen)
    # A preconditioner application starts from zero.
    x0 = np.zeros(n) if zero_start else _with_negative_zeros(gen.standard_normal(n), gen)

    program = LevelProgram(plan, orders, k, omega)
    got = program.run(x0.copy(), b)
    want = _reference(view, orders, b, x0.copy(), k, omega)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # A second run on the same program (its buffers reused) repeats the result.
    assert np.array_equal(program.run(x0.copy(), b).view(np.int64), got.view(np.int64))
