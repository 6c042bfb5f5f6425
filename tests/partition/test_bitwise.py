"""Bitwise guarantees of the partition refactor.

The default ``uniform`` partition must reproduce the pre-refactor flows
byte for byte: same boundary cuts, same RNG stream, same iterates, same
residual histories.  Each test hand-rolls the historical flow — explicit
CUDA-grid boundaries computed inline, driving the engine directly — and
compares it against the partition-threaded path with ``np.array_equal``
(no tolerances).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import BlockAsyncSolver
from repro.core.engine import AsyncEngine
from repro.matrices import default_rhs
from repro.partition import Partition
from repro.solvers import BlockJacobiSolver, StoppingCriterion
from repro.sparse import BlockRowView
from repro.stats import run_ensemble
from repro.experiments.runner import paper_async_config


def _grid_boundaries(n, block_size):
    """The historical CUDA-grid cuts, computed without repro.partition."""
    return np.concatenate([np.arange(0, n, block_size, dtype=np.int64), [n]])


@pytest.mark.parametrize("k,block_size", [(1, 64), (5, 32)])
def test_async_solver_uniform_is_bitwise_the_engine_flow(trefethen_small, k, block_size):
    A = trefethen_small
    b = default_rhs(A)
    cfg = paper_async_config(k, block_size=block_size, seed=3)

    # Pre-refactor flow: explicit grid boundaries + the engine run loop.
    view = BlockRowView(A, boundaries=_grid_boundaries(A.shape[0], block_size))
    baseline = AsyncEngine(view, b, cfg).run(
        stopping=StoppingCriterion(tol=1e-10, maxiter=200)
    )

    # Partition-threaded flow: the solver builds a uniform Partition.
    result = BlockAsyncSolver(
        cfg, stopping=StoppingCriterion(tol=1e-10, maxiter=200)
    ).solve(A, b)

    assert np.array_equal(result.residuals, baseline.residuals)
    assert np.array_equal(result.x, baseline.x)
    assert result.converged == baseline.converged


def test_async_solver_uniform_is_bitwise_on_fv1(fv1):
    A = fv1
    b = default_rhs(A)
    cfg = paper_async_config(5, seed=1)
    stopping = StoppingCriterion(tol=0.0, maxiter=40)
    view = BlockRowView(A, boundaries=_grid_boundaries(A.shape[0], cfg.block_size))
    baseline = AsyncEngine(view, b, cfg).run(stopping=stopping)
    result = BlockAsyncSolver(cfg, stopping=stopping).solve(A, b)
    assert np.array_equal(result.residuals, baseline.residuals)
    assert np.array_equal(result.x, baseline.x)


@pytest.mark.parametrize("inner", ["exact", "jacobi"])
def test_block_jacobi_spec_matches_explicit_boundaries(small_spd, inner):
    A = small_spd
    b = default_rhs(A)
    stopping = StoppingCriterion(tol=1e-12, maxiter=100)
    explicit = Partition(boundaries=_grid_boundaries(A.shape[0], 16))
    via_spec = BlockJacobiSolver(
        block_size=16, inner=inner, stopping=stopping
    ).solve(A, b)
    via_part = BlockJacobiSolver(
        block_size=16, inner=inner, partition=explicit, stopping=stopping
    ).solve(A, b)
    assert np.array_equal(via_spec.residuals, via_part.residuals)
    assert np.array_equal(via_spec.x, via_part.x)


@pytest.mark.parametrize("spec", ["uniform", "work_balanced:8", "rcm:64", "clustered:64"])
def test_ensemble_batched_matches_sequential_for_every_strategy(trefethen_small, spec):
    A = trefethen_small
    b = default_rhs(A)
    cfg = paper_async_config(2, block_size=64, seed=0, partition=spec)
    stopping = StoppingCriterion(tol=0.0, maxiter=20)

    def factory(seed):
        return BlockAsyncSolver(dataclasses.replace(cfg, seed=seed), stopping=stopping)

    batched = run_ensemble(A, b, 4, 20, config=cfg)
    sequential = run_ensemble(A, b, 4, 20, factory=factory)
    for attr in ("mean", "max", "min", "variance"):
        assert np.array_equal(getattr(batched, attr), getattr(sequential, attr))

