"""Tests for the synchronous block-Jacobi / two-stage solvers."""

import numpy as np
import pytest

from repro.core import AsyncConfig, BlockAsyncSolver
from repro.solvers import BlockJacobiSolver, JacobiSolver, StoppingCriterion


def test_block_size_one_is_point_jacobi(small_spd):
    b = small_spd.matvec(np.ones(60))
    stop = StoppingCriterion(tol=0.0, maxiter=6)
    bj = BlockJacobiSolver(block_size=1, inner="exact", stopping=stop).solve(small_spd, b)
    pj = JacobiSolver(stopping=stop).solve(small_spd, b)
    assert np.allclose(bj.x, pj.x, atol=1e-12)


def test_single_block_is_direct_solve(small_spd):
    b = small_spd.matvec(np.linspace(0, 1, 60))
    r = BlockJacobiSolver(block_size=60, inner="exact", stopping=StoppingCriterion(tol=1e-12, maxiter=3)).solve(
        small_spd, b
    )
    assert r.converged
    assert r.iterations == 1  # one exact solve of the whole system


def test_exact_beats_point_jacobi(small_spd):
    b = small_spd.matvec(np.ones(60))
    stop = StoppingCriterion(tol=1e-11, maxiter=2000)
    it_block = BlockJacobiSolver(block_size=15, inner="exact", stopping=stop).solve(small_spd, b).iterations
    it_point = JacobiSolver(stopping=stop).solve(small_spd, b).iterations
    assert it_block < it_point


def test_two_stage_matches_synchronous_async(small_spd):
    # Two-stage(q) == async-(q) with the synchronous schedule, exactly:
    # both run one engine's whole sweeps (small_spd fails the plane gate,
    # so one level per sweep on the level executor).
    b = small_spd.matvec(np.ones(60))
    stop = StoppingCriterion(tol=0.0, maxiter=7)
    ts = BlockJacobiSolver(block_size=10, inner="jacobi", inner_sweeps=3, stopping=stop).solve(
        small_spd, b
    )
    ba = BlockAsyncSolver(
        AsyncConfig(local_iterations=3, block_size=10, order="synchronous"), stopping=stop
    ).solve(small_spd, b)
    assert np.array_equal(ts.x, ba.x)
    assert np.array_equal(ts.residuals, ba.residuals)
    assert ba.info["backend"] == "levels" and ba.info["levels_mean"] == 1.0


def test_more_inner_sweeps_approach_exact(small_spd):
    b = small_spd.matvec(np.ones(60))
    stop = StoppingCriterion(tol=1e-11, maxiter=2000)
    it_exact = BlockJacobiSolver(block_size=15, inner="exact", stopping=stop).solve(small_spd, b).iterations
    iters = {}
    for q in (1, 4, 16):
        iters[q] = BlockJacobiSolver(
            block_size=15, inner="jacobi", inner_sweeps=q, stopping=stop
        ).solve(small_spd, b).iterations
    assert iters[1] >= iters[4] >= iters[16] >= it_exact


def test_converges_to_solution(small_spd):
    x_star = np.sin(np.arange(60.0))
    b = small_spd.matvec(x_star)
    r = BlockJacobiSolver(block_size=13, stopping=StoppingCriterion(tol=1e-13, maxiter=500)).solve(
        small_spd, b
    )
    assert r.converged
    assert np.allclose(r.x, x_star, atol=1e-8)


def test_names():
    assert "block-jacobi" in BlockJacobiSolver(block_size=32).name
    assert "two-stage" in BlockJacobiSolver(block_size=32, inner="jacobi").name


def test_validation():
    with pytest.raises(ValueError, match="inner"):
        BlockJacobiSolver(inner="gs")
    with pytest.raises(ValueError, match="block_size"):
        BlockJacobiSolver(block_size=0)
    with pytest.raises(ValueError, match="inner_sweeps"):
        BlockJacobiSolver(inner="jacobi", inner_sweeps=0)


def test_overlapped_partition_refused(trefethen_small):
    # Block-Jacobi solves disjoint blocks: an +oK suffix would run them
    # unchanged under the same name.
    b = trefethen_small.matvec(np.ones(300))
    solver = BlockJacobiSolver(block_size=32, partition="uniform:32+o8")
    with pytest.raises(ValueError, match="overlap belongs to the async solve"):
        solver.solve(trefethen_small, b)
