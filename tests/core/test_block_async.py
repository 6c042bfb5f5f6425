"""Tests for the BlockAsyncSolver (async-(k))."""

import numpy as np
import pytest

from repro.core import AsyncConfig, BlockAsyncSolver
from repro.solvers import GaussSeidelSolver, JacobiSolver, StoppingCriterion


def test_name_follows_config():
    assert BlockAsyncSolver(local_iterations=5).name == "async-(5)"
    assert BlockAsyncSolver(AsyncConfig(local_iterations=3)).name == "async-(3)"


@pytest.mark.parametrize("which", ["b", "x0"])
def test_non_finite_input_rejected_before_partitioning(small_spd, which, monkeypatch):
    import repro.core.block_async as block_async

    def no_partition(*args, **kwargs):
        raise AssertionError("partition built for an invalid system")

    monkeypatch.setattr(block_async, "make_partition", no_partition)
    b, x0 = np.ones(60), np.zeros(60)
    (b if which == "b" else x0)[3] = np.nan
    with pytest.raises(ValueError, match=f"^{which} has non-finite"):
        BlockAsyncSolver(block_size=10).solve(small_spd, b, x0)


def test_non_finite_matrix_rejected_before_partitioning(fv1, monkeypatch):
    # One NaN entry used to run maxiter sweeps into a NaN "diverged" result.
    import repro.core.block_async as block_async

    def no_partition(*args, **kwargs):
        raise AssertionError("partition built for an invalid system")

    monkeypatch.setattr(block_async, "make_partition", no_partition)
    A = fv1.copy()
    A.data[1000] = np.nan
    with pytest.raises(ValueError, match="^A has non-finite"):
        BlockAsyncSolver(local_iterations=5).solve(A, np.ones(A.shape[0]))


def test_converges_on_spd(small_spd):
    x_star = np.linspace(-2, 2, 60)
    b = small_spd.matvec(x_star)
    r = BlockAsyncSolver(
        local_iterations=2, block_size=11, seed=1, stopping=StoppingCriterion(tol=1e-13, maxiter=500)
    ).solve(small_spd, b)
    assert r.converged
    assert np.allclose(r.x, x_star, atol=1e-8)


def test_async1_tracks_jacobi_iterations(fv1):
    # Paper Fig. 6: async-(1) converges at (approximately) the Jacobi rate.
    from repro.matrices import default_rhs

    b = default_rhs(fv1)
    stop = StoppingCriterion(tol=1e-10, maxiter=400)
    it_async = BlockAsyncSolver(
        AsyncConfig(local_iterations=1, block_size=128, order="gpu", concurrency=168, seed=2),
        stopping=stop,
    ).solve(fv1, b).iterations
    it_jacobi = JacobiSolver(stopping=stop).solve(fv1, b).iterations
    assert abs(it_async - it_jacobi) <= 0.15 * it_jacobi


def test_async5_beats_gauss_seidel_on_fv1(fv1):
    # Paper Fig. 7: async-(5) at block size 448 roughly halves GS iterations.
    from repro.matrices import default_rhs

    b = default_rhs(fv1)
    stop = StoppingCriterion(tol=1e-10, maxiter=400)
    it_async = BlockAsyncSolver(
        AsyncConfig(local_iterations=5, block_size=448, order="gpu", concurrency=42, seed=2),
        stopping=stop,
    ).solve(fv1, b).iterations
    it_gs = GaussSeidelSolver(stopping=stop).solve(fv1, b).iterations
    assert it_async < it_gs
    assert it_async < 0.75 * it_gs


def test_more_local_iterations_fewer_sweeps(fv1):
    from repro.matrices import default_rhs

    b = default_rhs(fv1)
    stop = StoppingCriterion(tol=1e-10, maxiter=500)
    iters = {}
    for k in (1, 5):
        iters[k] = BlockAsyncSolver(
            AsyncConfig(local_iterations=k, block_size=448, seed=2), stopping=stop
        ).solve(fv1, b).iterations
    assert iters[5] < iters[1]


def test_result_info_fields(small_spd):
    b = small_spd.matvec(np.ones(60))
    r = BlockAsyncSolver(
        local_iterations=2, block_size=10, stopping=StoppingCriterion(tol=0.0, maxiter=5)
    ).solve(small_spd, b)
    assert r.info["nblocks"] == 6
    assert r.info["block_size"] == 10
    assert r.info["local_iterations"] == 2
    assert np.all(r.info["update_counts"] == 5)
    assert 0.0 <= r.info["off_block_fraction"] <= 1.0
    assert r.info["order"] == "gpu"


def test_divergence_on_rho_gt_one():
    from repro.matrices.structural import banded_gram

    A = banded_gram(300, 4, taper_power=1.0, eps=1e-2, seed=5)
    b = A.matvec(np.ones(300))
    r = BlockAsyncSolver(
        local_iterations=2,
        block_size=50,
        stopping=StoppingCriterion(tol=1e-12, maxiter=100, divergence_limit=1e20),
    ).solve(A, b)
    assert not r.converged
    assert r.relative_residuals()[-1] > 1.0


def test_tau_damped_async_converges():
    # The paper's remedy applies to async methods too: omega = tau.
    from repro.matrices.structural import banded_gram
    from repro.solvers import estimate_tau

    A = banded_gram(300, 4, taper_power=1.0, eps=1e-2, seed=5)
    b = A.matvec(np.ones(300))
    tau = estimate_tau(A, steps=100).tau
    r = BlockAsyncSolver(
        AsyncConfig(local_iterations=2, block_size=50, omega=tau, seed=1),
        stopping=StoppingCriterion(tol=1e-9, maxiter=3000),
    ).solve(A, b)
    assert r.converged


def test_reproducible_with_seed(small_spd):
    b = small_spd.matvec(np.ones(60))
    stop = StoppingCriterion(tol=0.0, maxiter=20)
    r1 = BlockAsyncSolver(local_iterations=3, block_size=9, seed=7, stopping=stop).solve(small_spd, b)
    r2 = BlockAsyncSolver(local_iterations=3, block_size=9, seed=7, stopping=stop).solve(small_spd, b)
    assert np.array_equal(r1.x, r2.x)
    assert np.array_equal(r1.residuals, r2.residuals)
