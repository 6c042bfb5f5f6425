"""A finished solve leaves no cyclic garbage.

The block view owns its compiled sweep plan, and the plan, its kernels
and the executors are only reachable from the view and the engine.  If
any of them sat on a reference cycle, every solve's decomposition (tens
of MB on a 64³ grid) would stay alive until a full garbage-collection
pass, and peak memory would count several dead plans at once.
"""

import gc

import numpy as np
import pytest

from repro.core import AsyncConfig, BlockAsyncSolver
from repro.krylov import make_outer_solver
from repro.matrices import stencil_laplacian_3d
from repro.solvers import StoppingCriterion


@pytest.fixture(scope="module")
def system():
    A = stencil_laplacian_3d(10)
    return A, np.random.default_rng(0).standard_normal(A.shape[0])


def _async_solve(A, b, backend):
    cfg = AsyncConfig(
        order="gpu", stale_read_prob=1.0, local_iterations=2, block_size=32, backend=backend
    )
    return BlockAsyncSolver(cfg, stopping=StoppingCriterion(maxiter=5)).solve(A, b)


def _pcg_solve(A, b):
    solver = make_outer_solver(
        "pcg", A, precond="async:2", config=AsyncConfig(block_size=32),
        stopping=StoppingCriterion(maxiter=5),
    )
    return solver.solve(A, b)


SOLVES = {
    "stencil": lambda A, b: _async_solve(A, b, "stencil"),
    "reference": lambda A, b: _async_solve(A, b, "reference"),
    "pcg-async2": _pcg_solve,
}


@pytest.mark.parametrize("kind", sorted(SOLVES))
def test_solve_leaves_no_cyclic_garbage(system, kind):
    A, b = system
    solve = SOLVES[kind]
    solve(A, b)  # warm: the matrix's own lazily built plans stay cached on A
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = solve(A, b)
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert np.all(np.isfinite(result.residuals))
    assert garbage == [], f"{len(garbage)} objects on reference cycles: {sorted(set(garbage))}"
