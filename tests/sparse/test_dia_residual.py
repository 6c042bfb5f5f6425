"""The diagonal-offset residual plan of :meth:`CSRMatrix.residual`.

Matrices with a few, well-filled column offsets evaluate ``b - A @ x``
on per-offset weight planes; the result must equal the ELL product
``b - A.matvec(x)`` under ``np.array_equal`` for finite operands, and
every other matrix must stay on the ELL path.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import AsyncConfig, AsyncEngine, BlockAsyncSolver
from repro.matrices import get_matrix, stencil_laplacian_3d
from repro.solvers import StoppingCriterion
from repro.sparse import BlockRowView, CSRMatrix
from repro.sparse.dia import MAX_OFFSETS
from tests.conftest import tiled

PLANE_MATRICES = [
    "lap3d7pt_32",
    "lap3d19pt_32",
    "lap3d27pt_24",
    "lap3d7pt_aniso_32",
    "fv1",
    "fv3",
    "Trefethen_2000",
]


def test_plane_rows_fit_the_ell_panels():
    # Equality relies on the ELL side summing every accepted row left to
    # right, i.e. on no accepted row being wide enough for reduceat.
    assert MAX_OFFSETS <= CSRMatrix._ELL_MAX_WIDTH


@pytest.mark.parametrize("name, tile", tiled(PLANE_MATRICES), indirect=["tile"])
def test_plane_residual_equals_ell(name, tile):
    A = get_matrix(name)
    n = A.shape[0]
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n)
    X = rng.standard_normal((3, n))
    b = rng.standard_normal(n)
    B = rng.standard_normal((3, n))

    assert np.array_equal(A.residual(x, b), b - A.matvec(x))
    assert A._dia_builds == 1, "matrix should take the diagonal plan"
    # (R, n) operand against a shared and a per-replica right-hand side.
    assert np.array_equal(A.residual(X, b), b - A.matvec(X))
    assert np.array_equal(A.residual(X, B), B - A.matvec(X))
    # out= is overwritten and returned.
    out = np.full(n, np.nan)
    assert A.residual(x, b, out=out) is out
    assert np.array_equal(out, b - A.matvec(x))
    out2 = np.full((3, n), np.nan)
    assert A.residual(X, B, out=out2) is out2
    assert np.array_equal(out2, B - A.matvec(X))
    assert A._dia_builds == 1, "the plan is built once and cached"


def test_residual_keeps_validation():
    A = stencil_laplacian_3d(6)
    b = np.ones(A.shape[0])
    with pytest.raises(ValueError, match="shape"):
        A.residual(np.ones(A.shape[0] + 1), b)
    with pytest.raises(ValueError, match="1-D or 2-D"):
        A.residual(np.ones((1, 1, A.shape[0])), b)


@pytest.mark.parametrize("tile", [None, 37], ids=["default", "tile37"], indirect=True)
def test_plane_residual_is_reentrant(tile):
    # Threads share one matrix (threaded solver, serve): concurrent calls,
    # the first of which builds the plan, must each get their own result —
    # across every tile, which is what the per-call scratch guards.
    A = stencil_laplacian_3d(16)
    n = A.shape[0]
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((6, n))
    b = rng.standard_normal(n)
    expected = [b - A.matvec(x) for x in xs]
    mismatches = []

    def worker(t):
        for _ in range(30):
            if not np.array_equal(A.residual(xs[t], b), expected[t]):
                mismatches.append(t)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(len(xs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert mismatches == []
    assert A._dia is not None and A._dia is not False


def test_over_offset_cap_keeps_ell_path():
    # A banded matrix with MAX_OFFSETS + 1 fully filled offsets: dense fill,
    # but one offset too many for the plane layout.
    n, half = 200, (MAX_OFFSETS + 1) // 2
    dense = np.zeros((n, n))
    for o in range(-half, half + 1):
        idx = np.arange(max(0, -o), min(n, n - o))
        dense[idx, idx + o] = 1.0 + 0.01 * o
    np.fill_diagonal(dense, 40.0)
    A = CSRMatrix.from_dense(dense)
    assert len(np.unique(A.indices - A._expanded_rows())) == MAX_OFFSETS + 1
    x = np.random.default_rng(0).standard_normal(n)
    b = np.ones(n)
    assert np.allclose(A.residual(x, b), b - dense @ x)
    assert A._dia_builds == 0 and A._dia is False
    assert A._ell_builds == 1


@pytest.mark.parametrize("name", ["s1rmt3m1", "Chem97ZtZ"])
def test_gate_rejected_suite_matrices_keep_ell_path(name):
    A = get_matrix(name, cache=False)
    x = np.random.default_rng(1).standard_normal(A.shape[0])
    b = np.ones(A.shape[0])
    assert np.array_equal(A.residual(x, b), b - A.matvec(x))
    assert A._dia_builds == 0


def test_stencil_solve_builds_plane_once_and_no_ell():
    # An rhs drawn independently of A (no b = A @ x_true product), so the
    # only whole-matrix products in the solve are its residuals.
    A = stencil_laplacian_3d(12)
    b = np.random.default_rng(4).standard_normal(A.shape[0])
    cfg = AsyncConfig(
        order="gpu", stale_read_prob=1.0, local_iterations=2, block_size=64, backend="stencil"
    )
    result = BlockAsyncSolver(cfg, stopping=StoppingCriterion(tol=0.0, maxiter=6)).solve(A, b)
    assert len(result.residuals) == 7
    assert A._dia_builds == 1
    assert A._ell_builds == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_iterate_gives_non_finite_norm(bad):
    A = stencil_laplacian_3d(8)
    n = A.shape[0]
    b = np.ones(n)
    for pos in (0, n // 2, n - 1):
        x = np.zeros(n)
        x[pos] = bad
        assert not np.isfinite(np.linalg.norm(A.residual(x, b)))
    # A run whose iterate turns non-finite stops as diverged.
    x0 = np.zeros(n)
    x0[n // 3] = bad
    cfg = AsyncConfig(order="gpu", stale_read_prob=1.0, local_iterations=1, block_size=64)
    engine = AsyncEngine(BlockRowView(A, block_size=64), b, cfg)
    result = engine.run(x0, stopping=StoppingCriterion(maxiter=20))
    assert result.info["diverged"] and not result.converged
