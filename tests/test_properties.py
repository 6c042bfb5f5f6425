"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro._util import as_rng
from repro.core import AsyncConfig, WaveScheduler, check_well_posedness
from repro.partition import partition_rows
from repro.sparse import BlockRowView, COOMatrix, CSRMatrix

common = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #


@st.composite
def coo_matrices(draw, max_dim=12, max_nnz=30):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(arrays(np.int64, nnz, elements=st.integers(0, nrows - 1)))
    cols = draw(arrays(np.int64, nnz, elements=st.integers(0, ncols - 1)))
    vals = draw(
        arrays(
            np.float64,
            nnz,
            elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        )
    )
    return COOMatrix(rows, cols, vals, (nrows, ncols))


@st.composite
def spd_matrices(draw, max_dim=14):
    n = draw(st.integers(2, max_dim))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n))
    dense = (dense + dense.T) / 2
    dense[np.abs(dense) < 0.8] = 0.0
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + rng.random(n) + 0.5)
    return CSRMatrix.from_dense(dense)


# --------------------------------------------------------------------- #
# sparse invariants
# --------------------------------------------------------------------- #


@common
@given(coo_matrices())
def test_coo_csr_roundtrip_preserves_dense(coo):
    dense = coo.to_dense()
    assert np.allclose(coo.tocsr().to_dense(), dense, atol=1e-12)


@common
@given(coo_matrices())
def test_csr_invariants(coo):
    csr = coo.tocsr()
    assert csr.indptr[0] == 0
    assert csr.indptr[-1] == csr.nnz
    assert np.all(np.diff(csr.indptr) >= 0)
    # Sorted, unique columns within each row.
    for i in range(csr.nrows):
        cols = csr.indices[csr.indptr[i] : csr.indptr[i + 1]]
        assert np.all(np.diff(cols) > 0)


@common
@given(coo_matrices(), st.integers(0, 2**31))
def test_matvec_linearity(coo, seed):
    csr = coo.tocsr()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(csr.ncols)
    y = rng.standard_normal(csr.ncols)
    a = float(rng.standard_normal())
    lhs = csr.matvec(x + a * y)
    rhs = csr.matvec(x) + a * csr.matvec(y)
    assert np.allclose(lhs, rhs, atol=1e-9)


@common
@given(coo_matrices())
def test_transpose_involution(coo):
    csr = coo.tocsr()
    assert np.allclose(csr.transpose().transpose().to_dense(), csr.to_dense())


@common
@given(coo_matrices(), st.integers(0, 2**31))
def test_rmatvec_is_transpose_matvec(coo, seed):
    csr = coo.tocsr()
    y = np.random.default_rng(seed).standard_normal(csr.nrows)
    assert np.allclose(csr.rmatvec(y), csr.transpose().matvec(y), atol=1e-9)


@common
@given(st.integers(1, 200), st.integers(1, 50))
def test_partition_rows_covers_exactly(n, block_size):
    b = partition_rows(n, block_size)
    assert b[0] == 0 and b[-1] == n
    assert np.all(np.diff(b) > 0)
    assert np.all(np.diff(b)[:-1] == min(block_size, n))


@common
@given(spd_matrices(), st.integers(1, 14))
def test_block_view_partitions_disjoint_cover(A, block_size):
    view = BlockRowView(A, block_size=min(block_size, A.shape[0]))
    covered = np.concatenate([np.arange(b.start, b.stop) for b in view.blocks])
    assert sorted(covered.tolist()) == list(range(A.shape[0]))
    # Every stored entry lands in exactly one of diag/local/external.
    total = sum(b.local_off.nnz + b.external.nnz + np.count_nonzero(b.diag) for b in view.blocks)
    assert total == A.nnz


@common
@given(spd_matrices(), st.integers(1, 14))
def test_block_view_reassembles(A, block_size):
    view = BlockRowView(A, block_size=min(block_size, A.shape[0]))
    dense = A.to_dense()
    recon = np.zeros_like(dense)
    for blk in view.blocks:
        recon[blk.rows] += blk.local_off.to_dense() + blk.external.to_dense()
        idx = np.arange(blk.start, blk.stop)
        recon[idx, idx] += blk.diag
    assert np.allclose(recon, dense, atol=1e-12)


# --------------------------------------------------------------------- #
# schedule well-posedness (the paper's §2.2 conditions)
# --------------------------------------------------------------------- #


@common
@given(
    st.integers(1, 40),
    st.sampled_from(["synchronous", "sequential", "reversed", "random", "gpu"]),
    st.integers(0, 2**31),
)
def test_every_schedule_is_well_posed(nblocks, order, seed):
    cfg = AsyncConfig(order=order, seed=seed)
    sched = WaveScheduler(nblocks, cfg, as_rng(seed))
    rng = as_rng(seed + 1)
    counts = np.zeros(nblocks, dtype=np.int64)
    sweeps = 6
    for s in range(sweeps):
        o, gamma = sched.plan_for_sweep(s, rng)
        assert sorted(o.tolist()) == list(range(nblocks))  # condition (1)
        assert np.all((gamma >= 0.0) & (gamma <= 1.0))
        counts[o] += 1
    assert check_well_posedness(counts, sweeps, staleness_bound=sched.staleness_bound())


# --------------------------------------------------------------------- #
# convergence invariants
# --------------------------------------------------------------------- #


@common
@given(spd_matrices(), st.integers(1, 4), st.integers(0, 2**31))
def test_async_converges_on_dominant_spd(A, k, seed):
    # Strict diagonal dominance => rho(|B|) < 1 => every schedule converges
    # (Strikwerda / Chazan-Miranker).
    from repro.core import BlockAsyncSolver
    from repro.solvers import StoppingCriterion

    n = A.shape[0]
    b = A.matvec(np.ones(n))
    r = BlockAsyncSolver(
        AsyncConfig(local_iterations=k, block_size=max(1, n // 3), seed=seed),
        stopping=StoppingCriterion(tol=1e-10, maxiter=2000),
    ).solve(A, b)
    assert r.converged
    assert np.allclose(r.x, np.ones(n), atol=1e-6)


@common
@given(spd_matrices(), st.integers(0, 2**31))
def test_jacobi_monotone_error_in_inf_norm(A, seed):
    # For strictly dominant systems, ||B||_inf < 1 bounds the error decay.
    from repro.matrices.analysis import iteration_matrix

    n = A.shape[0]
    x_star = np.random.default_rng(seed).standard_normal(n)
    b = A.matvec(x_star)
    beta = iteration_matrix(A).norm_inf()
    assert beta < 1.0
    x = np.zeros(n)
    d = A.diagonal()
    err = np.abs(x - x_star).max()
    for _ in range(8):
        x = x + (b - A.matvec(x)) / d
        new_err = np.abs(x - x_star).max()
        assert new_err <= beta * err + 1e-12
        err = new_err


@common
@given(spd_matrices())
def test_gershgorin_bounds_spectrum(A):
    from repro.sparse import gershgorin_bounds

    lo, hi = gershgorin_bounds(A)
    lam = np.linalg.eigvalsh(A.to_dense())
    assert lo - 1e-9 <= lam[0] and lam[-1] <= hi + 1e-9


@common
@given(spd_matrices(), st.integers(0, 2**31))
def test_fault_mask_exact_fraction(A, seed):
    from repro.core import FaultScenario

    n = A.shape[0]
    f = FaultScenario(fraction=0.25, seed=seed)
    mask = f.failed_components(n)
    assert mask.sum() == int(round(0.25 * n))


@common
@given(coo_matrices(), st.integers(0, 2**31))
def test_ell_matvec_matches_csr(coo, seed):
    from repro.sparse import ELLMatrix

    csr = coo.tocsr()
    ell = ELLMatrix.from_csr(csr)
    x = np.random.default_rng(seed).standard_normal(csr.ncols)
    assert np.allclose(ell.matvec(x), csr.matvec(x), atol=1e-9)
    assert np.allclose(ell.to_csr().to_dense(), csr.to_dense(), atol=1e-12)


@common
@given(coo_matrices(max_dim=16), st.integers(1, 5), st.integers(0, 2**31))
def test_sell_roundtrip_and_matvec(coo, sigma, seed):
    from repro.sparse import SlicedELLMatrix

    csr = coo.tocsr()
    sell = SlicedELLMatrix.from_csr(csr, slice_height=sigma)
    x = np.random.default_rng(seed).standard_normal(csr.ncols)
    assert np.allclose(sell.matvec(x), csr.matvec(x), atol=1e-9)
    assert sell.nnz == csr.nnz


@common
@given(spd_matrices(), st.integers(1, 10))
def test_cluster_reorder_is_valid_permutation(A, block_size):
    from repro.matrices import cluster_reorder, permute_symmetric

    perm = cluster_reorder(A, block_size)
    assert sorted(perm.tolist()) == list(range(A.shape[0]))
    # Symmetric permutation preserves the spectrum.
    lam_a = np.linalg.eigvalsh(A.to_dense())
    lam_p = np.linalg.eigvalsh(permute_symmetric(A, perm).to_dense())
    assert np.allclose(lam_a, lam_p, atol=1e-9)


@common
@given(spd_matrices(), st.integers(1, 8))
def test_work_partition_valid(A, nblocks):
    from repro.partition import partition_rows_by_work

    nb = min(nblocks, A.shape[0])
    b = partition_rows_by_work(A, nb)
    assert b[0] == 0 and b[-1] == A.shape[0]
    assert np.all(np.diff(b) > 0)


@common
@given(spd_matrices(), st.integers(0, 2**31))
def test_gauss_seidel_energy_monotone(A, seed):
    # For SPD systems the GS error decreases monotonically in the A-norm.
    from repro.solvers import GaussSeidelSolver, StoppingCriterion

    n = A.shape[0]
    x_star = np.random.default_rng(seed).standard_normal(n)
    b = A.matvec(x_star)
    dense = A.to_dense()

    def energy(x):
        e = x - x_star
        return float(e @ (dense @ e))

    solver = GaussSeidelSolver(stopping=StoppingCriterion(tol=0.0, maxiter=1))
    x = np.zeros(n)
    prev = energy(x)
    state = solver._setup(A, b)
    for _ in range(6):
        x = solver._iterate(state, x)
        cur = energy(x)
        assert cur <= prev + 1e-9
        prev = cur


@common
@given(spd_matrices(), st.integers(0, 2**31))
def test_cg_terminates_with_zero_a_norm_error(A, seed):
    # Finite-termination property of CG on SPD systems.
    from repro.solvers import ConjugateGradientSolver, StoppingCriterion

    n = A.shape[0]
    x_star = np.random.default_rng(seed).standard_normal(n)
    b = A.matvec(x_star)
    dense = A.to_dense()

    r = ConjugateGradientSolver(stopping=StoppingCriterion(tol=1e-12, maxiter=n + 2)).solve(A, b)
    # CG minimises the A-norm error over Krylov spaces; after n steps the
    # error is (near) zero in exact arithmetic.
    e = r.x - x_star
    assert float(e @ (dense @ e)) < 1e-8 * max(1.0, float(x_star @ (dense @ x_star)))


@common
@given(st.integers(0, 2**31), st.integers(10, 40))
def test_gmres_solves_random_dominant(seed, n):
    from repro.matrices import random_nonsymmetric
    from repro.solvers import GMRESSolver, StoppingCriterion

    A = random_nonsymmetric(n, density=0.2, dominance=1.5, seed=seed)
    x_star = np.random.default_rng(seed + 1).standard_normal(n)
    b = A.matvec(x_star)
    r = GMRESSolver(restart=min(20, n), stopping=StoppingCriterion(tol=1e-11, maxiter=400)).solve(A, b)
    assert r.converged
    assert np.allclose(r.x, x_star, atol=1e-6)


# --------------------------------------------------------------------- #
# run-loop invariants (repro.runtime)
# --------------------------------------------------------------------- #


def _template_solvers(stopping, **loop_options):
    """One instance of every IterativeSolver driven by the shared RunLoop."""
    from repro.core import BlockAsyncSolver
    from repro.solvers import (
        BlockJacobiSolver,
        ConjugateGradientSolver,
        GaussSeidelSolver,
        GMRESSolver,
        JacobiSolver,
        SORSolver,
        SSORSolver,
    )

    return [
        JacobiSolver(stopping=stopping, **loop_options),
        GaussSeidelSolver(stopping=stopping, **loop_options),
        SORSolver(omega=1.2, stopping=stopping, **loop_options),
        SSORSolver(omega=1.1, stopping=stopping, **loop_options),
        ConjugateGradientSolver(stopping=stopping, **loop_options),
        GMRESSolver(restart=10, stopping=stopping, **loop_options),
        BlockJacobiSolver(block_size=5, stopping=stopping, **loop_options),
        BlockAsyncSolver(
            AsyncConfig(local_iterations=2, block_size=5, seed=1),
            stopping=stopping,
            **loop_options,
        ),
    ]


@common
@given(spd_matrices())
def test_histories_finite_and_monotone_in_recorded_length(A):
    from repro.solvers import StoppingCriterion

    b = A.matvec(np.ones(A.shape[0]))
    stopping = StoppingCriterion(tol=1e-9, maxiter=300)
    for solver in _template_solvers(stopping):
        r = solver.solve(A, b)
        assert len(r.residuals) >= 1
        if r.converged:
            assert np.all(np.isfinite(r.residuals))
        # The recorded trace only ever grows by appending: iteration
        # numbers are strictly increasing and consistent with its length.
        iters = (
            r.residual_iters
            if r.residual_iters is not None
            else np.arange(len(r.residuals))
        )
        assert len(iters) == len(r.residuals)
        assert np.all(np.diff(iters) > 0)
        assert r.iterations == int(iters[-1])


@common
@given(spd_matrices(), st.integers(0, 2**31))
def test_default_cadence_bitwise_matches_seed_loop(A, seed):
    # residual_every=1 must reproduce the historical hand-rolled per-sweep
    # loop bitwise — the refactor's exactness contract.
    from repro.solvers import StoppingCriterion

    n = A.shape[0]
    b = A.matvec(np.random.default_rng(seed).standard_normal(n))
    b_norm = float(np.linalg.norm(b))
    stopping = StoppingCriterion(tol=1e-9, maxiter=120)
    threshold = stopping.threshold(b_norm)
    from repro.solvers import JacobiSolver

    solver = JacobiSolver(stopping=stopping)
    result = solver.solve(A, b)

    state = JacobiSolver(stopping=stopping)._setup(A, b.copy())
    x = np.zeros(n)
    residuals = [float(np.linalg.norm(A.residual(x, b)))]
    converged = residuals[0] <= threshold
    it = 0
    while not converged and it < stopping.maxiter:
        x = solver._iterate(state, x)
        it += 1
        res = float(np.linalg.norm(A.residual(x, b)))
        residuals.append(res)
        if res <= threshold:
            converged = True
        elif stopping.diverged(res):
            break
    assert np.array_equal(result.residuals, np.array(residuals))
    assert np.array_equal(result.x, x)
    assert result.converged == converged


@common
@given(spd_matrices(), st.integers(2, 5))
def test_residual_every_subsamples_the_dense_history(A, m):
    # Larger cadences record a subsequence of the m=1 history while
    # visiting identical iterates.
    from repro.solvers import StoppingCriterion

    b = A.matvec(np.ones(A.shape[0]))
    iters = 12
    stopping = StoppingCriterion(tol=0.0, maxiter=iters)
    from repro.solvers import ConjugateGradientSolver, GMRESSolver

    dense_solvers = _template_solvers(stopping)
    sparse_solvers = _template_solvers(stopping, residual_every=m)
    for dense_s, sparse_s in zip(dense_solvers, sparse_solvers):
        if isinstance(dense_s, GMRESSolver):
            continue  # ledger-driven: cadence does not apply
        if isinstance(dense_s, ConjugateGradientSolver):
            # tol=0 forces CG deep into the noise floor where an exact-zero
            # inner product can end the run between cadence points.
            continue
        dense = dense_s.solve(A, b)
        if dense.iterations < iters:
            # Degenerate systems (e.g. diagonal) hit an exact-zero residual
            # early; the cadence comparison needs the full budget.
            continue
        sparse = sparse_s.solve(A, b)
        assert np.array_equal(sparse.x, dense.x)
        expected_iters = sorted(set(range(0, iters + 1, m)) | {iters})
        assert sparse.residual_iters.tolist() == expected_iters
        assert np.array_equal(sparse.residuals, dense.residuals[expected_iters])


@common
@given(st.integers(0, 2**31), st.integers(10, 40))
def test_chebyshev_solves_random_spd(seed, n):
    from repro.matrices import random_spd
    from repro.solvers import ChebyshevSolver, StoppingCriterion

    A = random_spd(n, density=0.2, dominance=1.5, seed=seed)
    b = A.matvec(np.ones(n))
    r = ChebyshevSolver(
        lanczos_steps=min(60, n), stopping=StoppingCriterion(tol=1e-9, maxiter=800)
    ).solve(A, b)
    assert r.converged
    assert np.allclose(r.x, 1.0, atol=1e-5)
