"""Operator-property tests for the repro.krylov preconditioners."""

import dataclasses

import numpy as np
import pytest

from repro.core import AsyncConfig
from repro.krylov import (
    AsyncSweepPreconditioner,
    JacobiPreconditioner,
    Preconditioner,
)
from repro.matrices import get_matrix
from repro.sparse import BlockRowView


def _assemble(M, n):
    P = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        P[:, i] = M(e)
    return P


# --- protocol -------------------------------------------------------------


def test_implementations_satisfy_protocol(small_spd):
    assert isinstance(AsyncSweepPreconditioner(small_spd, sweeps=1), Preconditioner)
    assert isinstance(JacobiPreconditioner(small_spd), Preconditioner)


# --- linearity / determinism ----------------------------------------------


def test_linearity_to_fp_tolerance(small_spd):
    M = AsyncSweepPreconditioner(small_spd, sweeps=2)
    gen = np.random.default_rng(0)
    r1 = gen.standard_normal(60)
    r2 = gen.standard_normal(60)
    assert np.allclose(M(3.0 * r1 - 0.5 * r2), 3.0 * M(r1) - 0.5 * M(r2), atol=1e-12)


def test_bitwise_deterministic_across_applications(small_spd):
    M = AsyncSweepPreconditioner(small_spd, sweeps=2)
    r = np.random.default_rng(1).standard_normal(60)
    first = M(r)
    for _ in range(3):
        assert np.array_equal(M(r), first)


def test_zero_guess_maps_zero_to_zero_exactly(small_spd):
    M = AsyncSweepPreconditioner(small_spd, sweeps=3)
    assert np.all(M(np.zeros(60)) == 0.0)


# --- compile-once ---------------------------------------------------------


def test_engines_and_plan_persist_across_applications(small_spd):
    M = AsyncSweepPreconditioner(small_spd, sweeps=1)
    fwd, rev, view = M._forward, M._reverse, M.view
    r = np.random.default_rng(2).standard_normal(60)
    M(r)
    M(r)
    assert M._forward is fwd and M._reverse is rev and M.view is view


def test_shared_view_is_used_verbatim(small_spd):
    cfg = AsyncConfig(local_iterations=1, block_size=16)
    view = BlockRowView(small_spd, block_size=16)
    M = AsyncSweepPreconditioner(small_spd, sweeps=1, config=cfg, view=view)
    assert M.view is view


# --- schedule freezing ----------------------------------------------------


def test_freeze_forces_deterministic_schedule(small_spd):
    cfg = AsyncConfig(
        local_iterations=2,
        block_size=16,
        order="gpu",
        stale_read_prob=0.3,
        deferred_write_prob=0.2,
        seed=42,
    )
    M = AsyncSweepPreconditioner(small_spd, sweeps=1, config=cfg)
    assert M.config.order == "sequential"
    assert M.config.stale_read_prob == 0.0
    assert M.config.deferred_write_prob == 0.0
    assert M.config.seed == 0


@pytest.mark.parametrize(
    "order,reverse", [("sequential", "reversed"), ("reversed", "sequential"), ("synchronous", "synchronous")]
)
def test_deterministic_orders_kept_and_paired(small_spd, order, reverse):
    cfg = AsyncConfig(local_iterations=1, block_size=16, order=order)
    M = AsyncSweepPreconditioner(small_spd, sweeps=1, config=cfg)
    assert M.config.order == order
    assert M.reverse_config.order == reverse


def test_unfrozen_is_a_smoother_not_an_operator(small_spd):
    cfg = AsyncConfig(local_iterations=2, block_size=16, order="gpu", seed=5)
    M = AsyncSweepPreconditioner(small_spd, sweeps=2, config=cfg, freeze=False)
    assert M.config.order == "gpu"  # kept verbatim
    with pytest.raises(ValueError, match="smoother"):
        M(np.zeros(60))
    b = np.ones(60)
    x = M.smooth(np.zeros(60), b)
    assert x.shape == (60,) and np.linalg.norm(small_spd.residual(x, b)) < np.linalg.norm(b)


def test_schwarz_configs_rejected(small_spd):
    cfg = AsyncConfig(local_iterations=1, block_size=16, partition="uniform+o1")
    with pytest.raises(ValueError, match="overlap belongs to the outer solve"):
        AsyncSweepPreconditioner(small_spd, config=cfg)


@pytest.mark.parametrize("spec", ["rcm", "clustered:16"])
def test_permuting_partition_rejected(small_spd, spec):
    # The preconditioner applies in original row order; it used to ignore
    # the spec and cut uniform blocks.
    cfg = AsyncConfig(local_iterations=1, block_size=16, partition=spec)
    with pytest.raises(ValueError, match="permutes rows"):
        AsyncSweepPreconditioner(small_spd, config=cfg)


def test_view_follows_config_partition(small_spd):
    cfg = AsyncConfig(local_iterations=1, block_size=16, partition="work_balanced:3")
    M = AsyncSweepPreconditioner(small_spd, config=cfg)
    assert M.view.partition.strategy == "work_balanced"
    assert M.view.nblocks == 3


def test_shape_and_sweeps_validation(small_spd):
    M = AsyncSweepPreconditioner(small_spd, sweeps=1)
    with pytest.raises(ValueError, match="shape"):
        M(np.zeros(7))
    with pytest.raises(ValueError, match="sweeps"):
        AsyncSweepPreconditioner(small_spd, sweeps=0)


# --- symmetry -------------------------------------------------------------


def test_symmetrize_reduces_symmetry_defect(small_spd):
    cfg = AsyncConfig(local_iterations=2, block_size=10)
    one_sided = _assemble(
        AsyncSweepPreconditioner(small_spd, sweeps=1, config=cfg, symmetrize=False), 60
    )
    paired = _assemble(
        AsyncSweepPreconditioner(small_spd, sweeps=1, config=cfg, symmetrize=True), 60
    )

    def defect(P):
        return np.linalg.norm(P - P.T) / np.linalg.norm(P)

    assert defect(paired) < defect(one_sided)


def test_snapshot_operator_is_exactly_symmetric_up_to_fp(small_spd):
    # order="synchronous", k=1: each sweep is one damped-Jacobi step, so
    # the assembled operator is a polynomial in D^-1 A — symmetric in the
    # D inner product; in the Euclidean one D^{1/2} P D^{-1/2} is symmetric.
    cfg = AsyncConfig(local_iterations=1, block_size=16, order="synchronous", omega=0.5)
    P = _assemble(
        AsyncSweepPreconditioner(small_spd, sweeps=2, config=cfg, symmetrize=False), 60
    )
    d = small_spd.diagonal()
    S = np.sqrt(d)[:, None] * P * np.sqrt(d)[None, :]
    assert np.linalg.norm(S - S.T) / np.linalg.norm(S) < 1e-12


# --- spectrum bounds ------------------------------------------------------


def test_snapshot_spectrum_bounds_enclose_assembled_eigenvalues(small_spd):
    cfg = AsyncConfig(local_iterations=1, block_size=16, order="synchronous", omega=0.4)
    M = AsyncSweepPreconditioner(small_spd, sweeps=2, config=cfg, symmetrize=False)
    lo, hi = M.spectrum_bounds()
    assert 0.0 < lo <= hi
    PA = _assemble(M, 60) @ small_spd.to_dense()
    eig = np.linalg.eigvals(PA).real
    assert eig.min() >= lo - 1e-8 and eig.max() <= hi + 1e-8


def test_spectrum_bounds_requires_snapshot_regime(small_spd):
    M = AsyncSweepPreconditioner(small_spd, sweeps=1)  # sequential, k=2
    with pytest.raises(ValueError, match="snapshot"):
        M.spectrum_bounds()


def test_spectrum_bounds_rejects_indefinite_operator(small_spd):
    # omega far beyond 2/lambda_max with an even sweep count makes
    # 1-(1-omega*lam)^m dip below zero.
    cfg = AsyncConfig(local_iterations=1, block_size=16, order="synchronous", omega=1e6)
    with pytest.raises(ValueError, match="not positive"):
        AsyncSweepPreconditioner(
            small_spd, sweeps=2, config=cfg, symmetrize=False
        ).spectrum_bounds()


def test_snapshot_backend_is_not_reference(small_spd):
    cfg = AsyncConfig(local_iterations=1, block_size=16, order="synchronous", omega=0.4)
    M = AsyncSweepPreconditioner(small_spd, sweeps=1, config=cfg, symmetrize=False)
    assert M.backend != "reference"


# --- jacobi baseline ------------------------------------------------------


@pytest.mark.parametrize("name", ["small_spd", "Chem97ZtZ"])
def test_synchronous_snapshot_preconditioner_is_block_jacobi(small_spd, name):
    # The synchronous order reads the sweep-start snapshot (γ ≡ 0).  On a
    # matrix the plane gate refuses it runs on "levels", one whole level
    # per sweep — never as a live-read level program, which would apply
    # block Gauss-Seidel instead.
    from repro.experiments.exp_krylov import _snapshot_preconditioner

    A = small_spd if name == "small_spd" else get_matrix(name)
    M = _snapshot_preconditioner(A, sweeps=2, block_size=16)
    ref = AsyncSweepPreconditioner(
        A, sweeps=2, config=dataclasses.replace(M.config, backend="reference"), symmetrize=False
    )
    assert M.backend == "levels" and M.levels_per_apply is None
    gen = np.random.default_rng(3)
    for _ in range(3):
        r = gen.standard_normal(A.shape[0])
        assert np.array_equal(M(r), ref(r))


def test_jacobi_matches_diagonal_scaling(small_spd):
    M = JacobiPreconditioner(small_spd)
    r = np.random.default_rng(3).standard_normal(60)
    assert np.array_equal(M(r), r * (1.0 / small_spd.diagonal()))
    assert M.name == "jacobi"


def test_jacobi_spectrum_bounds(small_spd):
    M = JacobiPreconditioner(small_spd)
    lo, hi = M.spectrum_bounds()
    assert 0.0 < lo <= hi
    assert M.spectrum_bounds(lambda_bounds=(0.5, 2.0)) == (0.5, 2.0)


def test_jacobi_rejects_nonpositive_diagonal():
    from repro.sparse import CSRMatrix

    bad = CSRMatrix.from_dense(np.diag([1.0, -2.0, 3.0]))
    with pytest.raises(ValueError, match="diagonal"):
        JacobiPreconditioner(bad)


# --- name -----------------------------------------------------------------


def test_name_encodes_inner_sweep_shape(small_spd):
    cfg = AsyncConfig(local_iterations=3, block_size=16)
    assert (
        AsyncSweepPreconditioner(small_spd, sweeps=2, config=cfg).name == "async(3x2,sym)"
    )
    assert (
        AsyncSweepPreconditioner(small_spd, sweeps=1, config=cfg, symmetrize=False).name
        == "async(3x1)"
    )


# --- outer-solver input checks and decision telemetry ---------------------


def _outer(kind, M, **kw):
    from repro.solvers import ConjugateGradientSolver, GMRESSolver, StoppingCriterion

    stop = StoppingCriterion(tol=1e-10, maxiter=50)
    if kind == "pcg":
        return ConjugateGradientSolver(preconditioner=M, stopping=stop, **kw)
    return GMRESSolver(restart=10, preconditioner=M, stopping=stop, **kw)


@pytest.mark.parametrize("kind", ["pcg", "gmres"])
@pytest.mark.parametrize("which", ["A", "b", "x0"])
def test_outer_solvers_reject_non_finite_input(small_spd, kind, which):
    A, b, x0 = small_spd.copy(), np.ones(60), np.zeros(60)
    M = AsyncSweepPreconditioner(A, sweeps=1)
    {"A": A.data, "b": b, "x0": x0}[which][3] = np.nan
    with pytest.raises(ValueError, match=f"^{which} has non-finite"):
        _outer(kind, M).solve(A, b, x0)


@pytest.mark.parametrize("kind", ["pcg", "gmres"])
def test_outer_solvers_report_the_preconditioner(small_spd, kind):
    from repro.runtime import RunRecorder

    M = AsyncSweepPreconditioner(small_spd, sweeps=2, config=AsyncConfig(block_size=16))
    rec = RunRecorder()
    result = _outer(kind, M, recorder=rec).solve(small_spd, np.ones(60))
    facts = result.info["precond"]
    assert facts == {"name": M.name, "backend": "levels", "levels_per_apply": M.levels_per_apply}
    assert 0 < facts["levels_per_apply"] <= 4 * 4  # 4 sweeps of 4 blocks, overlapped
    assert rec.runs[-1].annotations["precond"] == facts
    # Without a level program there is no level count to report.
    snapshot = AsyncSweepPreconditioner(small_spd, sweeps=2, config=AsyncConfig(order="synchronous"))
    info = _outer(kind, snapshot).solve(small_spd, np.ones(60)).info["precond"]
    assert info["backend"] in ("levels", "stencil") and info["levels_per_apply"] is None
