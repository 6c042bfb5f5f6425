"""Krylov-method jobs through the serve layer: keys, routing, exactness."""

import numpy as np
import pytest

from repro.core import AsyncConfig
from repro.krylov import make_outer_solver
from repro.matrices import default_rhs
from repro.runtime import StoppingCriterion
from repro.serve import SolveRequest, SolveService
from repro.serve.jobs import batch_key_of
from repro.serve.stream import parse_job, run_job_stream


def _service(**kw):
    kw.setdefault("config", AsyncConfig(local_iterations=2, block_size=128))
    kw.setdefault("stopping", StoppingCriterion(tol=1e-8, maxiter=3000))
    return SolveService(**kw)


# --- request validation / canonicalisation --------------------------------


def test_precond_spec_canonicalised(small_spd):
    b = default_rhs(small_spd)
    assert SolveRequest(A=small_spd, b=b, method="pcg", precond="async").precond == "async:2"
    assert SolveRequest(A=small_spd, b=b, method="pcg", precond="none").precond is None
    assert SolveRequest(A=small_spd, b=b, method="cg").precond is None
    assert SolveRequest(A=small_spd, b=b, method="gmres", precond="jacobi").precond == "jacobi"


def test_unknown_method_rejected(small_spd):
    with pytest.raises(ValueError, match="unknown method"):
        SolveRequest(A=small_spd, b=default_rhs(small_spd), method="sor")


def test_precond_without_krylov_method_rejected(small_spd):
    with pytest.raises(ValueError, match="krylov method"):
        SolveRequest(A=small_spd, b=default_rhs(small_spd), precond="jacobi")


# --- batching keys --------------------------------------------------------


def test_batch_key_separates_methods_and_preconds():
    cfg = AsyncConfig(block_size=64)
    stop = StoppingCriterion(tol=1e-8, maxiter=100)
    base = batch_key_of("fp", cfg, stop, "pcg", "async:2")
    assert base == batch_key_of("fp", cfg, stop, "pcg", "async:2")
    assert base != batch_key_of("fp", cfg, stop, "pcg", "async:3")
    assert base != batch_key_of("fp", cfg, stop, "cg", "async:2")
    assert base != batch_key_of("fp", cfg, stop)  # native async path


def test_equivalent_specs_share_a_batch(small_spd):
    # "async" and "async:2" canonicalise identically, so the two requests
    # must land in one admission batch.
    service = _service(config=AsyncConfig(local_iterations=2, block_size=16))
    b = default_rhs(small_spd)
    for spec in ("async", "async:2"):
        assert (
            service.submit(SolveRequest(A=small_spd, b=b, method="pcg", precond=spec))
            is None
        )
    responses = service.drain()
    assert [r.batch_size for r in responses] == [2, 2]
    assert all(r.completed and r.result.converged for r in responses)


# --- routing exactness ----------------------------------------------------


def test_krylov_response_bitwise_matches_direct_solver(small_spd):
    cfg = AsyncConfig(local_iterations=2, block_size=16)
    stop = StoppingCriterion(tol=1e-10, maxiter=500)
    service = _service(config=cfg, stopping=stop)
    b = default_rhs(small_spd)
    response = service.solve(small_spd, b, method="pcg", precond="async:2")
    assert response.completed and response.result.converged

    direct = make_outer_solver("pcg", small_spd, precond="async:2", config=cfg, stopping=stop)
    expected = direct.solve(small_spd, b)
    assert np.array_equal(response.result.x, expected.x)
    assert np.array_equal(response.result.residuals, expected.residuals)
    assert response.result.method == "pcg"


def test_mixed_stream_methods_run_and_report(small_spd, tmp_path):
    mtx = tmp_path / "small.mtx"
    from repro.matrices import write_matrix_market

    write_matrix_market(mtx, small_spd)
    service = _service(config=AsyncConfig(local_iterations=2, block_size=16))
    lines = [
        '{"matrix": "%s", "method": "cg", "tol": 1e-10}' % mtx,
        '{"matrix": "%s", "method": "pcg", "precond": "async:2", "tol": 1e-10}' % mtx,
        '{"matrix": "%s", "method": "richardson", "tol": 1e-8, "maxiter": 2000}' % mtx,
        '{"matrix": "%s"}' % mtx,  # native async path still works alongside
    ]
    responses = run_job_stream(lines, service)
    assert len(responses) == 4
    assert all(r.completed and r.result.converged for r in responses)
    methods = sorted(r.result.method for r in responses)
    assert "cg" in methods and "pcg" in methods and "richardson" in methods


def test_parse_job_carries_method_and_precond(small_spd, tmp_path):
    from repro.matrices import write_matrix_market

    mtx = tmp_path / "small.mtx"
    write_matrix_market(mtx, small_spd)
    service = _service()
    req = parse_job(
        {"matrix": str(mtx), "method": "gmres", "precond": "jacobi"}, service
    )
    assert req.method == "gmres" and req.precond == "jacobi"


def test_krylov_on_work_balanced_partition_bitwise_matches_direct(fv1):
    # The preconditioner used to cut uniform blocks when built directly
    # while serve handed it the cache's work-balanced view.
    cfg = AsyncConfig(local_iterations=2, block_size=128, partition="work_balanced")
    stop = StoppingCriterion(tol=1e-10, maxiter=500)
    b = default_rhs(fv1)
    response = _service(config=cfg, stopping=stop).solve(fv1, b, method="pcg", precond="async:2")
    assert response.completed and response.result.converged

    direct = make_outer_solver("pcg", fv1, precond="async:2", config=cfg, stopping=stop)
    expected = direct.solve(fv1, b)
    assert np.array_equal(response.result.x.view(np.int64), expected.x.view(np.int64))
    assert np.array_equal(
        np.asarray(response.result.residuals).view(np.int64),
        np.asarray(expected.residuals).view(np.int64),
    )
    assert direct.preconditioner.view.partition.strategy == "work_balanced"
