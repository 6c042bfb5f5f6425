"""SolveService: batching exactness, queue policy, telemetry rollups."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import AsyncConfig, BlockAsyncSolver
from repro.matrices import default_rhs, get_matrix
from repro.runtime import StoppingCriterion
from repro.serve import SolveRequest, SolveService
from repro.sparse import CSRMatrix


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token!r}")


class FakeClock:
    """Deterministic injectable time source."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture(scope="module")
def fv1():
    return get_matrix("fv1")


def _service(**kw):
    kw.setdefault("config", AsyncConfig(local_iterations=2, block_size=128))
    kw.setdefault("stopping", StoppingCriterion(tol=1e-8, maxiter=300))
    return SolveService(**kw)


# --- batching exactness ---------------------------------------------------


def test_batched_responses_bitwise_equal_sequential_solves(fv1):
    # The admission batcher stacks R same-matrix requests into one
    # multi-vector solve; each response must be bitwise what a lone
    # per-request BlockAsyncSolver.solve would have produced.
    service = _service()
    rhs = {}
    for seed in range(6):
        b = default_rhs(fv1, kind="random", seed=seed)
        rhs[f"req-{seed}"] = b
        assert (
            service.submit(
                SolveRequest(A=fv1, b=b, request_id=f"req-{seed}", seed=seed)
            )
            is None
        )
    responses = {r.request_id: r for r in service.drain()}
    assert len(responses) == 6
    assert {r.batch_size for r in responses.values()} == {6}
    for seed in range(6):
        rid = f"req-{seed}"
        got = responses[rid]
        assert got.completed
        solver = BlockAsyncSolver(
            dataclasses.replace(service.config, seed=seed), stopping=service.stopping
        )
        ref = solver.solve(fv1, rhs[rid])
        assert got.result.converged == ref.converged
        assert np.array_equal(got.result.x, ref.x)
        assert np.array_equal(got.result.residuals, ref.residuals)


def test_single_request_uses_sequential_engine(fv1):
    service = _service()
    response = service.solve(fv1, default_rhs(fv1), seed=3)
    assert response.completed and response.batch_size == 1
    ref = BlockAsyncSolver(
        dataclasses.replace(service.config, seed=3), stopping=service.stopping
    ).solve(fv1, default_rhs(fv1))
    assert np.array_equal(response.result.x, ref.x)
    assert np.array_equal(response.result.residuals, ref.residuals)


def test_plan_compiled_once_across_batches(fv1):
    from repro.perf import plan_compile_count

    service = _service()
    before = plan_compile_count()
    for wave in range(3):
        for seed in range(2):
            service.submit(
                SolveRequest(A=fv1, b=default_rhs(fv1, kind="random", seed=seed))
            )
        assert all(r.completed for r in service.drain())
    assert plan_compile_count() == before + 1  # first wave compiles; rest hit
    cache = service.stats()["cache"]
    assert cache["misses"] == 1 and cache["hits"] == 2


def test_different_stopping_or_config_do_not_batch(fv1):
    # Batch keys cover the full config and stopping rule: requests that
    # differ in either must run in separate batches.
    service = _service(max_batch=8)
    b = default_rhs(fv1)
    service.submit(SolveRequest(A=fv1, b=b))
    service.submit(SolveRequest(A=fv1, b=b, stopping=StoppingCriterion(tol=1e-4)))
    service.submit(
        SolveRequest(A=fv1, b=b, config=AsyncConfig(local_iterations=7, block_size=128))
    )
    responses = service.drain()
    assert [r.batch_size for r in responses] == [1, 1, 1]
    assert service.stats()["batches"]["count"] == 3


def test_seed_only_difference_still_batches(fv1):
    service = _service(max_batch=8)
    for seed in (9, 4):
        service.submit(SolveRequest(A=fv1, b=default_rhs(fv1), seed=seed))
    responses = service.drain()
    assert [r.batch_size for r in responses] == [2, 2]


# --- queue policy ---------------------------------------------------------


def test_priority_orders_admission(small_spd):
    b = small_spd.matvec(np.ones(60))
    clock = FakeClock()
    service = _service(max_batch=1, clock=clock)
    service.submit(SolveRequest(A=small_spd, b=b, request_id="low", priority=0))
    service.submit(SolveRequest(A=small_spd, b=b, request_id="high", priority=5))
    service.submit(SolveRequest(A=small_spd, b=b, request_id="mid", priority=3))
    assert [r.request_id for r in service.drain()] == ["high", "mid", "low"]


def test_timeout_expires_queued_jobs(small_spd):
    b = small_spd.matvec(np.ones(60))
    clock = FakeClock()
    service = _service(max_batch=1, clock=clock)
    service.submit(SolveRequest(A=small_spd, b=b, request_id="impatient", timeout=1.0))
    service.submit(SolveRequest(A=small_spd, b=b, request_id="patient"))
    clock.advance(2.0)  # "impatient" out-waits its budget before admission
    responses = {r.request_id: r for r in service.drain()}
    assert responses["impatient"].status == "timeout"
    assert responses["impatient"].result is None
    assert responses["patient"].completed
    stats = service.stats()["requests"]
    assert stats["timed_out"] == 1 and stats["completed"] == 1


def test_overflow_rejects_lowest_priority(small_spd):
    b = small_spd.matvec(np.ones(60))
    service = _service(max_queue=2)
    service.submit(SolveRequest(A=small_spd, b=b, request_id="a", priority=1))
    service.submit(SolveRequest(A=small_spd, b=b, request_id="b", priority=0))
    # Queue full; a low-priority arrival is rejected immediately...
    rejection = service.submit(
        SolveRequest(A=small_spd, b=b, request_id="c", priority=0)
    )
    assert rejection is not None and rejection.status == "rejected"
    assert rejection.request_id == "c"
    # ...while a high-priority arrival evicts the lowest-priority job.
    assert (
        service.submit(SolveRequest(A=small_spd, b=b, request_id="d", priority=9))
        is None
    )
    responses = {r.request_id: r for r in service.drain()}
    assert responses["b"].status == "rejected"
    assert responses["a"].completed and responses["d"].completed
    assert service.stats()["requests"]["rejected"] == 2


# --- telemetry ------------------------------------------------------------


def test_stats_rollup_shape(fv1):
    service = _service()
    for seed in range(3):
        service.submit(
            SolveRequest(A=fv1, b=default_rhs(fv1, kind="random", seed=seed))
        )
    service.drain()
    stats = service.stats()
    assert stats["requests"]["submitted"] == 3
    assert stats["requests"]["completed"] == 3
    assert stats["latency_seconds"]["count"] == 3
    assert stats["latency_seconds"]["p99"] >= stats["latency_seconds"]["p50"] > 0
    assert stats["batches"] == {
        "count": 1,
        "mean_size": 3.0,
        "max_size": 3,
        "occupancy": 3.0 / service.max_batch,
    }
    assert stats["queue"]["depth"] == 0 and stats["queue"]["max_depth"] == 3


def test_recorder_gets_one_run_per_request_plus_batch(fv1):
    service = _service()
    for seed in range(3):
        service.submit(
            SolveRequest(A=fv1, b=default_rhs(fv1, kind="random", seed=seed),
                         request_id=f"q{seed}", seed=seed)
        )
    service.drain()
    methods = [r.meta["method"] for r in service.recorder.runs]
    assert len(methods) == 4  # one batched drive + three per-request runs
    assert methods[0].startswith("batched-")
    ids = [r.meta.get("request_id") for r in service.recorder.runs[1:]]
    assert ids == ["q0", "q1", "q2"]
    # Per-request runs carry the request's own residual trace and outcome.
    for run in service.recorder.runs[1:]:
        assert run.residual_norms[0] > 0
        assert run.summary["converged"] is True


def test_telemetry_strict_json_with_diverged_request():
    # A rho(B) > 1 system diverges; with no finite divergence limit the
    # residuals genuinely overflow to inf, so the export must sanitise
    # non-finite floats to stay parseable under a strict JSON parser.
    A = CSRMatrix.from_dense(np.array([[1.0, 8.0], [8.0, 1.0]]))
    service = _service(
        stopping=StoppingCriterion(
            tol=1e-10, maxiter=400, divergence_limit=float("inf")
        )
    )
    response = service.solve(A, np.ones(2))
    assert response.completed
    assert response.result.info["diverged"]
    doc = json.loads(service.telemetry_json(), parse_constant=_reject_constant)
    assert doc["schema"] == "repro.serve/v1"
    assert doc["service"]["requests"]["diverged"] == 1
    assert doc["telemetry"]["schema"] == "repro.runtime/v1"
    assert any(run["residuals"]["finite"] is False for run in doc["telemetry"]["runs"])
    line = json.dumps(response.to_dict(), allow_nan=False)
    assert json.loads(line, parse_constant=_reject_constant)["diverged"] is True


def test_diverged_request_batched_strict_json():
    A = CSRMatrix.from_dense(np.array([[1.0, 8.0], [8.0, 1.0]]))
    service = _service(
        stopping=StoppingCriterion(
            tol=1e-10, maxiter=400, divergence_limit=float("inf")
        )
    )
    for seed in range(2):
        service.submit(SolveRequest(A=A, b=np.ones(2), seed=seed))
    responses = service.drain()
    assert [r.batch_size for r in responses] == [2, 2]
    assert all(r.result.info["diverged"] for r in responses)
    json.loads(service.telemetry_json(), parse_constant=_reject_constant)


def test_dump_telemetry(tmp_path, small_spd):
    service = _service()
    service.solve(small_spd, small_spd.matvec(np.ones(60)))
    path = tmp_path / "serve.json"
    service.dump_telemetry(path)
    doc = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert doc["schema"] == "repro.serve/v1"


# --- validation -----------------------------------------------------------


def test_request_validation(small_spd):
    with pytest.raises(ValueError):
        SolveRequest(A=small_spd, b=np.ones(60), timeout=-1.0)
    service = _service()
    with pytest.raises(ValueError):
        service.submit(SolveRequest(A=small_spd, b=np.ones(3)))  # wrong length
    with pytest.raises(ValueError):
        SolveService(max_batch=0)
    with pytest.raises(ValueError):
        SolveService(max_queue=0)


def test_submit_rejects_non_finite_b(small_spd):
    # Running it would report converged=True with an infinite residual.
    b = np.ones(60)
    b[3] = np.inf
    service = _service()
    with pytest.raises(ValueError, match="^b has non-finite"):
        service.solve(small_spd, b)
    assert service.queue_depth == 0


def test_submit_rejects_non_finite_matrix(small_spd):
    A = small_spd.copy()
    A.data[4] = np.nan
    service = _service()
    with pytest.raises(ValueError, match="^A has non-finite"):
        service.solve(A, np.ones(60))
    assert service.queue_depth == 0


def test_submit_rejects_bad_krylov_request_before_queueing(small_spd):
    # The pcg solver's own check used to raise from drain(), after the
    # request was queued and admitted; submit refuses it up front.
    b = np.ones(60)
    b[3] = np.inf
    service = _service()
    with pytest.raises(ValueError, match="^b has non-finite"):
        service.submit(SolveRequest(A=small_spd, b=b, method="pcg"))
    assert service.queue_depth == 0
    assert service.drain() == []
