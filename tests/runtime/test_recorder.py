"""Tests for RunRecorder telemetry capture and JSON export."""

import json

import numpy as np
import pytest

from repro.core import AsyncConfig, BlockAsyncSolver, FaultScenario
from repro.matrices import default_rhs
from repro.runtime import RunRecorder, StoppingCriterion


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token!r}")


def test_recorder_captures_sweeps_residuals_and_events():
    rec = RunRecorder()
    rec.open_run(method="demo", b_norm=2.0)
    rec.record_residual(0, 1.0)
    rec.record_sweep(1, 0.01, 0.5)
    rec.record_sweep(2, 0.02)  # no residual evaluated this sweep
    rec.record_event(2, "fault-active", frozen_rows=7)
    rec.annotate(backend="reference")
    rec.close_run(converged=False, sweeps=2)
    run = rec.runs[0]
    assert run.sweep_index == [1, 2]
    assert run.residual_iters == [0, 1]
    assert run.residual_norms == [1.0, 0.5]
    assert run.events == [{"sweep": 2, "kind": "fault-active", "frozen_rows": 7}]
    assert run.annotations == {"backend": "reference"}
    assert run.summary == {"converged": False, "sweeps": 2}
    assert run.elapsed is not None and run.elapsed >= 0


def test_recorder_json_roundtrip_and_dump(tmp_path):
    rec = RunRecorder()
    rec.open_run(method="demo")
    rec.record_sweep(1, 0.001, 0.25)
    # numpy payloads must become plain JSON types.
    rec.annotate(update_counts=np.array([3, 4]), rate=np.float64(0.5))
    rec.close_run(converged=True)
    data = json.loads(rec.to_json())
    assert data["schema"] == RunRecorder.SCHEMA
    assert data["runs"][0]["annotations"]["update_counts"] == [3, 4]
    path = tmp_path / "telemetry.json"
    rec.dump(path)
    assert json.loads(path.read_text()) == data


def test_recording_without_open_run_raises():
    # Recording against a recorder that never opened a run used to
    # fabricate a phantom method="adhoc" run silently; it must refuse.
    rec = RunRecorder()
    with pytest.raises(RuntimeError, match="open_run"):
        rec.record_residual(0, 1.0)
    with pytest.raises(RuntimeError, match="open_run"):
        rec.annotate(backend="reference")
    with pytest.raises(RuntimeError, match="open_run"):
        rec.record_event(0, "stop")
    assert rec.runs == []


def test_close_without_open_is_noop():
    rec = RunRecorder()
    rec.close_run(converged=True)  # nothing to close; must not fabricate
    assert rec.runs == []
    assert json.loads(rec.to_json()) == {"schema": RunRecorder.SCHEMA, "runs": []}


def test_annotate_after_close_lands_on_last_run():
    # Engines/CLI annotate after the loop closed the run; that must keep
    # working (the last run stays current until the next open).
    rec = RunRecorder()
    rec.open_run(method="demo")
    rec.close_run(converged=True)
    rec.annotate(matrix="fv1")
    assert rec.runs[0].annotations == {"matrix": "fv1"}


def test_diverged_run_exports_strict_json():
    # A diverged run records inf/nan residuals; json.dumps would emit the
    # non-standard Infinity/NaN tokens for them.  The export must encode
    # them as null with a finite=false marker and stay strictly parseable.
    rec = RunRecorder()
    rec.open_run(method="demo", b_norm=float("inf"))
    rec.record_residual(0, 1.0)
    rec.record_sweep(1, 0.01, float("inf"))
    rec.record_residual(2, float("nan"))
    rec.annotate(rho=np.float64("inf"), spectrum=np.array([1.0, np.inf]))
    rec.close_run(converged=False, diverged=True, final_residual=float("inf"))
    text = rec.to_json()
    data = json.loads(text, parse_constant=_reject_constant)
    run = data["runs"][0]
    assert run["residuals"]["norms"] == [1.0, None, None]
    assert run["residuals"]["finite"] is False
    assert run["meta"]["b_norm"] is None
    assert run["annotations"]["rho"] is None
    assert run["annotations"]["spectrum"] == [1.0, None]
    assert run["summary"]["final_residual"] is None


def test_finite_run_marked_finite():
    rec = RunRecorder()
    rec.open_run(method="demo")
    rec.record_residual(0, 1.0)
    rec.close_run(converged=True)
    data = json.loads(rec.to_json(), parse_constant=_reject_constant)
    assert data["runs"][0]["residuals"]["finite"] is True


def test_solver_run_feeds_recorder(trefethen_small):
    A = trefethen_small
    b = default_rhs(A)
    rec = RunRecorder()
    solver = BlockAsyncSolver(
        AsyncConfig(local_iterations=2, block_size=64, seed=4),
        stopping=StoppingCriterion(tol=1e-8, maxiter=100),
        recorder=rec,
    )
    result = solver.solve(A, b)
    assert result.converged
    run = rec.runs[0]
    assert run.meta["method"] == "async-(2)"
    assert run.meta["residual_every"] == 1
    # One timing sample per sweep, one residual per sweep plus the initial.
    assert len(run.sweep_seconds) == result.iterations
    assert run.residual_norms == result.residuals.tolist()
    assert run.summary["converged"] is True
    # Engine facts are attached as annotations.
    assert run.annotations["backend"] == "levels"
    assert run.annotations["levels_mean"] >= 1.0
    assert result.info["levels_mean"] == run.annotations["levels_mean"]
    assert len(run.annotations["update_counts"]) == run.annotations["nblocks"]


def test_engine_records_fault_events(trefethen_small):
    A = trefethen_small
    b = default_rhs(A)
    rec = RunRecorder()
    solver = BlockAsyncSolver(
        AsyncConfig(local_iterations=1, block_size=64, seed=0),
        fault=FaultScenario(fraction=0.1, t0=5, recovery=10, kind="freeze", seed=1),
        stopping=StoppingCriterion(tol=1e-10, maxiter=60),
        recorder=rec,
    )
    solver.solve(A, b)
    kinds = [e["kind"] for e in rec.runs[0].events]
    assert "fault-active" in kinds
    assert "fault-cleared" in kinds
    active = next(e for e in rec.runs[0].events if e["kind"] == "fault-active")
    assert active["frozen_rows"] > 0
