"""Tests for the shared instrumented run loop (repro.runtime.RunLoop)."""

import numpy as np
import pytest

from repro.matrices import default_rhs
from repro.runtime import RunLoop, RunRecorder, StopRun, StoppingCriterion


def _jacobi_parts(A, b):
    d = A.diagonal()

    def step(x, it):
        return x + (b - A.matvec(x)) / d

    def resnorm(x):
        return float(np.linalg.norm(A.residual(x, b)))

    return step, resnorm


def _hand_rolled(A, b, stopping):
    """The historical per-sweep loop every solver used to carry."""
    step, resnorm = _jacobi_parts(A, b)
    b_norm = float(np.linalg.norm(b))
    threshold = stopping.threshold(b_norm)
    x = np.zeros(A.shape[0])
    residuals = [resnorm(x)]
    converged = residuals[0] <= threshold
    diverged = False
    it = 0
    while not converged and it < stopping.maxiter:
        x = step(x, it)
        it += 1
        res = resnorm(x)
        residuals.append(res)
        if res <= threshold:
            converged = True
        elif stopping.diverged(res):
            diverged = True
            break
    return x, np.array(residuals), converged, diverged


def test_default_cadence_bitwise_matches_hand_rolled_loop(trefethen_small):
    A = trefethen_small
    b = default_rhs(A)
    stopping = StoppingCriterion(tol=1e-10, maxiter=200)
    step, resnorm = _jacobi_parts(A, b)
    out = RunLoop(stopping).run(
        np.zeros(A.shape[0]), step, resnorm, b_norm=float(np.linalg.norm(b))
    )
    x, residuals, converged, diverged = _hand_rolled(A, b, stopping)
    assert np.array_equal(out.x, x)
    assert np.array_equal(out.residuals, residuals)
    assert out.converged == converged
    assert out.diverged == diverged
    assert np.array_equal(out.residual_iters, np.arange(len(residuals)))
    assert out.sweeps == len(residuals) - 1


def test_residual_every_subsamples_same_iterates(trefethen_small):
    A = trefethen_small
    b = default_rhs(A)
    b_norm = float(np.linalg.norm(b))
    stopping = StoppingCriterion(tol=0.0, maxiter=30)
    step, resnorm = _jacobi_parts(A, b)
    dense = RunLoop(stopping).run(np.zeros(A.shape[0]), step, resnorm, b_norm=b_norm)
    m = 3
    sparse = RunLoop(stopping, residual_every=m).run(
        np.zeros(A.shape[0]), step, resnorm, b_norm=b_norm
    )
    # Same iterates, residuals evaluated only at the cadence points.
    assert np.array_equal(sparse.x, dense.x)
    assert np.array_equal(sparse.residual_iters, np.arange(0, 31, m))
    assert np.array_equal(sparse.residuals, dense.residuals[sparse.residual_iters])


def test_residual_every_always_evaluates_final_sweep(trefethen_small):
    A = trefethen_small
    b = default_rhs(A)
    step, resnorm = _jacobi_parts(A, b)
    # 10 sweeps, cadence 4: recorded at 0, 4, 8 and the final sweep 10.
    out = RunLoop(StoppingCriterion(tol=0.0, maxiter=10), residual_every=4).run(
        np.zeros(A.shape[0]), step, resnorm, b_norm=float(np.linalg.norm(b))
    )
    assert out.residual_iters.tolist() == [0, 4, 8, 10]


def test_stoprun_ends_before_counting_the_sweep():
    stopping = StoppingCriterion(tol=0.0, maxiter=50)

    def step(x, it):
        if it == 3:
            raise StopRun("breakdown")
        return x + 1.0

    out = RunLoop(stopping).run(
        np.zeros(2), step, lambda x: float(np.linalg.norm(x - 10.0)), b_norm=1.0
    )
    assert out.stop_reason == "breakdown"
    assert out.sweeps == 3
    assert len(out.residuals) == 4  # initial + sweeps 1..3
    assert not out.converged and not out.diverged


def test_divergence_aborts():
    stopping = StoppingCriterion(tol=1e-12, maxiter=100, divergence_limit=1e6)

    def step(x, it):
        return x * 10.0

    out = RunLoop(stopping).run(
        np.ones(2), step, lambda x: float(np.linalg.norm(x)), b_norm=1.0
    )
    assert out.diverged and not out.converged
    assert out.residuals[-1] > 1e6


def test_observer_sees_every_recorded_non_stopping_residual():
    stopping = StoppingCriterion(tol=0.0, maxiter=5)
    seen = []

    out = RunLoop(stopping).run(
        np.zeros(1),
        lambda x, it: x + 1.0,
        lambda x: float(x[0]) + 1.0,
        b_norm=1.0,
        observer=lambda it, x, res: seen.append((it, res)),
    )
    # Iteration 0 unconditionally, then every recorded residual that did
    # not stop the run by tolerance or divergence (budget exhaustion still
    # reports the final sample).
    assert [it for it, _ in seen] == [0, 1, 2, 3, 4, 5]
    assert [r for _, r in seen] == out.residuals.tolist()


def test_run_batched_matches_scalar_loops(trefethen_small):
    A = trefethen_small
    b = default_rhs(A)
    n = A.shape[0]
    b_norm = float(np.linalg.norm(b))
    d = A.diagonal()
    stopping = StoppingCriterion(tol=1e-8, maxiter=60)
    R = 3

    def sweep(reps):
        for r in reps:
            X[r] += (b - A.matvec(X[r])) / d

    def residual_norms(reps):
        return np.array([float(np.linalg.norm(A.residual(X[r], b))) for r in reps])

    X = np.zeros((R, n))
    out = RunLoop(stopping).run_batched(X, sweep, residual_norms, b_norm=b_norm)

    # Each replica ran plain Jacobi: compare to the scalar loop.
    x, residuals, converged, _ = _hand_rolled(A, b, stopping)
    for r in range(R):
        assert np.array_equal(out.histories[r], residuals)
        assert out.converged[r] == converged
        assert not out.diverged[r]
        assert np.array_equal(out.X[r], x)


def test_run_batched_freezes_converged_replicas():
    stopping = StoppingCriterion(tol=1e-3, maxiter=20, relative=False)
    X = np.array([[1.0], [100.0]])

    def sweep(reps):
        X[reps] *= 0.1

    def residual_norms(reps):
        return np.abs(X[reps, 0])

    out = RunLoop(stopping).run_batched(
        X, sweep, residual_norms, b_norm=1.0
    )
    # Replica 0 converges 2 sweeps before replica 1; its history stops
    # growing while replica 1 keeps iterating.
    assert len(out.histories[0]) < len(out.histories[1])
    assert out.converged.all()


def test_ledger_records_and_amends():
    rec = RunRecorder()
    ledger = RunLoop(
        StoppingCriterion(tol=1e-6, maxiter=10, relative=False), recorder=rec
    ).ledger(b_norm=1.0, method="gmres-test")
    assert not ledger.start(1.0)
    ledger.record(1, 0.5)
    ledger.record(2, 0.25)
    ledger.amend_last(0.2)
    assert not ledger.check(0.2)
    ledger.record(3, 1e-7)
    assert ledger.check(1e-7)
    ledger.finish(inner_iterations=3)
    assert ledger.converged
    assert ledger.history().tolist() == [1.0, 0.5, 0.2, 1e-7]
    run = rec.runs[0]
    assert run.meta["method"] == "gmres-test"
    assert run.residual_norms == [1.0, 0.5, 0.2, 1e-7]
    assert run.summary["converged"] is True


def test_residual_every_validation():
    with pytest.raises(ValueError):
        RunLoop(StoppingCriterion(), residual_every=0)


def test_infinite_residual_never_converges():
    # An overflowing ||b|| makes the relative threshold infinite; an
    # infinite residual must still not count as convergence, in every
    # driving style.
    inf = float("inf")
    stopping = StoppingCriterion(tol=1e-10, maxiter=5)
    assert stopping.threshold(inf) == inf
    assert not stopping.converged(inf, inf)
    assert not stopping.converged(float("nan"), inf)
    assert stopping.converged(1e300, inf)

    out = RunLoop(stopping).run(
        np.zeros(1), lambda x, it: x, lambda x: inf, b_norm=inf
    )
    assert not out.converged and out.diverged

    X = np.zeros((2, 1))
    batched = RunLoop(stopping).run_batched(
        X, lambda reps: None, lambda reps: np.full(len(reps), inf), b_norm=inf
    )
    assert not batched.converged.any() and batched.diverged.all()

    ledger = RunLoop(stopping).ledger(b_norm=inf)
    assert not ledger.start(inf)
    assert ledger.check(inf) and ledger.diverged and not ledger.converged
