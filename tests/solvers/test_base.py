"""Tests for the solver interface, result record and stopping rules."""

import numpy as np
import pytest

from repro.solvers import JacobiSolver, SolveResult, StoppingCriterion
from repro.sparse import CSRMatrix


def test_stopping_defaults():
    s = StoppingCriterion()
    assert s.relative and s.tol == 1e-14


def test_stopping_validation():
    with pytest.raises(ValueError):
        StoppingCriterion(tol=-1.0)
    with pytest.raises(ValueError):
        StoppingCriterion(maxiter=-1)


def test_stopping_threshold_relative():
    s = StoppingCriterion(tol=1e-3)
    assert s.threshold(10.0) == 1e-2
    assert s.threshold(0.0) == 1e-3  # falls back to absolute


def test_stopping_threshold_absolute():
    s = StoppingCriterion(tol=1e-3, relative=False)
    assert s.threshold(10.0) == 1e-3


def test_stopping_diverged():
    s = StoppingCriterion(divergence_limit=1e10)
    assert s.diverged(1e11)
    assert s.diverged(float("nan"))
    assert not s.diverged(1e9)


def test_result_accessors(small_spd):
    b = small_spd.matvec(np.ones(60))
    r = JacobiSolver(stopping=StoppingCriterion(tol=1e-12, maxiter=500)).solve(small_spd, b)
    assert isinstance(r, SolveResult)
    assert r.iterations == len(r.residuals) - 1
    assert r.final_residual == r.residuals[-1]
    assert np.allclose(r.relative_residuals(), r.residuals / np.linalg.norm(b))


def test_residual_history_starts_with_initial(small_spd):
    b = small_spd.matvec(np.ones(60))
    r = JacobiSolver(stopping=StoppingCriterion(tol=0.0, maxiter=3)).solve(small_spd, b)
    assert np.isclose(r.residuals[0], np.linalg.norm(b))
    assert r.iterations == 3


def test_x0_respected(small_spd):
    b = small_spd.matvec(np.ones(60))
    x0 = np.ones(60)
    r = JacobiSolver(stopping=StoppingCriterion(tol=1e-10, maxiter=5)).solve(small_spd, b, x0=x0)
    assert r.converged
    assert r.iterations == 0  # exact initial guess


def test_x0_not_mutated(small_spd):
    b = small_spd.matvec(np.ones(60))
    x0 = np.zeros(60)
    JacobiSolver(stopping=StoppingCriterion(maxiter=3)).solve(small_spd, b, x0=x0)
    assert np.all(x0 == 0.0)


def test_maxiter_zero(small_spd):
    b = small_spd.matvec(np.ones(60))
    r = JacobiSolver(stopping=StoppingCriterion(tol=1e-20, maxiter=0)).solve(small_spd, b)
    assert r.iterations == 0
    assert not r.converged


def test_nonsquare_rejected():
    A = CSRMatrix.from_dense(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        JacobiSolver().solve(A, np.ones(2))


def test_wrong_b_length(small_spd):
    with pytest.raises(ValueError, match="b"):
        JacobiSolver().solve(small_spd, np.ones(59))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("which", ["b", "x0"])
def test_non_finite_input_rejected(small_spd, which, bad):
    b, x0 = np.ones(60), np.zeros(60)
    (b if which == "b" else x0)[7] = bad
    with pytest.raises(ValueError, match=f"^{which} has non-finite"):
        JacobiSolver().solve(small_spd, b, x0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_rejected(small_spd, bad):
    A = small_spd.copy()
    A.data[4] = bad
    with pytest.raises(ValueError, match="^A has non-finite"):
        JacobiSolver().solve(A, np.ones(60))


def test_divergence_aborts_early():
    # A matrix with rho(B) > 1 under plain Jacobi must stop on blow-up.
    dense = np.array([[1.0, 3.0], [3.0, 1.0]])
    A = CSRMatrix.from_dense(dense)
    r = JacobiSolver(stopping=StoppingCriterion(maxiter=10000, divergence_limit=1e10)).solve(
        A, np.ones(2)
    )
    assert r.info["diverged"]
    assert r.iterations < 100


def test_asymptotic_rate_matches_spectral_radius():
    from repro.matrices import fv_like
    from repro.matrices.analysis import iteration_matrix
    from repro.sparse.linalg import spectral_radius

    A = fv_like(1, nx=20, coeff_ratio=1.0)
    b = A.matvec(np.ones(400))
    r = JacobiSolver(stopping=StoppingCriterion(tol=0.0, maxiter=150)).solve(A, b)
    rho = spectral_radius(iteration_matrix(A), method="dense")
    rate = r.asymptotic_rate()
    assert rate is not None
    assert abs(rate - rho) < 0.02


def test_asymptotic_rate_none_when_too_short(small_spd):
    b = small_spd.matvec(np.ones(60))
    r = JacobiSolver(stopping=StoppingCriterion(tol=0.0, maxiter=3)).solve(small_spd, b)
    assert r.asymptotic_rate(skip=10) is None


def test_to_dict_serialisable(small_spd):
    import json

    b = small_spd.matvec(np.ones(60))
    r = JacobiSolver(stopping=StoppingCriterion(tol=0.0, maxiter=5)).solve(small_spd, b)
    d = json.loads(json.dumps(r.to_dict()))
    assert d["method"] == "jacobi"
    assert len(d["residuals"]) == 6
    assert "x" not in d
    d2 = r.to_dict(include_solution=True)
    assert len(d2["x"]) == 60
