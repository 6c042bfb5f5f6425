"""Tests for the async-(k) preconditioner extension."""

import numpy as np
import pytest

from repro.krylov import AsyncSweepPreconditioner
from repro.solvers import ConjugateGradientSolver, StoppingCriterion


def test_linearity(small_spd):
    # A fixed-schedule sweep from zero is a linear operator in r.
    M = AsyncSweepPreconditioner(small_spd, sweeps=2)
    rng = np.random.default_rng(0)
    r1 = rng.standard_normal(60)
    r2 = rng.standard_normal(60)
    assert np.allclose(M(r1 + 2.0 * r2), M(r1) + 2.0 * M(r2), atol=1e-12)


def test_deterministic_across_applications(small_spd):
    M = AsyncSweepPreconditioner(small_spd, sweeps=2)
    r = np.random.default_rng(1).standard_normal(60)
    assert np.array_equal(M(r), M(r))


def test_approximates_inverse(small_spd):
    # More sweeps -> better approximation of A^{-1} r.
    dense = small_spd.to_dense()
    r = np.random.default_rng(2).standard_normal(60)
    exact = np.linalg.solve(dense, r)
    errs = []
    for sweeps in (1, 3, 6):
        M = AsyncSweepPreconditioner(small_spd, sweeps=sweeps)
        errs.append(np.linalg.norm(M(r) - exact))
    assert errs[0] > errs[1] > errs[2]


def test_symmetrized_operator_near_symmetric(small_spd):
    # Assemble the operator densely and check symmetry of D^{1/2} P D^{1/2}
    # is much better for the symmetrized variant.
    def assemble(M):
        n = 60
        P = np.zeros((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            P[:, i] = M(e)
        return P

    from repro.core import AsyncConfig

    cfg = AsyncConfig(local_iterations=2, block_size=10, order="sequential")  # several blocks
    asym = assemble(AsyncSweepPreconditioner(small_spd, sweeps=1, config=cfg, symmetrize=False))
    sym = assemble(AsyncSweepPreconditioner(small_spd, sweeps=1, config=cfg, symmetrize=True))

    def asym_measure(P):
        return np.linalg.norm(P - P.T) / np.linalg.norm(P)

    assert asym_measure(sym) < asym_measure(asym)


def test_pcg_beats_cg_iterations(fv1):
    from repro.matrices import default_rhs

    b = default_rhs(fv1)
    stop = StoppingCriterion(tol=1e-10, maxiter=3000)
    cg = ConjugateGradientSolver(stopping=stop).solve(fv1, b)
    pcg = ConjugateGradientSolver(
        preconditioner=AsyncSweepPreconditioner(fv1, sweeps=2), stopping=stop
    ).solve(fv1, b)
    assert pcg.converged
    assert pcg.iterations < cg.iterations / 4


def test_invalid_sweeps(small_spd):
    with pytest.raises(ValueError, match="sweeps"):
        AsyncSweepPreconditioner(small_spd, sweeps=0)
