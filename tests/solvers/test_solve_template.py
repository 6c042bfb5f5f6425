"""The one solve entry: ``IterativeSolver.solve`` is every solver's ``solve``.

Every solver validates, permutes and maps back in the template, so bad
input fails with the same message everywhere — before any partition or
block view is built — and an overflowing ``||b||`` is never reported as
convergence.
"""

from __future__ import annotations

import importlib
import sys

import numpy as np
import pytest

from repro.core import AsyncConfig, BlockAsyncSolver
from repro.core.recovery import SelfHealingSolver
from repro.core.threaded import ThreadedAsyncSolver
from repro.dist import DistAsyncSolver
from repro.krylov import AsyncRichardsonSolver
from repro.solvers import (
    BlockJacobiSolver,
    ChebyshevSolver,
    ConjugateGradientSolver,
    GaussSeidelSolver,
    GMRESSolver,
    IterativeSolver,
    JacobiSolver,
    SORSolver,
    SSORSolver,
    StoppingCriterion,
)
from repro.sparse import BlockRowView, CSRMatrix

_CFG = AsyncConfig(local_iterations=2, block_size=4, seed=1)

#: One small instance of every solver, keyed by class.
FACTORIES = {
    JacobiSolver: lambda st: JacobiSolver(stopping=st),
    SORSolver: lambda st: SORSolver(omega=1.2, stopping=st),
    GaussSeidelSolver: lambda st: GaussSeidelSolver(stopping=st),
    SSORSolver: lambda st: SSORSolver(omega=1.1, stopping=st),
    ChebyshevSolver: lambda st: ChebyshevSolver(stopping=st),
    ConjugateGradientSolver: lambda st: ConjugateGradientSolver(stopping=st),
    GMRESSolver: lambda st: GMRESSolver(restart=5, stopping=st),
    BlockJacobiSolver: lambda st: BlockJacobiSolver(block_size=4, stopping=st),
    BlockAsyncSolver: lambda st: BlockAsyncSolver(_CFG, stopping=st),
    SelfHealingSolver: lambda st: SelfHealingSolver(_CFG, stopping=st),
    ThreadedAsyncSolver: lambda st: ThreadedAsyncSolver(
        local_iterations=2, block_size=4, workers=2, stopping=st
    ),
    DistAsyncSolver: lambda st: DistAsyncSolver(_CFG, shards=1, stopping=st),
    AsyncRichardsonSolver: lambda st: AsyncRichardsonSolver(_CFG, stopping=st),
}
SOLVERS = [pytest.param(cls, id=cls.__name__) for cls in FACTORIES]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _system(n: int = 12):
    """A small strictly diagonally dominant SPD tridiagonal system."""
    dense = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return CSRMatrix.from_dense(dense), np.ones(n)


def test_no_solver_overrides_solve():
    for module in ("repro.core", "repro.dist", "repro.krylov", "repro.solvers"):
        importlib.import_module(module)
    found = set(_subclasses(IterativeSolver))
    assert found == set(FACTORIES)
    for cls in found:
        assert "solve" not in vars(cls), f"{cls.__name__} overrides solve"


def _bad_input(case: str):
    A, b = _system()
    x0 = np.zeros(len(b))
    if case == "A-nan":
        A = A.copy()
        A.data[3] = np.nan
    elif case == "b-inf":
        b = b.copy()
        b[3] = np.inf
    elif case == "x0-nan":
        x0[5] = np.nan
    elif case == "non-square":
        A = CSRMatrix.from_dense(np.ones((3, 4)))
    elif case == "b-length":
        b = np.ones(len(b) - 1)
    elif case == "x0-length":
        x0 = np.zeros(len(b) + 1)
    elif case == "empty":
        A, b, x0 = CSRMatrix.from_dense(np.zeros((0, 0))), np.zeros(0), None
    return A, b, x0


BAD_INPUTS = {
    "A-nan": "A has non-finite entries (NaN or inf)",
    "b-inf": "b has non-finite entries (NaN or inf)",
    "x0-nan": "x0 has non-finite entries (NaN or inf)",
    "non-square": "A must be square, got shape (3, 4)",
    "b-length": "b must have shape (12,), got (11,)",
    "x0-length": "x0 must have shape (12,), got (13,)",
    "empty": "A is empty (0 x 0); a solve needs at least one row",
}


@pytest.fixture
def no_decomposition(monkeypatch):
    """Make every partition or block-view build fail loudly."""

    def refuse(*args, **kwargs):
        raise AssertionError("decomposition built before validation")

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and hasattr(module, "make_partition"):
            monkeypatch.setattr(module, "make_partition", refuse)
    monkeypatch.setattr(BlockRowView, "__init__", refuse)


@pytest.mark.parametrize("case", list(BAD_INPUTS))
@pytest.mark.parametrize("cls", SOLVERS)
def test_bad_input_same_error_before_decomposition(cls, case, no_decomposition):
    A, b, x0 = _bad_input(case)
    solver = FACTORIES[cls](StoppingCriterion(maxiter=5))
    with pytest.raises(ValueError) as err:
        solver.solve(A, b, x0)
    assert str(err.value) == BAD_INPUTS[case]


@pytest.mark.parametrize("cls", SOLVERS)
def test_overflowing_b_norm_never_converges(cls):
    # Finite b whose norm overflows: the initial residual is inf, which
    # an infinite relative threshold must not count as convergence.
    A, _ = _system()
    b = 1e300 * np.ones(A.shape[0])
    with np.errstate(all="ignore"):
        assert np.isinf(np.linalg.norm(b))
        result = FACTORIES[cls](StoppingCriterion(tol=1e-10, maxiter=20)).solve(A, b)
    assert not result.converged


def test_dist_zero_diagonal_raises_before_spawning(monkeypatch):
    import repro.dist.solver as dist_solver

    def no_runtime(*args, **kwargs):
        raise AssertionError("workers started for an invalid system")

    monkeypatch.setattr(dist_solver, "DistRuntime", no_runtime)
    A = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="zero diagonal"):
        DistAsyncSolver(shards=1, block_size=1).solve(A, np.ones(2))

