"""Run-ensemble driver for the §4.1 non-determinism experiment.

Runs the same solver configuration many times, varying only the seed — the
software analogue of re-launching the same CUDA binary and letting the
hardware scheduler pick a different interleaving each time — and aggregates
the residual histories into :class:`repro.stats.EnsembleStats`.

What is passed decides the execution path:

* a *config* — the R replica iterates are stacked as an ``(R, n)``
  multi-vector and advanced together by
  :class:`repro.core.BatchedAsyncEngine`: the block decomposition is built
  once instead of R times, and every sweep shares one executor;
* a *factory* — one solve per seed of whatever solver it builds (faults,
  custom stopping rules, or an entirely different solver — none of which
  the batched engine models).  A factory returning plain
  :class:`repro.core.BlockAsyncSolver` instances of the same config with
  ``tol=0`` stopping reproduces the config-driven statistics bitwise.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.block_async import BlockAsyncSolver
from ..core.engine import BatchedAsyncEngine
from ..core.schedules import AsyncConfig
from ..partition import make_partition
from ..runtime.recorder import RunRecorder
from ..solvers.base import SolveResult, StoppingCriterion
from ..sparse import BlockRowView, CSRMatrix
from .runstats import EnsembleStats

__all__ = ["run_ensemble"]

#: A factory mapping a seed to a configured solver.
SolverFactory = Callable[[int], BlockAsyncSolver]


def _pad_history(h: np.ndarray, iterations: int) -> np.ndarray:
    """Align one run's history to the fixed ensemble length.

    Runs may legitimately stop early — an exact-zero residual satisfies
    even ``tol=0``, and divergence aborts the loop — in which case the
    final value is held; a history *longer* than ``iterations + 1`` means
    the solver ignored the requested iteration budget and aggregating it
    would silently misalign every checkpoint, so it is an error.
    """
    if len(h) > iterations + 1:
        raise ValueError(
            f"history has {len(h) - 1} iterations, more than the requested "
            f"{iterations}; the solver ignored the ensemble's maxiter "
            "(factories must respect the stopping rule run_ensemble installs)"
        )
    if len(h) < iterations + 1:
        h = np.concatenate([h, np.full(iterations + 1 - len(h), h[-1])])
    return h


def _batched_histories(
    A: CSRMatrix,
    b: np.ndarray,
    nruns: int,
    iterations: int,
    config: AsyncConfig,
    seed0: int,
    relative: bool,
    recorder: Optional[RunRecorder] = None,
) -> List[np.ndarray]:
    """All R residual histories from one multi-vector solve.

    Reproduces, bitwise, the histories of R sequential
    :class:`BlockAsyncSolver` solves with seeds ``seed0 .. seed0+R-1`` and
    stopping ``tol=0, maxiter=iterations``: same sweeps (the engine's
    exactness contract), same residual evaluations (multi-vector SpMV is
    bitwise identical per row; norms are taken per replica row), same
    early-exit rules (exact zero → converged, non-finite/huge → diverged).
    The loop itself is :meth:`repro.runtime.RunLoop.run_batched`, driven
    through :meth:`repro.core.BatchedAsyncEngine.run`.

    ``config.partition`` selects the decomposition; permuting strategies
    advance the permuted system (histories in partition order, scaled by
    the permuted right-hand side's norm), matching the sequential path.
    """
    part = make_partition(A, config.partition, block_size=config.block_size)
    view = BlockRowView(A, partition=part)
    bp = view.permute_vector(b)
    engine = BatchedAsyncEngine(view, bp, config, nruns, seed0=seed0)
    outcome = engine.run(
        stopping=StoppingCriterion(tol=0.0, maxiter=iterations), recorder=recorder
    )
    b_norm = float(np.linalg.norm(bp))
    out = []
    for h in outcome.histories:
        if relative and b_norm > 0:
            h = h / b_norm
        out.append(_pad_history(h, iterations))
    return out


def run_ensemble(
    A: CSRMatrix,
    b: np.ndarray,
    nruns: int,
    iterations: int,
    *,
    factory: Optional[SolverFactory] = None,
    config: Optional[AsyncConfig] = None,
    checkpoints: Sequence[int] = (),
    relative: bool = True,
    seed0: int = 0,
    recorder: Optional[RunRecorder] = None,
) -> EnsembleStats:
    """Run *nruns* fixed-length solves and aggregate their histories.

    **Fixed-length-history contract**: every run contributes a history of
    exactly ``iterations + 1`` residuals (the initial residual plus one per
    global iteration).  Config-driven runs are executed with ``tol=0`` so
    they never stop early; factory-built solvers keep their own tolerance
    and divergence limit but have their ``maxiter`` capped at *iterations*
    and their residual cadence set to every sweep, and any run that stops early (exact-zero residual, factory tolerance
    met, divergence) is padded by holding its final value.  A history
    *longer* than the contract raises :class:`ValueError`.

    Parameters
    ----------
    A, b:
        The system.
    nruns:
        Ensemble size (the paper uses 1000; the benchmarks default lower
        and scale up via ``REPRO_RUNS``).
    iterations:
        Global iterations per run.
    factory:
        Seed → solver mapping, run once per seed.  The factory's stopping
        rule is preserved except for ``maxiter``.  Without a factory,
        *config* (which then must be given) drives one batched solve of
        all runs.
    checkpoints:
        Iteration indices to aggregate at (default: all).
    relative:
        Aggregate relative residuals (``||r||/||b||``, as the paper plots)
        instead of absolute ones.
    seed0:
        First seed; runs use ``seed0, seed0+1, ...``.
    recorder:
        Optional :class:`repro.runtime.RunRecorder` telemetry sink.  A
        config-driven ensemble records one run covering all replicas; a
        factory ensemble attaches the recorder to each solver that has
        none (one run per seed).
    """
    if nruns < 1:
        raise ValueError("nruns must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if factory is None and config is None:
        raise ValueError("pass either factory or config")
    if factory is None:
        histories = _batched_histories(
            A, b, nruns, iterations, config, seed0, relative, recorder
        )
        return EnsembleStats.from_histories(histories, checkpoints)

    histories = []
    for r in range(nruns):
        solver = factory(seed0 + r)
        # Cap the iteration budget but keep the factory's tolerance and
        # divergence limit — clobbering the whole rule silently discarded
        # deliberately configured stopping behaviour.
        if solver.stopping.maxiter != iterations:
            solver.stopping = dataclasses.replace(solver.stopping, maxiter=iterations)
        # Record every sweep: histories are aggregated entry j = sweep j,
        # so a coarser residual cadence would misalign every checkpoint.
        solver.residual_every = 1
        if recorder is not None and getattr(solver, "recorder", None) is None:
            solver.recorder = recorder
        result: SolveResult = solver.solve(A, b)
        h = result.relative_residuals() if relative else result.residuals
        histories.append(_pad_history(h, iterations))
    return EnsembleStats.from_histories(histories, checkpoints)
