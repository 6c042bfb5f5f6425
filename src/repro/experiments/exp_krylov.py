"""X9 — the krylov outer-solver layer: time-to-tolerance vs plain CG.

The §5 outlook closed end-to-end: async-(k) sweeps packaged as
:class:`repro.krylov.AsyncSweepPreconditioner` inside deterministic outer
solvers, *measured* (wall-clock, not modelled — contrast X2) against
unpreconditioned CG across the suite.

Two regimes, one table:

* **Dominant systems** (fv/Trefethen/Chem97ZtZ families) — PCG with the
  symmetrized sequential-sweep operator cuts iterations by an order of
  magnitude and time-to-tolerance severalfold where the system is hard
  enough to amortise the sweep cost (fv3 especially).
* **s1rmt3m1** — the matrix where bare async-(k) *diverges*
  (ρ(|B|) ≫ 1): the snapshot preconditioner (``order="synchronous"``,
  ``local_iterations=1``, τ-scaled ω) is provably SPD, so PCG converges;
  second-order Richardson with the same operator and auto heavy-ball
  parameters converges too.  Async relaxation earns its keep here only
  as an inner component — the experiment's headline.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from ..core import AsyncConfig, BlockAsyncSolver
from ..krylov import AsyncSweepPreconditioner, make_outer_solver
from ..matrices import default_rhs, get_matrix
from ..solvers import ConjugateGradientSolver, StoppingCriterion
from ..solvers.scaling import estimate_tau
from .report import ExperimentResult, TableArtifact

__all__ = ["run"]


def _snapshot_preconditioner(A, *, sweeps: int, block_size: int) -> AsyncSweepPreconditioner:
    """The SPD snapshot operator: τ-damped Jacobi sweeps, each run whole (stencil or levels)."""
    ts = estimate_tau(A)
    lo, hi = 0.9 * ts.lambda_min, 1.05 * ts.lambda_max
    cfg = AsyncConfig(
        local_iterations=1, block_size=block_size, order="synchronous", omega=2.0 / (lo + hi)
    )
    return AsyncSweepPreconditioner(A, sweeps=sweeps, config=cfg, symmetrize=False)


def run(quick: bool = True) -> ExperimentResult:
    """Wall-clock time-to-tolerance across the suite, s1rmt3m1 included."""
    names = ["fv3", "Trefethen_2000", "Chem97ZtZ"] if quick else [
        "fv1", "fv2", "fv3", "Chem97ZtZ", "Trefethen_2000", "Trefethen_20000",
    ]
    tol, maxiter = (1e-10, 20000)
    rows = []
    for name in names:
        A = get_matrix(name)
        b = default_rhs(A)
        stop = StoppingCriterion(tol=tol, maxiter=maxiter)
        t0 = time.perf_counter()
        cg = ConjugateGradientSolver(stopping=stop).solve(A, b)
        t_cg = time.perf_counter() - t0
        t0 = time.perf_counter()
        pcg = make_outer_solver("pcg", A, precond="async:2",
                                config=AsyncConfig(local_iterations=2, block_size=256),
                                stopping=stop).solve(A, b)
        t_pcg = time.perf_counter() - t0
        rows.append([
            name, "pcg[async:2]", cg.iterations, pcg.iterations,
            round(t_cg, 3), round(t_pcg, 3),
            round(t_cg / t_pcg, 2) if t_pcg > 0 else float("inf"),
            "yes" if pcg.converged else "NO",
        ])

    # s1rmt3m1: bare async diverges; PCG and richardson2 converge.
    A = get_matrix("s1rmt3m1")
    b = default_rhs(A)
    s_tol = 1e-6 if quick else 1e-8
    bare = BlockAsyncSolver(
        AsyncConfig(local_iterations=2, block_size=256),
        stopping=StoppingCriterion(tol=s_tol, maxiter=60),
    ).solve(A, b)
    bare_rel = float(bare.relative_residuals()[-1])
    rows.append([
        "s1rmt3m1", "async-(2) [bare]", "-", bare.iterations, "-", "-", "-",
        f"NO (rel {bare_rel:.1e})",
    ])
    stop = StoppingCriterion(tol=s_tol, maxiter=6000)
    t0 = time.perf_counter()
    cg = ConjugateGradientSolver(stopping=dataclasses.replace(stop, maxiter=20000)).solve(A, b)
    t_cg = time.perf_counter() - t0
    P = _snapshot_preconditioner(A, sweeps=2, block_size=256)
    t0 = time.perf_counter()
    pcg = ConjugateGradientSolver(preconditioner=P, stopping=stop).solve(A, b)
    t_pcg = time.perf_counter() - t0
    rows.append([
        "s1rmt3m1", "pcg[snapshot:2]", cg.iterations, pcg.iterations,
        round(t_cg, 3), round(t_pcg, 3),
        round(t_cg / t_pcg, 2) if t_pcg > 0 else float("inf"),
        "yes" if pcg.converged else "NO",
    ])
    t0 = time.perf_counter()
    rich = make_outer_solver(
        "richardson2", A, config=AsyncConfig(block_size=256),
        stopping=StoppingCriterion(tol=s_tol, maxiter=30000),
    ).solve(A, b)
    t_rich = time.perf_counter() - t0
    rows.append([
        "s1rmt3m1", "richardson2[auto]", cg.iterations, rich.iterations,
        round(t_cg, 3), round(t_rich, 3),
        round(t_cg / t_rich, 2) if t_rich > 0 else float("inf"),
        "yes" if rich.converged else "NO",
    ])

    table = TableArtifact(
        title=f"X9: measured time-to-tolerance vs plain CG (tol {tol:g}; s1rmt3m1 at {s_tol:g})",
        headers=[
            "matrix", "method", "CG iters", "iters",
            "CG time (s)", "time (s)", "speedup", "converged",
        ],
        rows=rows,
    )
    notes = [
        "Wall-clock, measured in-process (contrast X2's modelled GPU times).",
        "s1rmt3m1 is the headline: bare async-(2) diverges within 60 sweeps, "
        "while the snapshot-preconditioned CG and the auto-tuned second-order "
        "Richardson both converge — async relaxation as an inner component.",
    ]
    return ExperimentResult("X9", "Krylov preconditioning layer", [table], {}, notes)
